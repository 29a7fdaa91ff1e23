"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cli_session --runs 10

Prints one JSON line per run and then a summary line: for every metric its
median, quartiles (statistics.quantiles(values, n=4)) and the interquartile
distance as a share of the median.  The runs are untraced and their seeds
are 1..runs, so two invocations measure the same inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, cwd=os.path.dirname(HERE))
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "exit": proc.returncode, **last}), flush=True)
        if proc.returncode != 0 or not last["correct"]:
            print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)
            return 1
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                         "iqr_share": (q3 - q1) / med if med else 0.0}
    print(json.dumps({"workload": args.workload, "runs": args.runs, "spread": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
