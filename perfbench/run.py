"""cppforge benchmark: one workload, every metric by name and unit.

    python3 perfbench/run.py --workload norm_batch --seed 20260819 --seconds 50 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Every repetition runs in a new
interpreter started from here (child.py), one at a time, so module caches
never carry over and one caller drives the program in a closed loop.

--trace 0 prints the end-to-end metrics.  A run makes a fixed number of
repetitions of the workload (REPETITIONS), whatever the machine's speed,
and then takes set-up samples from set-up-only interpreters until it has
SETUP_SAMPLES of them.  Timings of the body are best-of-k over the
repetitions, command by command (a command is one sweep or one CLI call):
each command's latency is its fastest time and wall_s is their sum.
cmd_p50_s and cmd_p90_s are percentiles of the cli_session latencies;
norm_batch is one command, the sweep, so there both equal wall_s.  Other tenants of a shared host only ever add time, and they do so
in phases, so the minimum of each short command tracks the program while
a mean tracks the host.  setup_s and peak_rss_mb are medians.  --seconds
is accepted for the harness's interface; it sets no repetition count, so
that the statistic never depends on the speed it measures.  TIME_LIMIT_S
bounds the whole run.

--trace 1 runs the workload twice, traced: once with timing spans, which
give the per-layer times and counts, and once with tracemalloc inside the
tables spans, which gives tables.peak_alloc_mb without slowing the timed
pass.  trace.overhead_s is the direct cost of the wrappers: the span count
times the cost of one wrapped call, measured in the same interpreter.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every op
passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # the whole run, set-up samples and all
# Repetitions per --trace 0 run.  Fixed, so that a faster program never
# earns an extra sample.  One norm_batch body takes about 42 s on a 2-core
# Xeon, so it runs once; cli_session's millisecond calls need several
# samples each for steady percentiles.
REPETITIONS = {"norm_batch": 1, "cli_session": 4}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if "_us." in name:
        return "us"
    return "count"


def percentile(values, p: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    For the 201 session calls, p50 and p90 land exactly on a sample (the
    101st and 181st).
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def machine_facts(seed: int, workload: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, *, trace: int = 0, malloc: bool = False, setup_only: bool = False) -> dict:
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", a.workload, "--seed", str(a.seed), "--trace", str(trace)]
        if malloc:
            cmd.append("--malloc")
        if setup_only:
            cmd.append("--setup-only")
        for flag, val in (("--max-order", a.max_order), ("--calls", a.calls),
                          ("--reference", a.reference)):
            if val is not None:
                cmd += [flag, str(val)]
        budget = TIME_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise TimeoutError("time limit reached before a repetition could start")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=budget)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if os.path.dirname(os.path.dirname(rep["cppforge"])) != SRC:
            raise RuntimeError(f"cppforge imported from {rep['cppforge']}, not from {SRC}")
        return rep


def untraced(runner: Runner):
    reps = [runner.child() for _ in range(REPETITIONS[runner.args.workload])]
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(setup_only=True)["setup_s"])
    # every repetition runs the same commands in the same order
    best = [min(per_cmd) for per_cmd in zip(*(r["latencies"] for r in reps))]
    wall_s = sum(best)
    if runner.args.workload == "cli_session":
        p50, p90 = percentile(best, 0.50), percentile(best, 0.90)
    else:
        p50 = p90 = wall_s  # norm_batch is one command, the sweep
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "cmd_p50_s": p50,
        "cmd_p90_s": p90,
    }
    notes = {"repetitions": len(reps), "setup_samples": len(setups),
             "commands": len(best), "wall_s_each": [r["wall_s"] for r in reps]}
    return reps, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced(runner: Runner):
    rep = runner.child(trace=1)
    alloc = runner.child(trace=1, malloc=True)
    layers = dict(rep["layers"])
    layers["tables.peak_alloc_mb"] = alloc["tables_peak_mb"]
    layers["trace.wall_s"] = rep["wall_s"]
    layers["trace.overhead_s"] = layers["trace.spans"] * rep["span_cost_s"]
    if alloc["spans"] != layers["trace.spans"]:
        rep["violations"].append(f"the tracemalloc pass opened {alloc['spans']} spans, "
                                 f"the timed pass {layers['trace.spans']}")
    notes = {"traced_wall_s": rep["wall_s"], "malloc_pass_wall_s": alloc["wall_s"],
             "span_cost_us": rep["span_cost_s"] * 1e6}
    return [rep, alloc], {k: (v, per_layer_unit(k)) for k, v in layers.items()}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=50,
                    help="accepted for the harness; the repetition count is fixed per workload")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--max-order", type=int, help="shrink the sweep grids (self-tests only)")
    ap.add_argument("--calls", type=int, help="keep the first N session calls (self-tests only)")
    ap.add_argument("--reference", help="cli_session reference digests (default perfbench/reference.json)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cppforge", "__init__.py")):
        print(f"perfbench: no cppforge sources under {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts(args.seed, args.workload)
    runner = Runner(args)
    try:
        if args.trace:
            reps, metrics, notes = traced(runner)
        else:
            reps, metrics, notes = untraced(runner)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    violations = [v for r in reps for v in r["violations"]]
    facts["numpy"] = reps[0]["numpy"]
    print("machine " + json.dumps(facts))
    print("run " + json.dumps(notes))
    for r in reps:
        for why in r["problems"]:
            print(f"FAILED {why}")
    for why in violations:
        print(f"TRACE-CHECK {why}")
    print(f"fail_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0 and attempted > 0 and not violations
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
