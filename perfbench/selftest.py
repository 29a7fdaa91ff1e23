"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 perfbench/selftest.py

Each test runs run.py on a tiny version of a workload: small sweep grids
(--max-order 64) and the first dozen session calls (--calls 12).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--max-order", "64", "--calls", "12", "--seconds", "1"]


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_name_and_unit_is_printed(self):
        spec = bench_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc, res = run_bench("--workload", workload, "--trace", str(trace), *SMOKE)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertIn(f"\n{name} = ", proc.stdout)
                        self.assertTrue(proc.stdout.split(f"\n{name} = ")[1]
                                        .split("\n")[0].endswith(f" {unit}"))
                    self.assertIn("fail_frac = 0 ratio", proc.stdout)

    def test_traced_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            runs = [run_bench("--workload", workload, "--trace", "1", *SMOKE)[1] for _ in range(2)]
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                      for r in runs]
            self.assertEqual(counts[0], counts[1])
            self.assertGreater(counts[0]["trace.spans"], 0)

    def test_repetitions_do_not_follow_seconds(self):
        for seconds in ("1", "60"):
            proc, res = run_bench("--workload", "cli_session", "--max-order", "64",
                                  "--calls", "12", "--seconds", seconds)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertEqual(res["attempted"], run.REPETITIONS["cli_session"] * 12)

    def test_corrupted_reference_digest_fails(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            ref = workloads.load_reference(workloads.REFERENCE_PATH)
            digest = ref["calls"][3][2]
            ref["calls"][3][2] = ("0" if digest[0] != "0" else "1") + digest[1:]
            path = os.path.join(tmp, "reference.json")
            with open(path, "w") as fh:
                json.dump(ref, fh)
            proc, res = run_bench("--workload", "cli_session", "--reference", path, *SMOKE)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0)
        self.assertIn("output differs from the reference bytes", proc.stdout)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, res = run_bench("--workload", "norm_batch", "--seconds", "1",
                                  cwd=tmp, root=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(res)


class SessionDraw(unittest.TestCase):
    def test_draw_is_seeded_and_covers_the_commands(self):
        a = workloads.draw_session(workloads.DEFAULT_SEED)
        self.assertEqual(a, workloads.draw_session(workloads.DEFAULT_SEED))
        self.assertNotEqual(a, workloads.draw_session(1))
        self.assertGreaterEqual(len(a), 100)
        kinds = {argv[1] for argv, _ in a if argv[0] == "construct"}
        self.assertEqual(kinds, {"norm-lift", "trace-simple", "trace-general",
                                 "trace-binomial", "cppeg", "monomial"})
        self.assertEqual({argv[0] for argv, _ in a},
                         {"verify", "construct", "search", "kernel-check"})
        self.assertGreater(sum(code == 2 for _, code in a), 0)
        self.assertEqual({argv[argv.index("--format") + 1] for argv, _ in a},
                         {"json", "csv", "text"})

    def test_cppeg_oracle_agrees_with_the_library(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from cppforge import PreconditionViolated, cppeg_construct

        for e, t, k in [(1, 4, 2), (2, 2, 1), (2, 3, 1)]:
            for alpha in range(1, 1 << (e * t)):
                try:
                    cppeg_construct(e, t, k, alpha)
                    accepted = True
                except PreconditionViolated:
                    accepted = False
                self.assertEqual(workloads.cppeg_admissible(e, t, k, alpha), accepted)


if __name__ == "__main__":
    unittest.main(verbosity=2)
