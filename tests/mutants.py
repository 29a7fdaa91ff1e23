"""Mutation gate: every exact shortcut must have a test that notices when it
is broken.

Each entry of MUTANTS is (file, old text, new text, test files). The file
is a path under src/, and the old text must occur in it exactly once, so a
refactor that moves or rewrites the code has to update its entry on
purpose. For each entry the script copies src/ to a temporary directory,
replaces the old text by the new one there, and runs `pytest -x -q` on the
named test files against the copy. That run must fail: a mutant whose
tests pass has survived, and the script exits 1.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

The checkout itself is never edited, and nothing is written to it. The
file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the sentinel log of 0 lands on a nonzero product's log
    ("cppforge/fields.py", "lg[0] = 2 * m\n", "lg[0] = 2 * m - 1\n",
     ["tests/test_fields.py"]),
    # the low half of a translation list starts one entry late
    ("cppforge/fields.py", "low = tab[cl * lo : cl * lo + lo]",
     "low = tab[cl * lo + 1 : cl * lo + lo + 1]", ["tests/test_fields.py"]),
    # a level's split point no longer matches its half table's width
    ("cppforge/fields.py", "self._add_lo = p ** ((self.full_degree + 1) // 2)",
     "self._add_lo = p ** (self.full_degree // 2)", ["tests/test_fields.py"]),
    # one Frobenius pass dropped between two indices of a p-polynomial
    ("cppforge/maps.py", "for _ in range(i - pos):", "for _ in range(i - pos - 1):",
     ["tests/test_maps.py"]),
    # the basis trace read one code past q^i
    ("cppforge/maps.py", "trace_code(tower, q**i)", "trace_code(tower, q**i + 1)",
     ["tests/test_maps.py"]),
    # A(0) of the trace-general builder taken as 0 instead of a_0
    ("cppforge/lifts.py", "alist[0] = L.coefficient(0).code", "alist[0] = 0",
     ["tests/test_lifts.py"]),
    # the base addition table built with its columns reversed
    ("cppforge/tables.py", "field._cadd_each([a] * q, range(q))",
     "field._cadd_each([a] * q, reversed(range(q)))", ["tests/test_tables.py"]),
    # base powers with the exponent reduced mod q instead of taken whole
    ("cppforge/tables.py", "self.field._cpow_all(int(e))", "self.field._cpow_all(int(e) % self.q)",
     ["tests/test_tables.py"]),
    # the high half summed in uint16, which wraps past 65535
    ("cppforge/tables.py", "high = half[a // lo * lo + b // lo].astype(np.int32)",
     "high = half[a // lo * lo + b // lo]", ["tests/test_tables.py"]),
    # the tower split at q^ceil(n/2), not at the level's p^ceil(full_degree/2)
    ("cppforge/tables.py", "half, lo = self._half_add, self.tower._add_lo",
     "half, lo = self._half_add, self.tower.q ** ((self.tower.n + 1) // 2)",
     ["tests/test_tables.py"]),
    # a row with values outside its field's codes scatters into the next row
    ("cppforge/tables.py", '_check_range(tabs, w, "table value")', "pass",
     ["tests/test_tables.py"]),
    # a row with one pair of distinct values taken as distinct throughout
    ("cppforge/grids.py", "return (keys[:, 1:] != keys[:, :-1]).all(axis=1)",
     "return (keys[:, 1:] != keys[:, :-1]).any(axis=1)", ["tests/test_grids.py"]),
    # the witness prefix evaluates h one point late
    ("cppforge/grids.py", "bt.horner(coeffs, subst[:width])", "bt.horner(coeffs, subst[1 : width + 1])",
     ["tests/test_grids.py"]),
    # the lift's first q columns taken as the witness without checking
    ("cppforge/grids.py", "sub_ok = ((tt.NOR[:q] == pow_n).all()",
     "sub_ok = True or ((tt.NOR[:q] == pow_n).all()", ["tests/test_grids.py"]),
    # x -> x^n taken to carry the witness onto the induced map unchecked
    ("cppforge/grids.py", "pow_ok = (bijective_rows(pow_n[None, :])[0]",
     "pow_ok = True or (bijective_rows(pow_n[None, :])[0]", ["tests/test_grids.py"]),
    # the square table's failing cells dropped, so no row's square fails
    ("cppforge/grids.py", "bad_x, bad_c = np.nonzero(~tt.norm_square_table())",
     "bad_x, bad_c = np.nonzero(~tt.norm_square_table() & False)", ["tests/test_grids.py"]),
]


def run_mutant(path: str, old: str, new: str, tests: list[str]):
    """The completed pytest run of tests against src/ with old replaced by new."""
    source = (ROOT / "src" / path).read_text()
    if source.count(old) != 1:
        raise ValueError(f"{path}: the old text occurs {source.count(old)} times: {old!r}")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # run from the temporary directory, so that hypothesis keeps the
        # mutant's failing examples there and not in the checkout
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(str(ROOT / t) for t in tests)],
            cwd=tmp, env=env, capture_output=True, text=True)


def main() -> int:
    survivors = 0
    for path, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        try:
            run = run_mutant(path, old, new, tests)
        except ValueError as exc:
            print(f"STALE     {exc}")
            survivors += 1
            continue
        last = run.stdout.strip().splitlines()[-1:] or ["(no output)"]
        # pytest exits 1 when a test failed; 0 means every test passed, and
        # any other code (a collection error, no tests found) is no kill
        verdict = "killed" if run.returncode == 1 else "SURVIVED"
        survivors += run.returncode != 1
        print(f"{verdict:9} {path}: {new!r} ({time.perf_counter() - t0:.1f} s) {last[0]}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
