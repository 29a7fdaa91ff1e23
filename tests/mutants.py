"""Mutation gate: every exact shortcut must have a test that notices when it
is broken.

Each entry of MUTANTS is (file, old text, new text, tests). The file is a
path under src/, and the old text must occur in it exactly once, so a
refactor that moves or rewrites the code has to update its entry on
purpose. The tests are the test functions that kill the mutant, each as
`file::test`, so a mutant runs only those and not its whole test file. For
each entry the script copies src/ to a temporary directory, replaces the
old text by the new one there, and runs `pytest -x -q` on the named tests
against the copy. That run must fail: a mutant whose tests pass has
survived, and the script exits 1.

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
     ["tests/test_fields.py::test_log_tables_match_convolution_every_pair_up_to_256"]),
    # the low half of a translation list starts one entry late
    ("cppforge/fields.py", "low = tab[cl * lo : cl * lo + lo]",
     "low = tab[cl * lo + 1 : cl * lo + lo + 1]",
     ["tests/test_fields.py::test_translation_lists_are_the_addition_of_every_constant_up_to_729"]),
    # a p = 2 translation list drops the constant's low bit
    ("cppforge/fields.py", "return [u ^ c for u in range(order)]",
     "return [u ^ (c & ~1) for u in range(order)]",
     ["tests/test_fields.py::test_translation_lists_are_the_addition_of_every_constant_up_to_729"]),
    # a level's split point no longer matches its half table's width
    ("cppforge/fields.py", "self._add_lo = p ** ((self.full_degree + 1) // 2)",
     "self._add_lo = p ** (self.full_degree // 2)",
     ["tests/test_fields.py::test_negation_matches_the_digitwise_reference_on_every_element_up_to_729"]),
    # a half-table entry past a unit adds the entry one below, not v - k
    ("cppforge/fields.py", "self._cadd(out[v - k], out[k])", "self._cadd(out[v - 1], out[k])",
     ["tests/test_fields.py::test_log_tables_equal_the_two_half_table_build_on_large_odd_levels"]),
    # the generator search skips the radix, which generates F_4/F_2
    ("cppforge/fields.py", "range(self._radix if self._deg > 1 else 2, self.order)",
     "range(self._radix + 1 if self._deg > 1 else 2, self.order)",
     ["tests/test_fields.py::test_find_generator_is_the_smallest_code_of_full_order_on_every_level_up_to_256"]),
    # Horner's first step multiplies by 1, not by the leading coefficient
    ("cppforge/fields.py", "lead, acc = lg[cs[-1]], None", "lead, acc = lg[1], None",
     ["tests/test_fields.py::test_peval_all_from_a_non_monic_lead_is_the_per_point_horner"]),
    # a monic first step translates by the constant, not the next coefficient
    ("cppforge/fields.py", "home._translation(cs[-2])", "home._translation(cs[0])",
     ["tests/test_fields.py::test_peval_all_from_a_non_monic_lead_is_the_per_point_horner"]),
    # the x = 0 probe looks for a repeat of the last value, not of table[0]
    ("cppforge/permcheck.py", "if order and table[0] in table[1:]:",
     "if order and table[-1] in table[:-1]:",
     ["tests/test_permcheck.py::test_table_verdict_keeps_the_dict_scan_witness"]),
    # past the probe, x is sought as the first x not its value's first
    # preimage, which finds the least second preimage instead
    ("cppforge/permcheck.py", "last = dict(zip(table, range(order)))",
     "last = dict(zip(reversed(table), reversed(range(order))))",
     ["tests/test_permcheck.py::test_table_verdict_keeps_the_dict_scan_witness"]),
    # the set of distinct values is bounded below only
    ("cppforge/permcheck.py", "for v in (min(seen), max(seen)) if seen else ():",
     "for v in (min(seen),) if seen else ():",
     ["tests/test_permcheck.py::test_distinct_codes_outside_the_field_are_out_of_range"]),
    # one Frobenius pass dropped between two indices of a p-polynomial
    ("cppforge/maps.py", "for _ in range(i - pos):", "for _ in range(i - pos - 1):",
     ["tests/test_maps.py::test_ppoly_eval_all_is_the_pointwise_chain_on_every_tower_up_to_729"]),
    # the basis trace read one code past q^i
    ("cppforge/maps.py", "trace_code(tower, q**i)", "trace_code(tower, q**i + 1)",
     ["tests/test_maps.py::test_trace_kernel_size_and_membership"]),
    # A(0) of the trace-general builder taken as 0 instead of a_0
    ("cppforge/lifts.py", "alist[0] = L.coefficient(0).code", "alist[0] = 0",
     ["tests/test_lifts.py::test_trace_general_lists_the_map_of_its_dense_polynomial"]),
    # the base addition table built with its columns reversed
    ("cppforge/tables.py", "[field._translation(a) for a in range(q)]",
     "[field._translation(a)[::-1] for a in range(q)]",
     ["tests/test_tables.py::test_base_tables_match_scalar_ops"]),
    # base powers with the exponent reduced mod q instead of taken whole
    ("cppforge/tables.py", "self.field._cpow_all(int(e))", "self.field._cpow_all(int(e) % self.q)",
     ["tests/test_tables.py::test_base_pow_all_matches_scalar"]),
    # the high half summed in uint16, which wraps past 65535
    ("cppforge/tables.py", "high = half[a // lo * lo + b // lo].astype(np.int32)",
     "high = half[a // lo * lo + b // lo]",
     ["tests/test_tables.py::test_odd_tower_add_is_the_digit_loop_on_seeded_pairs"]),
    # the tower split at q^ceil(n/2), not at the level's p^ceil(full_degree/2)
    ("cppforge/tables.py", "half, lo = self._half_add, self.tower._add_lo",
     "half, lo = self._half_add, self.tower.q ** ((self.tower.n + 1) // 2)",
     ["tests/test_tables.py::test_odd_tower_add_is_the_digit_loop_on_seeded_pairs"]),
    # a row with values outside its field's codes scatters into the next row
    ("cppforge/tables.py", '_check_range(tabs, w, "table value")', "pass",
     ["tests/test_tables.py::test_bijective_rows_refuses_out_of_range_values"]),
    # a row with one pair of distinct values taken as distinct throughout
    ("cppforge/grids.py", "return (keys[:, 1:] != keys[:, :-1]).all(axis=1)",
     "return (keys[:, 1:] != keys[:, :-1]).any(axis=1)",
     ["tests/test_grids.py::test_kernel_binomial_sweep_small_scale"]),
    # the lift walk keeps a sampled row's verdicts from the row before it
    ("cppforge/grids.py", "sampled[i] = (wit_cpp[i - lo], cpp[i - lo])",
     "sampled[i] = (wit_cpp[i - lo - 1], cpp[i - lo - 1])",
     ["tests/test_grids.py::test_norm_lift_sweep_small_scale",
      "tests/test_grids.py::test_trace_simple_sweep_small_scale"]),
    # the lift walk lifts only the rows whose witness permutes, for every
    # caller: on sound tables the theorems make that harmless
    ("cppforge/grids.py", "at = np.flatnonzero(wit_perm) if witness_first else np.arange(len(coeffs))",
     "at = np.flatnonzero(wit_perm)",
     ["tests/test_grids.py::test_a_corrupted_table_shows_in_the_trace_sweeps[thm3.2]",
      "tests/test_grids.py::test_a_corrupted_table_shows_in_the_trace_sweeps[thm3.7]"]),
    # the lift's first q columns taken as the witness without checking
    ("cppforge/grids.py", "sub_ok = ((tt.NOR[:q] == pow_n).all()",
     "sub_ok = True or ((tt.NOR[:q] == pow_n).all()",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # x -> x^n taken to carry the witness onto the induced map unchecked
    ("cppforge/grids.py", "pow_ok = (bijective_rows(pow_n[None, :])[0]",
     "pow_ok = True or (bijective_rows(pow_n[None, :])[0]",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # the square table's failing cells dropped, so no row's square fails
    ("cppforge/grids.py", "bad_x, bad_c = np.nonzero(~_norm_square(bt, tt, pow_n))",
     "bad_x, bad_c = np.nonzero(~_norm_square(bt, tt, pow_n) & False)",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # the class route taken on a tower whose square table has failing cells
    ("cppforge/grids.py", "sub_ok and pow_ok and len(bad_x) == 0 and _scales(bt, tt)",
     "sub_ok and pow_ok and _scales(bt, tt)",
     ["tests/test_grids.py::test_thm22_classes_give_the_per_row_verdicts[NOR]"]),
    # the square reads the memo's base tables, not the ones it is handed
    ("cppforge/grids.py", "out[x] = lhs == bt.MUL[tt.NOR[x, None], pow_n[None, :]]",
     "out[x] = lhs == base_tables(tt.tower.base).MUL[tt.NOR[x, None], pow_n[None, :]]",
     ["tests/test_grids.py::test_norm_checks_read_the_base_tables_they_are_handed"]),
    # thm2.2's class of the top (c1, c2) taken as (1, c2), not (1, c2/c1^2)
    ("cppforge/grids.py", "tt.MEXP[tt.LOG[c2] + -2 * tt.LOG[c1] % m]", "c2",
     ["tests/test_grids.py::test_thm22_classes_give_the_per_row_verdicts"]),
    # thm2.2's class of (c0, 0, c2) taken as (c0, 0, 1) on odd q too, where
    # a non-square c2 is not c2*v^2 for any v
    ("cppforge/grids.py", "odd = tt.LOG[c2] // s % 2 * (q % 2)", "odd = 0 * c2",
     ["tests/test_grids.py::test_norm_lift_sweep_small_scale"]),
    # each random h row gathers the verdicts of the next distinct row
    ("cppforge/grids.py", "inverse[lo : lo + len(c)]", "(inverse[lo : lo + len(c)] + 1) % len(distinct)",
     ["tests/test_grids.py::test_norm_lift_sweep_small_scale"]),
    # the leading coefficient of a random h drawn from 0..q-1, not 1..q-1
    ("cppforge/grids.py", "rng.integers(lead.astype(np.int64), q)", "rng.integers(0 * lead, q)",
     ["tests/test_grids.py::test_random_h_draw_is_the_row_by_row_draw"]),
    # y -> g*y taken as additive under the digitwise addition unchecked
    ("cppforge/grids.py", "return bool((gy[1:] == tt.add(gy[codes[1:] - e], gy[e])).all()",
     "return bool(True",
     ["tests/test_grids.py::test_scales_refuses_a_relabeled_tower"]),
    # base ADD taken as the tower's addition on F_q unchecked
    ("cppforge/grids.py", "and (bt.ADD == tt.add(codes[:q, None], codes[None, :q])).all())",
     "and True)",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # MEXP/LOG taken as a sentinel log/exp pair unchecked
    ("cppforge/grids.py", "log_ok = (len(mexp)", "log_ok = True or (len(mexp)",
     ["tests/test_grids.py::test_thm22_classes_give_the_per_row_verdicts"]),
    # rows whose lift repeats taken as pair-injective without a scan
    ("cppforge/grids.py", "scan = np.flatnonzero(h_bij & ~perm)",
     "scan = np.flatnonzero(h_bij & ~perm & False)",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # the spread prefix multiplies by the leading codes, not by its own x
    ("cppforge/grids.py", "tt.LOG[hcols].take(sel[xs], axis=1) + tt.LOG[xs]",
     "tt.LOG[hcols].take(sel[xs], axis=1) + tt.LOG[: len(sel[xs])]",
     ["tests/test_grids.py::test_a_corrupted_table_still_shows"]),
    # thm3.7's failing identity cells dropped, so no row's identity fails
    ("cppforge/grids.py", "np.nonzero(tt.TR[table] != bt.MUL[tt.TR])",
     "np.nonzero((tt.TR[table] != bt.MUL[tt.TR]) & False)",
     ["tests/test_grids.py::test_binomial_lift_table_is_the_per_row_lift"]),
    # thm3.7's table gather reads h at x instead of at tr x
    ("cppforge/grids.py", "hv[:, tt.TR[xs]]", "hv[:, xs % q]",
     ["tests/test_grids.py::test_trace_binomial_sweep_small_scale"]),
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
