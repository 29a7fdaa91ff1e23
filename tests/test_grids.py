"""Sweep engine regression pins at reduced scale.

Full-scale runs live in the acceptance module; here each sweep re-runs on
a smaller grid with its default seed and must land on byte-identical
tallies. A drift in any number means either the arithmetic, the grid
enumeration, or the rng stream changed, and each of those is a bug or a
deliberate, ledgered decision.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from cppforge import REGISTRY, SweepReport, clear_caches, norm_lift_pairs, tower_grid
from cppforge import cli, fields, grids, lifts, maps, permcheck, tables
from cppforge.grids import (
    DEFAULT_SEED,
    sweep_kernel_binomials,
    sweep_monomial_norm,
    sweep_norm_lift,
    sweep_quadratic_monomials,
    sweep_trace_binomial,
    sweep_trace_general,
    sweep_trace_simple,
)


def test_registry_tokens():
    assert set(REGISTRY) == {
        "thm2.2",
        "cor2.3",
        "cor2.5",
        "thm3.2",
        "thm3.3",
        "thm3.7",
        "lemma3.4",
    }


def test_tower_grid_bounds_and_dedup():
    towers = tower_grid(4096)
    assert len(towers) == 57
    seen = set()
    for t in towers:
        assert t.order <= 4096 and t.n >= 2
        key = (t.p, t.base.r, t.n)
        assert key not in seen
        seen.add(key)
    # shrinking the cap can only shrink the grid
    assert len(tower_grid(256)) < 57


def test_norm_lift_pairs_requires_coprimality():
    pairs = norm_lift_pairs(4096)
    assert len(pairs) == 27
    assert all(math.gcd(n, q - 1) == 1 for q, n in pairs)
    assert (4, 3) not in pairs  # gcd(3, 3) = 3
    assert pairs == sorted(pairs)


def test_sweep_report_bookkeeping():
    rep = SweepReport("demo")
    rep.note(True, True)
    rep.note(True, False)
    assert rep.clean and rep.cases == 2 and rep.true_outcomes == 1
    rep.note(False, False, {"why": "x"})
    assert not rep.clean
    assert rep.counterexamples == [{"why": "x"}]
    j = rep.to_json()
    assert j["token"] == "demo" and j["cases"] == 3 and j["agreements"] == 2
    # a batch tallies exactly as its rows noted one by one
    ok = np.array([True, False, True])
    outcome = np.array([True, True, False])
    scalar, batched = SweepReport("demo"), SweepReport("demo")
    for i in range(len(ok)):
        scalar.note(bool(ok[i]), bool(outcome[i]), {"row": i})
    batched.note(ok, outcome, lambda i: {"row": i})
    assert batched.to_json() == scalar.to_json()
    assert batched.counterexamples == [{"row": 1}]
    assert (batched.cases, batched.agreements, batched.true_outcomes) == (3, 2, 2)


def test_norm_lift_sweep_small_scale():
    rep = sweep_norm_lift(max_order=256, random_h=20)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes) == (5237, 60)
    assert rep.extras["fiber_cases"] == rep.cases
    assert rep.extras["fiber_agreements"] == rep.cases
    assert rep.extras["builder_crosschecks"] == 88


def test_monomial_norm_sweep_small_scale():
    rep = sweep_monomial_norm(max_order=256)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes) == (323, 39)


def test_quadratic_monomial_sweep_small_scale():
    rep = sweep_quadratic_monomials(max_order=256)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes, rep.skipped) == (20, 20, 10)


def test_trace_simple_sweep_small_scale():
    rep = sweep_trace_simple(max_order=256)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes) == (8010, 80)


def test_trace_general_sweep_small_scale():
    rep = sweep_trace_general(max_order=64)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes, rep.skipped) == (46, 3, 296)
    assert rep.extras["hypothesis_failures"] == 296


def test_trace_binomial_sweep_small_scale():
    rep = sweep_trace_binomial(max_order=64)
    assert rep.clean
    assert (rep.cases, rep.true_outcomes) == (420, 12)
    assert rep.extras["identity_failures"] == 0


def test_kernel_binomial_sweep_small_scale():
    rep = sweep_kernel_binomials(max_order=256)
    assert rep.clean
    assert (rep.cases, rep.skipped) == (138, 123)
    assert rep.true_outcomes == rep.cases  # applied cases always predict True
    assert rep.extras["no_case_exhaustive_true"] == 0


def test_sweeps_are_deterministic_modulo_timing():
    a = sweep_trace_binomial(max_order=64, seed=DEFAULT_SEED).to_json()
    b = sweep_trace_binomial(max_order=64, seed=DEFAULT_SEED).to_json()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_clear_caches_changes_no_report():
    # the module caches only save work: every sweep reports the same after
    # they are emptied, timing aside
    def reports():
        out = {}
        for token, sweep in REGISTRY.items():
            out[token] = sweep(max_order=64).to_json()
            del out[token]["elapsed_seconds"]
        return out

    def sizes():
        memos = (fields._canonical_modulus, fields._half_add_table, tables.base_tables,
                 tables.tower_tables, maps.trace_kernel, maps._permutes_kernel, grids._tower)
        return [len(fields._LOG_CACHE)] + [m.cache_info().currsize for m in memos]

    first = reports()
    clear_caches()
    assert not any(sizes())
    assert reports() == first
    assert all(sizes())


def test_every_cleared_cache_is_bounded():
    # every memo clear_caches() empties, bar the one-entry CLI parser, keeps
    # a fixed number of entries (fields._LOG_CACHE is bounded by cells)
    sweep_trace_general(max_order=64)
    memos = {value for name, module in sys.modules.items() if name.startswith("cppforge.")
             for value in vars(module).values() if hasattr(value, "cache_clear")}
    assert {m.__name__ for m in memos} == {"_canonical_modulus", "_half_add_table", "base_tables",
                                           "tower_tables", "trace_kernel", "_permutes_kernel",
                                           "_lagrange_basis", "_tower", "_build_parser"}
    for memo in memos - {cli._build_parser}:
        assert memo.cache_info().maxsize is not None, memo.__name__
    clear_caches()
    assert not any(m.cache_info().currsize for m in memos)


def test_seed_changes_random_draws_but_not_cleanliness():
    rep = sweep_norm_lift(max_order=64, random_h=5, seed=1)
    assert rep.clean
    other = sweep_norm_lift(max_order=64, random_h=5, seed=2)
    assert other.clean
    # same exhaustive portion, possibly different random tails; case counts
    # stay equal because the draw count per pair is fixed
    assert rep.cases == other.cases


def _report_json(rep):
    out = rep.to_json()
    del out["elapsed_seconds"]
    return out


def test_no_sweep_depends_on_the_default_cap(monkeypatch):
    # each sweep checks its lifts at the tower's own order, the proof
    # identity of thm3.3 and thm3.7 included: a default cap below the
    # towers changes no report
    want = {token: _report_json(sweep(max_order=64)) for token, sweep in REGISTRY.items()}
    monkeypatch.setattr(permcheck, "DEFAULT_EXHAUSTIVE_CAP", 16)
    monkeypatch.setattr(lifts, "DEFAULT_EXHAUSTIVE_CAP", 16)
    for token, sweep in REGISTRY.items():
        assert _report_json(sweep(max_order=64)) == want[token], token


def test_prefix_width_changes_no_verdict(monkeypatch):
    # the prefix only decides which thm3.2 rows are lifted in full: a repeat
    # in it is a proof of non-permutation, so every width gives the same
    # reports. Width 1 rejects nothing, so every row takes the full path;
    # 64 and 256, the two widths the prefix has had, stay under test.
    # thm2.2 does not read _PREFIX: at every width it lifts in full exactly
    # the rows whose witness permutes
    full_rows = {}
    witness_rows = {}
    real_cpp_rows = grids.cpp_rows

    def counting_cpp_rows(t, tabs):
        perm, cpp = real_cpp_rows(t, tabs)
        if isinstance(t, tables.TowerTables):
            full_rows[width] += len(tabs)
        else:
            witness_rows[width] += int(perm.sum())
        return perm, cpp

    monkeypatch.setattr(grids, "cpp_rows", counting_cpp_rows)
    reports = {}
    widths = (1, 2, 16, 64, 256)
    assert grids._PREFIX in widths
    for width in widths:
        full_rows[width] = witness_rows[width] = 0
        monkeypatch.setattr(grids, "_PREFIX", width)
        norm = sweep_norm_lift(max_order=1024, random_h=20)
        assert full_rows[width] == witness_rows[width] == 1415
        reports[width] = (_report_json(norm),
                          _report_json(sweep_trace_simple(max_order=256)))
    first = reports[1]
    assert first[0]["extras"]["fiber_agreements"] == first[0]["cases"] == 39440
    assert all(r == first for r in reports.values())
    # a wider prefix rejects no fewer rows; 64 and 256 can reject the same
    assert full_rows[256] <= full_rows[64] < full_rows[16] < full_rows[2] < full_rows[1]


def test_witness_prefix_width_changes_no_verdict(monkeypatch):
    # the witness prefix only decides which thm2.2 rows have h evaluated in
    # full: a repeat in it is a proof that the witness does not permute, so
    # every width gives the same report. Width 1 rejects nothing; at 32, the
    # widest base at max_order 1024, and wider, the prefix is the whole
    # witness and only the rows whose witness permutes are evaluated in full
    full_rows = {}
    witness_rows = {}
    real_horner = tables.BaseTables.horner
    real_cpp_rows = grids.cpp_rows

    def counting_horner(self, coeffs, points=None):
        if points is None:
            full_rows[width] += len(coeffs)
        return real_horner(self, coeffs, points)

    def counting_cpp_rows(t, tabs):
        perm, cpp = real_cpp_rows(t, tabs)
        if isinstance(t, tables.BaseTables):
            witness_rows[width] += int(perm.sum())
        return perm, cpp

    monkeypatch.setattr(tables.BaseTables, "horner", counting_horner)
    monkeypatch.setattr(grids, "cpp_rows", counting_cpp_rows)
    reports = {}
    widths = (1, 2, 16, 32, 64)
    assert grids._WITNESS_PREFIX in widths
    for width in widths:
        full_rows[width] = witness_rows[width] = 0
        monkeypatch.setattr(grids, "_WITNESS_PREFIX", width)
        reports[width] = _report_json(sweep_norm_lift(max_order=1024, random_h=20))
        assert witness_rows[width] == 1415
    first = reports[1]
    assert first["extras"]["fiber_agreements"] == first["cases"] == 39440
    assert all(r == first for r in reports.values())
    # full_rows also counts the scalar replays' single-row Horner calls,
    # the same at every width
    counts = [full_rows[w] for w in widths]
    assert counts == sorted(counts, reverse=True)
    assert full_rows[16] < first["cases"] <= full_rows[1]
    assert full_rows[64] == full_rows[32]


def _f1024_over_f4():
    return next(t for t in tower_grid(1024) if (t.q, t.n) == (4, 5))


# each corruption's report as the sweep gave it before the shortcut that
# the case guards (the first five before thm2.2 reused its witness pass, the
# two ADD cells before its witness prefix): fiber agreements, the sha256 of
# to_json() minus elapsed_seconds, and whether F_1024/F_4 still passes the
# reuse checks
_CORRUPTED_REPORTS = {
    ("NOR", 700): (39390, "1f8b368019d6b6b718b857cdf71be6b3c00672ec07ca7452aa1fa21f79d5de4b", True),
    ("MEXP", 100): (39418, "3658774ad27e6a4423307615761b95640edef1abd0ffb6cab13f3245a9604b45", True),
    ("NOR", 2): (39388, "8d14a9f9388bf3b4138ed2c7cd7e02fbc46dc6c63c012bab541d34d9db236a64", False),
    ("MEXP", 0): (39420, "f458e77a6723afe294371fe9df40f7dc4362a69cc79b67cb66f4feb2893d98c6", False),
    ("MUL", (3, 0)): (39370, "37cfaca83e45b8e4d25f8a3c77e44431fcb5dac854295b92afac6ba7ad9c4941", False),
    ("ADD", (2, 3)): (39440, "f8766678156c97790c52dcb6fe24922b09d724e70d9b47978222e20fbf36d814", True),
    ("ADD", (3, 3)): (39440, "cf81869c3bbfae37d4d64c7316ba9544f7c97c776b6b131981cd1b9336b807f0", True),
}


@pytest.mark.parametrize("name, cell, value, permuting, rejected", [
    # NOR[700] = 3 -> 2 (past the embedded F_4): h = 2 gives 2x, a
    # permutation of F_1024; h = x gives x*nor(x), whose witness repeats a
    # value. 50 fiber counterexamples, 39390 of 39440 agreements
    ("NOR", 700, 2, [2, 0, 0], [0, 1, 0]),
    # MEXP[100] = 473 -> 472: h = 1 gives the identity; the witness of
    # h = x + 3 repeats a value. 22 fiber counterexamples, 39418 agreements
    ("MEXP", 100, 472, [1, 0, 0], [3, 1, 0]),
    # NOR[2] = 3 -> 1 breaks nor(x) = x^5 on the embedded F_4
    ("NOR", 2, 1, [2, 0, 0], [3, 1, 0]),
    # MEXP[0] = 1 -> 2 breaks the log-path product 1*1 = 1
    ("MEXP", 0, 2, [1, 0, 0], [0, 1, 0]),
    # base MUL[3, 0] = 0 -> 3: x -> x^5 no longer commutes with MUL either,
    # so the induced maps are checked on their own
    ("MUL", (3, 0), 3, [2, 0, 0], [3, 1, 0]),
    # base ADD[2, 3] = 1 -> 3 and ADD[3, 3] = 0 -> 2: the reuse checks never
    # read ADD, so every F_4 tower runs the witness prefix on the bad table.
    # Witness and lift read the same bad h values, so every fiber verdict
    # agrees; the first still shows as 17 witness/lift disagreements, the
    # second only in the tallies
    ("ADD", (2, 3), 3, None, None),
    ("ADD", (3, 3), 2, None, None),
])
def test_a_corrupted_table_still_shows(monkeypatch, name, cell, value, permuting, rejected):
    # the witness reuse, the witness prefix and the square table must not
    # hide a bad cell: corrupt one cell of the cached F_1024/F_4 tables or
    # of their base tables, and the report must be the one recorded above.
    # Where a case names two rows, its fiber verdict fails on a permuting
    # row and on a row that is never lifted in full, because its first q
    # lifted values (its witness) repeat. A bad cell in the embedded F_4 or
    # in the base MUL fails the tower's reuse checks, and then every row of
    # the tower is lifted in full
    fiber_agreements, digest, reused = _CORRUPTED_REPORTS[name, cell]
    tower = _f1024_over_f4()
    tt = tables.tower_tables(tower)
    bt = tables.base_tables(tower.base)
    if permuting is not None:
        lift = {tuple(h): grids._lift_rows(tt, bt.horner(np.array([h])), tt.NOR)
                for h in (permuting, rejected)}
        assert tables.bijective_rows(lift[tuple(permuting)])[0]
        head = np.sort(lift[tuple(rejected)][0, : tower.q])
        assert (np.diff(head) == 0).any()
    lifted = []
    real_cpp_rows = grids.cpp_rows

    def counting_cpp_rows(t, tabs):
        if t is tt:
            lifted.append(len(tabs))
        return real_cpp_rows(t, tabs)

    monkeypatch.setattr(grids, "cpp_rows", counting_cpp_rows)
    table = getattr(bt if name in ("ADD", "MUL") else tt, name)
    try:
        table[cell] = value
        rep = sweep_norm_lift(max_order=1024, random_h=20)
    finally:
        clear_caches()
    out = _report_json(rep)
    assert out["extras"]["fiber_agreements"] == fiber_agreements
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == digest
    if permuting is not None:
        bad = [c["h"] for c in rep.counterexamples
               if c.get("why") == "fiber verdict" and (c["q"], c["n"]) == (4, 5)]
        assert permuting in bad and rejected in bad
    rows = 4**3 - 1 + 20  # every nonzero h of degree <= 2, and 20 random h
    assert (sum(lifted) < rows) if reused else (sum(lifted) == rows)
