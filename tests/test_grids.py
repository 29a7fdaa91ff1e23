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
from cppforge import cli, fields, grids, maps, permcheck, tables
from cppforge import Poly, make_extension, make_prime_field, make_tower, rel_norm
from cppforge import trace_lift_binomial
from cppforge.errors import BadInput, PreconditionViolated
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


def test_norm_lift_sweep_small_scale(monkeypatch):
    monkeypatch.setattr(grids, "_RANDOM_H", 20)
    rep = sweep_norm_lift(max_order=256)
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


def test_an_accepted_inadmissible_alpha_is_a_counterexample(monkeypatch):
    # cor2.5 confirms that the builder rejects each inadmissible alpha: a
    # builder that accepted them would show one counterexample each, in
    # place of the 10 skips
    real = grids.cppeg_construct

    def accepting(e, t, k, alpha):
        try:
            return real(e, t, k, alpha)
        except PreconditionViolated:
            return None

    monkeypatch.setattr(grids, "cppeg_construct", accepting)
    rep = sweep_quadratic_monomials(max_order=256)
    assert (rep.cases, rep.agreements, rep.true_outcomes, rep.skipped) == (30, 20, 20, 0)
    assert len(rep.counterexamples) == 10
    assert all(c["why"] == "inadmissible alpha accepted" and set(c) == {"e", "t", "k", "alpha", "why"}
               for c in rep.counterexamples)


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
        memos = (fields.FieldDesc._sentinel_lists, fields._canonical_modulus, tables.base_tables,
                 tables.tower_tables, maps.trace_kernel, maps._permutes_kernel, grids._tower)
        return [sum(fn is m.__wrapped__ for fn, _ in fields._MEMO) for m in memos]

    first = reports()
    half_tables = fields._half_add_table.cache_info().currsize
    clear_caches()
    assert not any(sizes())
    # the (p, w) half tables outlive the clear, and every level shares them
    assert fields._half_add_table.cache_info().currsize == half_tables > 0
    assert reports() == first
    assert all(sizes())


def test_every_cleared_cache_is_bounded():
    # every value the package reuses sits in the one memo, whose summed
    # cells stay within _MEMO_CELLS; the only lru_caches left are unbounded
    # over finite domains: the (p, w) half tables and the one CLI parser
    sweep_trace_general(max_order=64)
    values = [value for name, module in sys.modules.items() if name.startswith("cppforge.")
              for value in vars(module).values()]
    memos = {v for v in values if hasattr(v, "misses")} | {fields.FieldDesc._sentinel_lists}
    assert {m.__name__ for m in memos} == {"_sentinel_lists", "_canonical_modulus", "base_tables",
                                           "tower_tables", "trace_kernel", "_permutes_kernel",
                                           "_lagrange_basis", "_tower"}
    assert {v for v in values if hasattr(v, "cache_clear")} == {fields._half_add_table,
                                                                cli._build_parser}
    assert {fn for fn, _ in fields._MEMO} <= {m.__wrapped__ for m in memos}
    assert sum(cost for _, cost in fields._MEMO.values()) <= fields._MEMO_CELLS
    clear_caches()
    assert not fields._MEMO and fields._MEMO.cells == 0


def test_seed_changes_random_draws_but_not_cleanliness(monkeypatch):
    monkeypatch.setattr(grids, "_RANDOM_H", 5)
    rep = sweep_norm_lift(max_order=64, seed=1)
    assert rep.clean
    other = sweep_norm_lift(max_order=64, seed=2)
    assert other.clean
    # same exhaustive portion, possibly different random tails; case counts
    # stay equal because the draw count per pair is fixed
    assert rep.cases == other.cases


def _report_json(rep):
    out = rep.to_json()
    del out["elapsed_seconds"]
    return out


def _random_h_row_by_row(q, count, rng):
    """The reference draw of grids._random_h_coeffs: two rng.integers calls
    a row, its coefficients and then its leading one."""
    out = np.zeros((count, q), dtype=np.int32)
    degs = rng.integers(0, q, size=count)
    for i, d in enumerate(degs):
        row = rng.integers(0, q, size=d + 1)
        row[d] = rng.integers(1, q)
        out[i, : d + 1] = row
    return out


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_output_after(rng, k):
    """Set rng's PCG64 state so that its k-th 64-bit output from now is 0,
    so that the k-th pair of 32-bit words is two zero words. PCG64 steps
    s -> s*mult + inc mod 2^128 and then outputs the high half of s xor its
    low half, rotated: a state whose halves are equal outputs 0, and k steps
    back from it are k steps of s -> (s - inc)*mult^-1."""
    inc = rng.bit_generator.state["state"]["inc"]
    state, inverse = (1 << 64) + 1, pow(_PCG64_MULT, -1, 1 << 128)
    for _ in range(k):
        state = (state - inc) * inverse % (1 << 128)
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


@pytest.mark.parametrize("q", sorted({p**r for p, r, _ in grids._norm_lift_shapes(65536)}))
def test_random_h_draw_is_the_row_by_row_draw(q):
    # the one-pass draw gives the rows of the row-by-row draw and leaves
    # the rng where it leaves it, on every base of the thm2.2 walk up to
    # 2^16. A zero word is rejected for every span that is not a power of
    # two (2^32 mod span > 0): placed at each output from the 1st to the
    # 30th, two zero words in a row land on the degrees, on the
    # coefficients or on the leading draws, and the one-pass draw must
    # drop each as numpy does
    def draws(seed, count, zero_at=None):
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        if zero_at is not None:
            _zero_output_after(ref, zero_at)
            _zero_output_after(fast, zero_at)
        want, got = _random_h_row_by_row(q, count, ref), grids._random_h_coeffs(q, count, fast)
        assert np.array_equal(got, want), (seed, count, zero_at)
        assert fast.bit_generator.state == ref.bit_generator.state, (seed, count, zero_at)

    for seed in (0, 1, 7, DEFAULT_SEED):
        for count in (0, 1, 5, 100):
            draws(seed, count)
    for zero_at in range(1, 31):
        draws(3, 10, zero_at)


_PCG64_INC = 313386238064130078450704156869577063669


@pytest.mark.parametrize("draw, values, state, buffered", [
    (lambda rng: [], [], 205277191500246388680700372192703885222, (0, 0)),
    (lambda rng: [int(rng.integers(1, 64)) for _ in range(4)], [41, 42, 22, 24],
     263993454261643283012091300572793366324, (0, 1586091810)),
    (lambda rng: rng.integers(0, 4096, size=6).tolist(), [2657, 2671, 1393, 1512, 130, 1951],
     255244448610716845575830902345592047097, (0, 2046775861)),
    (lambda rng: rng.integers(np.array([0, 1, 0, 1, 1, 0], dtype=np.int64), 7).tolist(),
     [4, 4, 2, 3, 1, 3], 255244448610716845575830902345592047097, (0, 2046775861)),
    (lambda rng: rng.choice(12, size=3, replace=False).tolist(), [4, 6, 7],
     255244448610716845575830902345592047097, (1, 2046775861)),
], ids=["seeding", "integers-scalar", "integers-size", "integers-array-low", "choice-no-replace"])
def test_numpy_stream_at_the_default_seed(draw, values, state, buffered):
    # every grid digest rests on numpy's default_rng stream, which numpy
    # does not promise to keep across feature releases. Each call form the
    # sweeps draw with, from a fresh rng at DEFAULT_SEED, must give these
    # values and leave this PCG64 state: a stream change fails here, under
    # the name of the form that moved, and not only as changed digests
    rng = np.random.default_rng(DEFAULT_SEED)
    assert draw(rng) == values
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64", "state": {"state": state, "inc": _PCG64_INC},
        "has_uint32": buffered[0], "uinteger": buffered[1]}


@pytest.mark.parametrize("token", list(REGISTRY))
def test_every_sweep_refuses_a_negative_max_order(token):
    # refused before the walk is listed: _grid_shapes would raise a bare
    # ValueError from math.isqrt, and cor2.5's walk would be empty
    with pytest.raises(BadInput, match="max_order"):
        REGISTRY[token](max_order=-1)


def test_no_random_h_gives_the_exhaustive_report(monkeypatch):
    # _RANDOM_H = 0 draws no row: the 635 exhaustive cases up to 64, as the
    # sweep reported them when it drew its random h row by row
    monkeypatch.setattr(grids, "_RANDOM_H", 0)
    rep = sweep_norm_lift(max_order=64)
    assert rep.clean and rep.cases == 635
    digest = hashlib.sha256(json.dumps(_report_json(rep), sort_keys=True).encode()).hexdigest()
    assert digest == "7b063e34361e28c1aa5c6b2198c254e9b9269bd1e245cf971e4c188069228e91"


def test_no_sweep_depends_on_the_default_cap(monkeypatch):
    # each sweep checks its lifts at the tower's own order, the proof
    # identity of thm3.3 and thm3.7 included: a default cap below the
    # towers changes no report. permcheck's cap is the only one: a sweep
    # that left a builder on the default would be refused at its gate
    want = {token: _report_json(sweep(max_order=64)) for token, sweep in REGISTRY.items()}
    monkeypatch.setattr(permcheck, "DEFAULT_EXHAUSTIVE_CAP", 16)
    for token, sweep in REGISTRY.items():
        assert _report_json(sweep(max_order=64)) == want[token], token


def test_a_walk_keeps_the_memo_within_its_budget(monkeypatch):
    # a budget below the entries of one F_64/F_8 tower: each sweep evicts
    # inside its towers and rebuilds what it needs again, the summed cells are within
    # the budget before every tower and after the walk, and no report changes
    want = {token: _report_json(sweep(max_order=64)) for token, sweep in REGISTRY.items()}
    monkeypatch.setattr(fields, "_MEMO", fields._Memo())
    monkeypatch.setattr(fields, "_MEMO_CELLS", 256)
    used = []
    real_tower = grids._tower

    def cells():
        total = sum(cost for _, cost in fields._MEMO.values())
        assert fields._MEMO.cells == total
        return total

    def tower(*shape):
        used.append(cells())
        return real_tower(*shape)

    monkeypatch.setattr(grids, "_tower", tower)
    for token, sweep in REGISTRY.items():
        assert _report_json(sweep(max_order=64)) == want[token], token
        used.append(cells())
    assert len(used) > 7 and 0 < max(used) <= 256


_HELD_SLOTS = """
import gc
from cppforge import REGISTRY, fields
fields._MEMO_CELLS = 1 << 14
REGISTRY["lemma3.4"](max_order=16384)
gc.collect()
lists = {id(x): len(x) for f in gc.get_objects() if isinstance(f, fields.FieldDesc)
         and f._log is not None for x in (f._exp, f._log)}
used = sum(cost for _, cost in fields._MEMO.values())
print(sum(lists.values()), used, fields._MEMO_CELLS)
"""


def test_the_exp_log_lists_held_after_a_walk_stay_bounded():
    # a level keeps its lists while an entry keeps it alive, and the entry
    # costs that level's order: after a walk of 85 towers up to 2^14, whose
    # levels' lists take 1.8M slots in all, the lists still held in a fresh
    # process take five slots per cell of the budget (mexp 4m + 1, lg
    # m + 1), plus the lists of a held tower's base
    import subprocess

    proc = subprocess.run([sys.executable, "-c", _HELD_SLOTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    slots, used, budget = map(int, proc.stdout.split())
    assert used <= budget and slots <= 6 * budget


def test_prefix_width_changes_no_verdict(monkeypatch):
    # the prefix only decides which rows of a whole-tower batch are built in
    # full: a repeat in it is a proof of non-permutation, so every width
    # gives the same reports, for thm2.2, thm3.2, cor2.3, cor2.5 and thm3.7
    # alike. Width 1 rejects nothing, so every row takes the full path; 64
    # and 256, the two widths the prefix has had, stay under test. On sound
    # tables thm2.2 decides its exhaustive h by scaling class and its random
    # h once per distinct row: of the 1415 rows whose witness permutes, by
    # the verdicts its walk yields, it lifts only the 179 permuting class
    # representatives and the 42 permuting distinct random h, 221 rows.
    # Their lifts permute, so every width builds exactly those in full.
    # Over the 20 towers, the 179 are 4 on each of the nine F_2 towers, 6
    # on each F_3 one, 4 on each F_4 one, 6 on F_5, 16 and 8 on the F_8
    # ones, 10 on F_9, 15 on F_16 and 64 on F_32; the 42 are 2 on each F_2
    # tower, 3, 3 over F_3, 2, 3, 3 over F_4, 1 over F_5, 1, 3 over F_8, 2
    # over F_9, 3 over F_16 and none over F_32. A batch budget
    # of 2^10 cells splits every batch, the square table's too, and changes
    # no report either. At thm3.7's default only that budget splits its h
    # grid: F_125/F_5's 124 rows walk in blocks of 8
    full_rows = {}
    witness_rows = {}
    verdict_rows = {}
    real_cpp_rows = grids.cpp_rows
    real_lift_blocks = grids._lift_blocks

    def counting_cpp_rows(t, tabs):
        perm, cpp = real_cpp_rows(t, tabs)
        if isinstance(t, tables.TowerTables):
            full_rows[width] += len(tabs)
        else:
            witness_rows[width] += int(perm.sum())
        return perm, cpp

    def counting_lift_blocks(*args, **kwargs):
        for block in real_lift_blocks(*args, **kwargs):
            # the sweep's own rows check the square's cells; the walk over
            # the class representatives has none
            if block[5] is not None:
                verdict_rows[width] += int(block[1].sum())
            yield block

    monkeypatch.setattr(grids, "cpp_rows", counting_cpp_rows)
    monkeypatch.setattr(grids, "_lift_blocks", counting_lift_blocks)
    reports = {}
    widths = (1, 2, 16, 64, 256)
    assert grids._PREFIX in widths
    budgets = (grids._ROW_CELLS, 1 << 10)
    monkeypatch.setattr(grids, "_RANDOM_H", 20)
    for cells in budgets:
        monkeypatch.setattr(grids, "_ROW_CELLS", cells)
        for width in widths:
            full_rows[width] = witness_rows[width] = verdict_rows[width] = 0
            monkeypatch.setattr(grids, "_PREFIX", width)
            norm = sweep_norm_lift(max_order=1024)
            assert verdict_rows[width] == 1415
            assert full_rows[width] == witness_rows[width] == 221
            reports[cells, width] = (_report_json(norm),
                                     _report_json(sweep_trace_simple(max_order=256)),
                                     _report_json(sweep_monomial_norm(max_order=1024)),
                                     _report_json(sweep_quadratic_monomials(max_order=4096)),
                                     _report_json(sweep_trace_binomial()))
    first = reports[budgets[0], 1]
    assert first[0]["extras"]["fiber_agreements"] == first[0]["cases"] == 39440
    assert all(r == first for r in reports.values())
    # a wider prefix rejects no fewer rows; 64 and 256 can reject the same
    assert full_rows[256] <= full_rows[64] < full_rows[16] < full_rows[2] < full_rows[1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
@pytest.mark.parametrize("degree", [1, 2])
def test_hgrid_rows_are_the_nonzero_codes_in_base_q(q, degree):
    m = degree + 1
    codes = np.arange(1, q**m, dtype=np.int32)[:, None]
    want = codes // q ** np.arange(m, dtype=np.int32) % q
    grid = grids.HGrid(q, degree)
    assert len(grid) == len(want)
    assert np.array_equal(grid[:], want) and grid[:].dtype == np.int32
    for step in (1, q - 1, q + 1, 2 * q - 1):
        blocks = [grid[lo : lo + step] for lo in range(0, len(grid), step)]
        assert np.array_equal(np.concatenate(blocks), want)
    for i in (0, len(grid) // 2, len(grid) - 1):
        assert np.array_equal(grid[i], want[i])
    for bad in (-1, len(grid)):
        with pytest.raises(IndexError):
            grid[bad]


@pytest.mark.parametrize("q", [3, 5, 9, 11, 23])
def test_hgrid_blocks_keep_only_the_given_c0(q):
    # thm3.2's grid keeps the rows whose c0 is neither 0 nor -1, in code
    # order; block bounds off the multiples of q split a top's run of c0 rows
    rows = grids.HGrid(q, 2)[:]
    for dropped in ({0, q - 1}, {1}, {0}):
        grid = grids.HGrid(q, 2, set(range(q)) - dropped)
        want = rows[~np.isin(rows[:, 0], list(dropped))]
        assert len(grid) == len(want)
        for step in (q - 1, q + 1, 2 * q + 3):
            blocks = [grid[lo : lo + step] for lo in range(0, len(grid), step)]
            assert np.array_equal(np.concatenate(blocks), want)


@pytest.mark.parametrize("q", [2, 3, 64])
def test_hgrid_refuses_a_strided_block(q):
    with pytest.raises(ValueError, match="stride 1"):
        grids.HGrid(q, 2)[0:10:2]


def test_hgrid_without_c0_is_empty():
    # thm3.2's grid over F_2: no c0 is outside {0, -1}, so it has no row,
    # and its one block has no row either
    grid = grids.HGrid(2, 2, set())
    assert len(grid) == 0
    block = grid[:]
    assert block.shape == (0, 3) and block.dtype == np.int32
    with pytest.raises(IndexError):
        grid[0]


@pytest.fixture(scope="module", params=[(2, 2, 3), (3, 1, 3), (5, 1, 2), (2, 3, 2)])
def tt(request):
    p, r, n = request.param
    return tables.tower_tables(make_tower(make_extension(make_prime_field(p), r), n))


def test_norm_square_table_matches_scalar_norm(tt):
    tw = tt.tower
    bt = tables.base_tables(tw.base)
    pow_n = bt.pow_all(tw.n)
    square = grids._norm_square(bt, tt, pow_n)
    assert square.shape == (tt.tower.order, tt.tower.q)
    for x in tw.elements():
        for c in tw.base.elements():
            want = rel_norm(x * tw.embed(c)) == rel_norm(x) * c**tw.n
            assert square[x.code, c.code] == want
    assert square.all()
    # built afresh from the tables it is asked on, so a bad cell shows
    bad = tables.TowerTables(tw)
    bad.NOR[1] = (bad.NOR[1] + 1) % tt.tower.q
    assert not grids._norm_square(bt, bad, pow_n)[1].all()


def _norm_route(bt, tt, pow_n, lift):
    """(bad_x, bad_c, sub_ok, pow_ok, classes): grids._norm_checks and the
    class route that its checks gate, called as sweep_norm_lift calls them."""
    bad_x, bad_c, sub_ok, pow_ok = grids._norm_checks(bt, tt, pow_n)
    return bad_x, bad_c, sub_ok, pow_ok, grids._norm_classes(bt, tt, pow_n, lift, bad_x,
                                                             sub_ok, pow_ok)


def test_norm_checks_read_the_base_tables_they_are_handed():
    # F_64/F_4 with MUL[3, 1] scrambled in a fresh copy of its base tables,
    # the memo's left sound: the square reads that cell wherever nor x = 3
    # and c^3 = 1, so it must fail there and only there, and no reuse pass
    tower = grids._tower(2, 2, 3)
    bt, tt = tables.BaseTables(tower.base), tables.tower_tables(tower)
    bt.MUL[3, 1] ^= 1
    pow_n = bt.pow_all(tower.n)
    lift = lambda hv, xs: grids._lift_rows(tt, hv, tt.NOR, xs)
    bad_x, bad_c, sub_ok, _, classes = _norm_route(bt, tt, pow_n, lift)
    want = np.argwhere((tt.NOR[:, None] == 3) & (pow_n[None, :] == 1))
    assert len(want) == 21 * 3  # nor x = 3 on 63/3 of F_64^*, c^3 = 1 on F_4^*
    assert np.array_equal(np.column_stack([bad_x, bad_c]), want)
    assert not sub_ok and classes is None
    assert tables.base_tables(tower.base).MUL[3, 1] == 3


def _one_cell_scrambled(tower, name):
    """Fresh tables of the tower and its base, with one cell of the table
    name scrambled (no cell for None), each where few checks of the class
    route's gate read it. Base MUL[q-1, q-1] and ADD[q-1, q-1] take
    another code: sub_ok reads all of MUL, and only the base check reads
    ADD. MEXP[s - 1], s = (order - 1)/(q - 1), takes another code of the
    same norm: the square reads it and sees no change, and neither sub_ok
    nor the additivity check reads it, so only the log/exp check sees it.
    LOG[order - 1] moves by q - 1, which keeps every norm; the log/exp and
    additivity checks see it. NOR[order - 1] takes another code, which only
    the square sees, and only where q > 2."""
    bt, tt = tables.BaseTables(tower.base), tables.TowerTables(tower)
    q, m = tower.q, tower.order - 1
    if name in ("MUL", "ADD"):
        table = getattr(bt, name)
        table[q - 1, q - 1] = (table[q - 1, q - 1] + 1) % q
    elif name == "MEXP":
        s = m // (q - 1)
        tt.MEXP[s - 1] = tt.MEXP[s - 1 + q - 1]
    elif name == "LOG":
        tt.LOG[m] = (tt.LOG[m] + q - 1) % m
    elif name == "NOR":
        tt.NOR[m] = (tt.NOR[m] + 1) % q
    return bt, tt


@pytest.mark.parametrize("name", [None, "MUL", "ADD", "MEXP", "LOG", "NOR"])
def test_thm22_classes_give_the_per_row_verdicts(name):
    # thm2.2 decides its exhaustive h once per scaling class only where
    # every check of the class route's gate passes. On every thm2.2 tower up to 1024,
    # on fresh tables, sound or with one cell scrambled, each row must get
    # from its class the four verdicts (witness and lift, permutation and
    # CPP) that the walk gives it row by row. The route must be taken on
    # every sound tower, so that a fallback taken by mistake fails here, and
    # refused on every scrambled one; only on F_2, where every class is one
    # row, does a scrambled NOR cell pass, and there it changes no verdict
    taken = []
    for shape in grids._norm_lift_shapes(1024):
        tower = grids._tower(*shape)
        bt, tt = _one_cell_scrambled(tower, name)
        pow_n = bt.pow_all(tower.n)
        lift = lambda hv, xs: grids._lift_rows(tt, hv, tt.NOR, xs)
        _, _, sub_ok, _, classes = _norm_route(bt, tt, pow_n, lift)
        if classes is not None:
            h = grids.HGrid(tower.q, 2)
            by_row, by_class = (np.hstack([block[1:5] for block in grids._lift_blocks(
                bt, tt, h, lift, pow_n, None, sub_ok, None, route)]) for route in (None, classes))
            assert by_row.shape == (4, len(h))
            assert np.array_equal(by_class, by_row), (tower.q, tower.n)
            taken.append((tower.q, tower.n))
    every = [(p**r, n) for p, r, n in grids._norm_lift_shapes(1024)]
    want = {None: every, "NOR": [(q, n) for q, n in every if q == 2]}
    assert taken == want.get(name, [])


@pytest.mark.parametrize("shape, refused", [
    ((2, 1, 4), False), ((3, 1, 3), True), ((2, 3, 2), True), ((2, 2, 5), True),
], ids=["F16/F2", "F27/F3", "F64/F8", "F1024/F4"])
def test_scales_refuses_a_relabeled_tower(shape, refused):
    # relabel the codes from q on by a seeded permutation pi, consistently
    # in MEXP, LOG and NOR: MEXP'[i] = pi(MEXP[i]), LOG'[pi(x)] = LOG[x] and
    # NOR'[pi(x)] = NOR[x]. That is still a sentinel log/exp pair whose
    # codes below q are F_q^*, with the same square table and reuse checks,
    # so only the additivity check of _scales can see that its product no
    # longer fits the digitwise addition. Over F_2, g = 1 and a product by
    # a power of g is the identity, which is additive on any labels
    tower = grids._tower(*shape)
    bt, tt = tables.base_tables(tower.base), tables.TowerTables(tower)
    q, order = tower.q, tower.order
    assert grids._scales(bt, tt)
    pi = np.r_[np.arange(q), q + np.random.default_rng(1).permutation(order - q)]
    lg, nor = tt.LOG.copy(), tt.NOR.copy()
    tt.MEXP[:] = pi[tt.MEXP]
    tt.LOG[pi], tt.NOR[pi] = lg, nor
    assert (tt.MEXP[tt.LOG[1:]] == np.arange(1, order)).all()
    assert (tt.LOG[:q] == lg[:q]).all() and (tt.NOR[:q] == nor[:q]).all()
    pow_n = bt.pow_all(tower.n)
    lift = lambda hv, xs: grids._lift_rows(tt, hv, tt.NOR, xs)
    bad_x, _, sub_ok, pow_ok, classes = _norm_route(bt, tt, pow_n, lift)
    assert sub_ok and pow_ok and len(bad_x) == 0
    assert grids._scales(bt, tt) is not refused
    assert (classes is None) is refused


def test_thm22_memory_peak_with_warm_tables():
    # the exhaustive h rows are built one block at a time: F_4096/F_64's
    # 262143 rows never sit in memory at once
    import tracemalloc

    for shape in grids._norm_lift_shapes(4096):
        tables.base_tables(grids._tower(*shape).base)
        tables.tower_tables(grids._tower(*shape))
    tracemalloc.start()
    try:
        rep = sweep_norm_lift()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cases == 305888
    assert peak < 7 * 2**20, peak


def test_thm32_memory_peak_with_warm_tables():
    # the spread prefix leaves few rows of each witness block to lift in
    # full, in blocks of _ROW_CELLS cells: a block's 2048 x 1024 lifted
    # cells never sit in memory at once
    import tracemalloc

    for shape in grids._grid_shapes(sweep_trace_simple.default_max_order):
        tables.base_tables(grids._tower(*shape).base)
        tables.tower_tables(grids._tower(*shape))
    tracemalloc.start()
    try:
        rep = sweep_trace_simple()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cases == 144799
    assert peak < 8 * 2**20, peak


def test_cor25_memory_peak_with_warm_tables():
    # cor2.5 checks each (e, t, k)'s admissible alpha as one batch through
    # the spread prefix: no q x order block of rows is ever built whole
    import tracemalloc

    for shape in grids._quadratic_shapes(sweep_quadratic_monomials.default_max_order):
        tables.tower_tables(grids._tower(*shape))
    tracemalloc.start()
    try:
        rep = sweep_quadratic_monomials()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.cases, rep.skipped) == (296, 112)
    assert peak < 6 * 2**20, peak


def _binomial_ks(p, r, n):
    """The k that thm3.7 sweeps on the tower of shape (p, r, n) (none when p
    divides n)."""
    return [k for k in range(1, r * n) if n % p
            and math.gcd(k, n) == 1 and math.gcd(n, p ** math.gcd(k, r) - 1) == 1]


def _per_row_binomial_lift(tt, bt, k, a, hv):
    """thm3.7's lifts of the rows of h values hv and their proof identities,
    built row by row: x*(h(tr x) + a*(A(tr x) - A(x))) at every x, and
    tr(lift(x)) == tr(x)*h(tr x) by a 2-D index of the base MUL."""
    tower = tt.tower
    avec = tt.pow_all(tower.p**k - 1)
    adiff = tt.add(avec[tt.TR], tt.scale_row(tower.base._cneg(1))[avec])
    htr = hv[:, tt.TR]
    lifted = tt.mul(tt.add(htr, tt.scale_row(a)[adiff][None, :]), np.arange(tower.order)[None, :])
    return lifted, (tt.TR[lifted] == bt.MUL[tt.TR[None, :], htr]).all(axis=1)


@pytest.mark.parametrize("name, cell", [(None, None), ("MEXP", 100), ("LOG", 9), ("TR", 5)])
def test_binomial_lift_table_is_the_per_row_lift(name, cell):
    # no report can pin the table: a corrupted cell trips thm3.7's scalar
    # replay. So on F_64/F_4, for both admissible k and every a, each row of
    # the exhaustive h grid must get from the table the lift and the proof
    # identity that it gets row by row, on sound tables and on a fresh
    # TowerTables (the memo's stays sound) with one cell scrambled
    tower = next(t for t in tower_grid(64) if (t.q, t.n) == (4, 3))
    q, order = tower.q, tower.order
    bt = tables.base_tables(tower.base)
    tt = tables.TowerTables(tower)
    if name is not None:
        table = getattr(tt, name)
        table[cell] = (table[cell] + 1) % (q if name == "TR" else order - 1)
    hv = bt.horner(grids.HGrid(q, 2)[:])
    assert _binomial_ks(2, 2, 3) == [1, 5]
    failures = 0
    for k in (1, 5):
        for a in range(1, q):
            lift, bad_x, bad_c = grids._binomial_lift_table(tt, bt, k, a)
            lifted, ident = _per_row_binomial_lift(tt, bt, k, a, hv)
            assert np.array_equal(lift(hv, np.arange(order)), lifted)
            assert np.array_equal((hv[:, tt.TR[bad_x]] != bad_c).all(axis=1), ident)
            failures += int((~ident).sum())
    assert (failures == 0) == (name is None)
    if name is None:
        for i, k, a in ((0, 1, 1), (17, 5, 2), (62, 1, 3)):
            h = grids.HGrid(q, 2)[i]
            res = trace_lift_binomial(Poly(tower.base, [int(c) for c in h]), k, a, tower)
            lift = grids._binomial_lift_table(tt, bt, k, a)[0]
            assert res.map_table() == lift(hv[i : i + 1], np.arange(order))[0].tolist()


def test_binomial_lift_tables_fit_one_row_block():
    # thm3.7 builds its order x q table unblocked: every tower up to the
    # bulk cap that has an admissible k keeps it within _ROW_CELLS cells
    shapes = [s for s in grids._grid_shapes(tables.BULK_TOWER_CAP) if _binomial_ks(*s)]
    assert (2, 5, 3) in shapes
    assert max(p ** (r * n) * p**r for p, r, n in shapes) <= grids._ROW_CELLS


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
    # the tower is handed to the lift verdict
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
    real_lift_verdicts = grids._lift_verdicts

    def counting_lift_verdicts(t, rows, count):
        if t is tt:
            lifted.append(count)
        return real_lift_verdicts(t, rows, count)

    monkeypatch.setattr(grids, "_lift_verdicts", counting_lift_verdicts)
    monkeypatch.setattr(grids, "_RANDOM_H", 20)
    table = getattr(bt if name in ("ADD", "MUL") else tt, name)
    try:
        table[cell] = value
        rep = sweep_norm_lift(max_order=1024)
    finally:
        clear_caches()
    out = _report_json(rep)
    assert out["extras"]["fiber_agreements"] == fiber_agreements
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == digest
    if permuting is not None:
        bad = [c["h"] for c in rep.counterexamples
               if c.get("why") == "fiber verdict" and (c["q"], c["n"]) == (4, 5)]
        assert permuting in bad and rejected in bad
    # every nonzero h of degree <= 2, and the 20 random h of F_1024/F_4,
    # which hold 16 distinct rows: each is decided once
    rows = 4**3 - 1 + 16
    assert (sum(lifted) < rows) if reused else (sum(lifted) == rows)


@pytest.mark.parametrize("token, name, shape, cell, value, tally, first, digest", [
    # base MUL[1, 0] = 0 -> 1 of F_5: a witness with h(0) = 1 sends 0 to 1,
    # so that of h = 1 repeats a value, while its lift, read off the
    # tower's own tables, is still x
    ("thm3.2", "MUL", (5, 2), (1, 0), 1, (785, 786, 1),
     {"q": 5, "n": 2, "h": [1, 0, 0]},
     "8982a9b5214669fa04941ede6c010f6c0bea62ba6e4f56858d48d40b76b92ee4"),
    # base MUL[3, 1] = 3 -> 1 of F_4: on F_64/F_4, 96 of the (k, a, h)
    # cases fail their proof identity, and every counterexample names its
    # (k, a)
    ("thm3.7", "MUL", (4, 2), (3, 1), 1, (318, 420, 102),
     {"q": 4, "n": 3, "k": 1, "a": 1, "h": [1, 0, 0]},
     "27fc33ce2a08551026d25796a3d33b68caf00b5d3d7a3005640354683b3f9a64"),
    # TR[1] = 0 -> 1 of F_16/F_4: an image that holds the code 1 now reads
    # as leaving the kernel, for k = 1 and k = 3 with c = 0 and c = 1
    ("lemma3.4", "TR", (4, 2), 1, 1, (54, 58, 4),
     {"q": 4, "n": 2, "k": 1, "c": 0, "why": "image escaped the kernel"},
     "2f92c573338c7aedd7883bdd4c59960da1cab35ae3094889e35e394367cb68a2"),
], ids=["thm3.2", "thm3.7", "lemma3.4"])
def test_a_corrupted_table_shows_in_the_trace_sweeps(token, name, shape, cell, value, tally,
                                                     first, digest):
    # the trace sweeps' shortcuts must not hide a bad cell either: corrupt
    # one cell of the cached tables of a tower (TR) or of its base (MUL) at
    # max_order 64, and the report must be the one the sweep gave before
    # thm3.2 and thm3.7 shared the lift walk
    tower = next(t for t in tower_grid(64) if (t.q, t.n) == shape)
    tabs = tables.base_tables(tower.base) if name == "MUL" else tables.tower_tables(tower)
    try:
        getattr(tabs, name)[cell] = value
        rep = REGISTRY[token](max_order=64)
    finally:
        clear_caches()
    out = _report_json(rep)
    assert (out["agreements"], out["cases"], len(out["counterexamples"])) == tally
    assert out["counterexamples"][0] == first
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == digest
