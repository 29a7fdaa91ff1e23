"""Bulk table layer against the scalar arithmetic it accelerates.

The numpy tables are a speed path, not an independent source of truth:
their MEXP/LOG are the scalar exp/log lists of FieldDesc.log_tables. Every
public entry point is pinned to the scalar ops on FieldDesc/TowerDesc,
exhaustively on small fields and on seeded samples where a full cross
product would be slow; test_fields.py pins the scalar log tables to the
convolution that defines them.
"""

import tracemalloc

import numpy as np
import pytest

from cppforge import (
    Poly,
    TowerDesc,
    is_complete_permutation,
    make_extension,
    make_prime_field,
    make_tower,
    rel_norm,
    rel_trace,
    table_is_cpp,
    table_verdict,
    value_table,
)
from cppforge import fields
from cppforge.errors import OrderCapExceeded
from cppforge.grids import tower_grid
from cppforge.maps import trace_kernel
from cppforge.tables import (
    BULK_TOWER_CAP,
    TowerTables,
    base_tables,
    bijective_rows,
    cpp_rows,
    tower_tables,
)
from table_invariants import norm_multiplicative, trace_additive


@pytest.fixture(scope="module", params=[(2, 3), (3, 2), (5, 1), (2, 4)])
def bt(request):
    p, r = request.param
    return base_tables(make_extension(make_prime_field(p), r))


def test_base_tables_match_scalar_ops(bt):
    f = bt.field
    q = f.order
    for a in range(q):
        for b in range(q):
            assert bt.ADD[a, b] == f._cadd(a, b)
            assert bt.MUL[a, b] == f._cmul(a, b)


def test_base_pow_all_matches_scalar(bt):
    f = bt.field
    for e in (0, 1, 2, 5, f.order):
        pa = bt.pow_all(e)
        for a in range(f.order):
            assert pa[a] == f._cpow(a, e), (f.descriptor(), e, a)


def test_base_horner_matches_eval(bt):
    f = bt.field
    rng = np.random.default_rng(7)
    coeffs = rng.integers(0, f.order, size=(6, 4)).astype(np.int32)
    vals = bt.horner(coeffs)
    assert vals.shape == (6, f.order)
    for row, codes in zip(vals, coeffs.tolist()):
        for x in range(f.order):
            want = 0
            for c in reversed(codes):
                want = f._cadd(f._cmul(want, x), c)
            assert row[x] == want


def test_base_bijection_and_cpp_status(bt):
    f = bt.field
    q = f.order
    ident = np.arange(q, dtype=np.int32)[None, :]
    assert bijective_rows(ident)[0]
    assert not bijective_rows(np.zeros((1, q), dtype=np.int32))[0]
    perm, cpp = cpp_rows(bt, ident)
    assert perm[0]
    # x + x = 2x: bijective iff the characteristic is odd
    assert cpp[0] == (f.p != 2)


def test_base_horner_of_constants_is_a_fresh_array(bt):
    # the start row is the top coefficient; it must not leak a read-only
    # broadcast view when there is no lower coefficient to fold in
    consts = np.array([[0], [1], [bt.q - 1]], dtype=np.int32)
    vals = bt.horner(consts)
    assert vals.shape == (3, bt.q) and vals.dtype == np.int32
    assert vals.flags.writeable and vals.flags.c_contiguous
    assert np.array_equal(vals, np.broadcast_to(consts, (3, bt.q)))


# the kernels look tables up through one flat index, so an out-of-range code
# would land silently in a neighbouring row; each input is range-checked

@pytest.mark.parametrize("tabs", [
    [[0, 1, 2, 4], [1, 2, 3, 3]],  # unchecked, 4 marks cell 0 of row 1
    [[0, 1, 2, 2], [-1, 0, 1, 2]],  # unchecked, -1 marks cell 3 of row 0
])
def test_bijective_rows_refuses_out_of_range_values(tabs):
    # either spill would make the other row look bijective
    with pytest.raises(IndexError):
        bijective_rows(np.array(tabs, dtype=np.int32))


@pytest.mark.parametrize("coeffs", [[1, 0], [0, 1, 0]])
def test_base_horner_refuses_out_of_range_coefficients(bt, coeffs):
    for bad in (bt.q, -1):
        # one coefficient is bad; unchecked, it would index the next row
        row = [bad if c else 0 for c in coeffs]
        with pytest.raises(IndexError):
            bt.horner(np.array([row], dtype=np.int32))


def test_base_shifted_maps_refuse_out_of_range_codes(bt):
    tab = np.zeros((2, bt.q), dtype=np.int32)
    for bad in (bt.q, -1):
        tab[1, 1] = bad
        with pytest.raises(IndexError):
            bt.add_to_x(tab)
        with pytest.raises(IndexError):
            bt.mul_by_x(tab)
    # a column x = q has no place in a row: unchecked, 0*q + q reads row 1
    wide = np.zeros((2, bt.q + 1), dtype=np.int32)
    with pytest.raises(IndexError):
        bt.add_to_x(wide)
    with pytest.raises(IndexError):
        bt.mul_by_x(wide)


@pytest.fixture(scope="module", params=[(2, 2), (3, 2), (2, 6)], ids=["F4", "F9", "F64"])
def bt_small(request):
    p, r = request.param
    return base_tables(make_extension(make_prime_field(p), r))


def test_base_horner_at_points_matches_the_full_columns(bt_small):
    q = bt_small.q
    rng = np.random.default_rng(11)
    coeffs = rng.integers(0, q, size=(5, 4)).astype(np.int32)
    full = bt_small.horner(coeffs)
    point_sets = [
        np.arange(q), rng.permutation(q), rng.integers(0, q, size=2 * q),  # repeats
        bt_small.pow_all(2)[: min(32, q)], np.array([q - 1, 0]), np.zeros(0, dtype=np.int32),
    ]
    for points in point_sets:
        got = bt_small.horner(coeffs, points)
        assert got.shape == (5, len(points)) and got.dtype == np.int32
        assert np.array_equal(got, full[:, points])


def test_base_horner_refuses_out_of_range_points(bt_small):
    q = bt_small.q
    # the top coefficient is 1, so unchecked, q would read MUL[2, 0] and
    # -1 would read MUL[0, q-1]: each a code of another row of the table
    coeffs = np.array([[0, 1], [1, 1]], dtype=np.int32)
    for bad in (q, -1):
        with pytest.raises(IndexError):
            bt_small.horner(coeffs, np.array([0, bad], dtype=np.int32))


def test_base_mul_by_x_matches_scalar(bt):
    f = bt.field
    tabs = np.random.default_rng(23).integers(0, f.order, size=(3, f.order), dtype=np.int32)
    got = bt.mul_by_x(tabs)
    for i in range(3):
        for x in range(f.order):
            assert got[i, x] == f._cmul(int(tabs[i, x]), x)
    # a table of the first k columns gives the map's first k columns
    for width in (1, f.order // 2):
        assert np.array_equal(bt.mul_by_x(tabs[:, :width]), got[:, :width])


@pytest.fixture(scope="module", params=[(2, 2, 3), (3, 1, 3), (5, 1, 2), (2, 3, 2)])
def tt(request):
    p, r, n = request.param
    return tower_tables(make_tower(make_extension(make_prime_field(p), r), n))


def test_tower_exp_log_are_inverse(tt):
    m = tt.tower.order - 1
    assert np.array_equal(np.sort(tt.MEXP[:m]), np.arange(1, tt.tower.order))
    for x in range(1, tt.tower.order):
        assert tt.MEXP[tt.LOG[x]] == x
    # the zero sentinel sits beyond every reachable product log
    assert tt.LOG[0] == 2 * m


def test_tower_mul_matches_scalar_exhaustive(tt):
    tw = tt.tower
    xs = np.arange(tt.tower.order, dtype=np.int64)
    prods = tt.mul(xs[:, None], xs[None, :])
    for a in range(tt.tower.order):
        for b in range(tt.tower.order):
            assert prods[a, b] == tw._cmul(a, b)


def test_tower_add_matches_scalar_sampled(tt):
    tw = tt.tower
    rng = np.random.default_rng(11)
    a = rng.integers(0, tt.tower.order, size=300)
    b = rng.integers(0, tt.tower.order, size=300)
    got = tt.add(a, b)
    for i in range(300):
        assert got[i] == tw._cadd(int(a[i]), int(b[i]))


def test_tower_pow_map_matches_scalar(tt):
    tw = tt.tower
    xs = np.arange(tt.tower.order, dtype=np.int64)
    for e in (1, 2, tt.tower.p, tt.tower.order - 1):
        pm = tt.pow_map(xs, e)
        for a in range(tt.tower.order):
            assert pm[a] == tw._cpow(a, e)


def test_tower_scale_row_is_mul_by_embedded_base(tt):
    tw = tt.tower
    for b in range(tt.tower.q):
        row = tt.scale_row(b)
        for x in (0, 1, tt.tower.order // 2, tt.tower.order - 1):
            assert row[x] == tw._cmul(b, x)


def test_tower_trace_norm_kernel_match_scalar(tt):
    tw = tt.tower
    for x in tw.elements():
        assert tt.TR[x.code] == rel_trace(x).code
        assert tt.NOR[x.code] == rel_norm(x).code
    kernel_codes = [e.code for e in trace_kernel(tw)]
    assert list(tt.KERNEL) == kernel_codes


def test_tower_structural_checks_hold(tt):
    assert trace_additive(tt)
    assert norm_multiplicative(tt)


def test_norm_square_table_matches_scalar_norm(tt):
    tw = tt.tower
    square = tt.norm_square_table()
    assert square.shape == (tt.tower.order, tt.tower.q)
    for x in tw.elements():
        for c in tw.base.elements():
            want = rel_norm(x * tw.embed(c)) == rel_norm(x) * c**tw.n
            assert square[x.code, c.code] == want
    assert square.all()
    # built afresh from the tables it is asked on, so a bad cell shows
    bad = TowerTables(tw)
    bad.NOR[1] = (bad.NOR[1] + 1) % tt.tower.q
    assert not bad.norm_square_table()[1].all()


def test_tower_add_to_x_and_cpp_status(tt):
    xs = np.arange(tt.tower.order, dtype=np.int32)
    assert np.array_equal(tt.add_to_x(np.zeros(tt.tower.order, dtype=np.int32)), xs)
    tabs = np.random.default_rng(13).integers(0, tt.tower.order, size=(3, tt.tower.order), dtype=np.int32)
    shifted = tt.add_to_x(tabs)
    for i, x in np.random.default_rng(17).integers(0, [3, tt.tower.order], size=(200, 2)):
        assert shifted[i, x] == tt.tower._cadd(int(tabs[i, x]), int(x))
    perm, cpp = cpp_rows(tt, xs[None, :])
    assert perm[0] and cpp[0] == (tt.tower.p != 2)
    # scaling by a generator g is a bijection; complete exactly when g != -1
    g = tt.tower.multiplicative_generator().code
    tab = tt.mul(np.full(tt.tower.order, g, dtype=np.int64), xs.astype(np.int64))
    perm, cpp = cpp_rows(tt, tab.astype(np.int32)[None, :])
    assert perm[0]
    assert cpp[0] == (tt.tower._cadd(g, 1) != 0)


def _homes_up_to_256():
    """Every tower of tower_grid(256) and every base field under one, once."""
    out = {}
    for tw in tower_grid(256):
        out.setdefault(tw.base.descriptor(), tw.base)
        out[tw.descriptor()] = tw
    return [pytest.param(home, id=repr(home)) for home in out.values()]


@pytest.mark.parametrize("home", _homes_up_to_256())
def test_cpp_rows_match_the_scalar_route_row_by_row(home):
    tabs = tower_tables(home) if isinstance(home, TowerDesc) else base_tables(home)
    order = home.order
    rng = np.random.default_rng(order * 31 + home.p)
    minus_one = home._cneg(1)
    gs = sorted({1, minus_one, *(int(g) for g in rng.integers(1, order, size=6))})
    scaled = [Poly(home, [0, g]) for g in gs]  # g*x: a CPP exactly when g != -1
    polys = [Poly(home, [int(c) for c in rng.integers(0, order, size=4)]) for _ in range(4)]
    batch = np.concatenate([
        rng.integers(0, order, size=(6, order)),
        np.stack([rng.permutation(order) for _ in range(6)]),
        np.array([value_table(f) for f in scaled + polys]),
    ]).astype(np.int32)
    perm, cpp = cpp_rows(tabs, batch)
    assert np.array_equal(perm, bijective_rows(batch))
    for i, row in enumerate(batch.tolist()):
        assert perm[i] == table_verdict(order, row).is_permutation, (home, i)
        assert cpp[i] == table_is_cpp(home, row), (home, i)
    for i, g in enumerate(gs, start=12):
        assert perm[i] and cpp[i] == (g != minus_one), (home, g)
    for i, f in enumerate(scaled + polys, start=12):
        assert table_is_cpp(home, batch[i].tolist()) == is_complete_permutation(f).both


def test_odd_add_to_x_memory_is_bounded():
    # a full order x order addition table would be 3125^2 * 4 B = 39 MB here
    # (and ~13.9 GB for the 3^10 towers that BULK_TOWER_CAP admits)
    tw = make_tower(make_prime_field(5), 5)
    tabs = np.arange(8 * tw.order, dtype=np.int32).reshape(8, -1) % tw.order
    # the addition table is built with the TowerTables, so the window
    # covers the construction as well as the add_to_x call
    tracemalloc.start()
    try:
        tt = TowerTables(tw)
        out = tt.add_to_x(tabs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    for i, x in np.random.default_rng(19).integers(0, [8, tt.tower.order], size=(200, 2)):
        assert out[i, x] == tw._cadd(int(tabs[i, x]), int(x))


def _odd_p_towers():
    """Every odd-p tower of tower_grid(729), and F_4913/F_17 and F_16807/F_7:
    the first shapes whose half-table entries pass 255 (lo = 289 and 343)."""
    towers = [tw for tw in tower_grid(729) if tw.p != 2]
    towers += [make_tower(make_prime_field(17), 3), make_tower(make_prime_field(7), 5)]
    return [pytest.param(tw, id=repr(tw)) for tw in towers]


@pytest.mark.parametrize("tower", _odd_p_towers())
def test_odd_tower_add_is_the_digit_loop_on_seeded_pairs(tower):
    tt, p, order = tower_tables(tower), tower.p, tower.order
    rng = np.random.default_rng(order)
    a, b = rng.integers(0, order, size=(2, 2000), dtype=np.int32)
    total = tt.add(a, b)
    want = [fields._digit_add(p, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert total.tolist() == want
    # a sum goes on into index arithmetic, as into a second addition here
    again = [fields._digit_add(p, x, y) for x, y in zip(want, b.tolist())]
    assert tt.add(total, b).tolist() == again
    tabs = rng.integers(0, order, size=(2, order), dtype=np.int32)
    assert tt.add_to_x(tabs).tolist() == [[fields._digit_add(p, v, x) for x, v in enumerate(row)]
                                          for row in tabs.tolist()]


def test_odd_tower_tables_read_the_scalar_half_table_in_place():
    # F_243/F_3 and F_729/F_9 share the shape (p, w) = (3, 3); F_4913/F_17
    # has (17, 2) and F_50653/F_37 (37, 2), the largest table
    f3 = make_prime_field(3)
    for towers in ([make_tower(f3, 5), make_tower(make_extension(f3, 2), 3)],
                   [make_tower(make_prime_field(17), 3)], [make_tower(make_prime_field(37), 3)]):
        w = (towers[0].full_degree + 1) // 2
        shared = fields._half_add_table(towers[0].p, w)
        # fresh towers, built apart from the tower_tables cache
        halves = [TowerTables(tw)._half_add for tw in towers]
        for tw, half in zip(towers, halves):
            assert tw._add_tab is shared, tw
            assert np.shares_memory(half, np.frombuffer(shared, dtype=np.uint16)), tw
            assert not half.flags.writeable, tw
        assert all(np.shares_memory(halves[0], half) for half in halves)


def test_a_degree_one_odd_tower_adds_through_the_p_by_p_half_table():
    # F_7/F_7 has full degree 1: its tables read the shared (7, 1) table
    tw = make_tower(make_prime_field(7), 1)
    tt = TowerTables(tw)
    assert tw._add_tab is fields._half_add_table(7, 1)
    a, b = np.meshgrid(np.arange(7), np.arange(7))
    assert tt.add(a, b).tolist() == [[tw._cadd(x, y) for x in range(7)] for y in range(7)]


def test_zero_operand_products_are_zero(tt):
    zs = np.zeros(tt.tower.order, dtype=np.int64)
    xs = np.arange(tt.tower.order, dtype=np.int64)
    assert not tt.mul(zs, xs).any()
    assert not tt.mul(xs, zs).any()
    assert not tt.mul(zs, zs).any()


def test_bulk_cap_refuses_huge_towers():
    big = make_tower(make_extension(make_prime_field(2), 9), 2)
    assert big.order == 2**18 > BULK_TOWER_CAP
    with pytest.raises(OrderCapExceeded):
        tower_tables(big)


def test_table_caches_return_same_object():
    f = make_extension(make_prime_field(3), 2)
    assert base_tables(f) is base_tables(make_extension(make_prime_field(3), 2))
    tw = make_tower(f, 2)
    assert tower_tables(tw) is tower_tables(make_tower(f, 2))
    # the caches key on field equality, so equal towers built apart share
    other = make_tower(make_extension(make_prime_field(3), 2), 2)
    assert other is not tw and other == tw
    assert tower_tables(other) is tower_tables(tw)
    assert trace_kernel(other) is trace_kernel(tw)


def test_tower_tables_build_no_base_tables(monkeypatch):
    # only norm_square_table reads the base tables, so only it builds them
    monkeypatch.setattr(fields, "_MEMO", fields._Memo())
    f9 = make_extension(make_prime_field(3), 2)
    for tw in (make_tower(f9, 2), make_tower(make_prime_field(2), 4)):
        built, misses = tower_tables.misses, base_tables.misses
        tt = tower_tables(tw)
        assert (tower_tables.misses, base_tables.misses) == (built + 1, misses), tw
        assert tt.norm_square_table().all()
        assert base_tables.misses == misses + 1, tw


def test_tower_tables_cache_stays_at_its_bound(monkeypatch):
    # F_13 has 78 monic irreducible quadratics, each a distinct tower; a
    # budget of 64 towers' cells cannot hold all 78 tables with their lists
    monkeypatch.setattr(fields, "_MEMO", fields._Memo())
    monkeypatch.setattr(fields, "_MEMO_CELLS", 64 * 169)
    f13 = make_prime_field(13)
    towers = []
    for b in range(13):
        for c in range(13):
            if all((x * x + b * x + c) % 13 for x in range(13)):
                towers.append(make_tower(f13, 2, [c, b, 1]))
    assert len(set(towers)) == 78
    for tw in towers:
        assert tower_tables(tw).tower == tw
        assert sum(cost for _, cost in fields._MEMO.values()) <= fields._MEMO_CELLS
    # the most recent towers' tables are held, in the order they were built
    held = [args[0] for fn, args in fields._MEMO if fn is tower_tables.__wrapped__]
    assert 0 < len(held) < 78 and held == towers[-len(held):]
