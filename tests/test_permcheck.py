"""Permutation / complete-permutation verdicts and the fiber criterion."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cppforge import (
    Poly,
    fiber_criterion_verify,
    is_complete_permutation,
    is_permutation,
    make_extension,
    make_prime_field,
    make_tower,
    rel_norm,
    value_table,
)
from cppforge.errors import BadTableLength, FieldMismatch, OrderCapExceeded, OutOfRange
from cppforge.fields import _digit_add
from cppforge.permcheck import PermVerdict, eval_poly, table_is_cpp, table_verdict


def test_value_table_matches_pointwise_eval():
    f = make_extension(make_prime_field(3), 2)
    h = Poly(f, [2, 0, 5, 1])
    tab = value_table(h)
    for x in f.elements():
        assert tab[x.code] == eval_poly(h, x).code


def test_table_verdict_identity_and_constant():
    v = table_verdict(4, [0, 1, 2, 3])
    assert v.is_permutation and v.witness is None
    v = table_verdict(4, [0, 0, 0, 0])
    assert not v.is_permutation and v.witness == (0, 1)
    with pytest.raises(BadTableLength):
        table_verdict(4, [0, 1, 2])


def test_table_verdict_witness_is_lex_least():
    # collisions (1,3) on value 5 and (0,2) on value 7: the reported witness
    # must be the lex-least pair overall, not the first one encountered
    v = table_verdict(4, [7, 5, 7, 5])
    assert v.witness == (0, 2)


def _reference_verdict(order, table):
    """The dict scan table_verdict ran before it counted: each value's first
    preimage, and the least (first, second) pair over the collided values."""
    if len(table) != order:
        raise BadTableLength(len(table), order)
    first = {}
    best = None
    collided = set()
    for x, v in enumerate(table):
        if v in first:
            if v not in collided:
                collided.add(v)
                pair = (first[v], x)
                if best is None or pair < best:
                    best = pair
        else:
            first[v] = x
    return PermVerdict(best is None, best)


def _seeded_tables(order, rng):
    perm = list(range(order))
    rng.shuffle(perm)
    one = list(perm)
    i, j = sorted(rng.sample(range(order), 2))
    one[j] = one[i]
    last = list(perm)
    last[-1] = last[rng.randrange(order - 1)]
    # the one collision's first preimage near order/2, past the x = 0 probe
    middle = list(perm)
    mid = (order - 1) // 2
    middle[rng.randrange(mid + 1, order)] = middle[mid]
    tables = {
        "permutation": perm,
        "one collision": one,
        "collision first preimage in the middle": middle,
        "many collisions": [rng.randrange(order // 2) for _ in range(order)],
        "collision at the last index": last,
        "last two equal": perm[:-1] + perm[-2:-1],
        "constant": [perm[0]] * order,
    }
    if order > 2:  # table[0] unique, and the least collision at x = 1
        at_one = list(perm)
        at_one[rng.randrange(2, order)] = perm[1]
        tables["least collision at 1"] = at_one
    return tables


# at 65536, "last two equal" passes the x = 0 probe and the set, so the
# last-preimage map is built over the whole table
@pytest.mark.parametrize("order", [2, 3, 4, 9, 64, 729, 2187, 3125, 4096, 65536])
def test_table_verdict_keeps_the_dict_scan_witness(order):
    rng = random.Random(order)
    for kind, tab in _seeded_tables(order, rng).items():
        want = _reference_verdict(order, tab)
        assert want.is_permutation == (kind == "permutation")
        assert table_verdict(order, tab) == want, (order, kind)
        assert table_verdict(order, tuple(tab)) == want, (order, kind)
        rows = np.array([tab, tab[::-1]], dtype=np.int32)
        assert table_verdict(order, rows[0]) == want, (order, kind)


def test_distinct_codes_outside_the_field_are_out_of_range():
    # the set that finds no collision also bounds the values; the empty set
    # has no least or greatest value, and the empty table permutes
    assert table_verdict(0, []) == PermVerdict(True, None)
    for order, tab, code in ((2, [0, 5], 5), (3, [0, 1, -1], -1)):
        with pytest.raises(OutOfRange) as err:
            table_verdict(order, tab)
        assert (err.value.code, err.value.order) == (code, order)
    with pytest.raises(OutOfRange):
        table_is_cpp(make_prime_field(3), [0, 4, 8])
    # a colliding table is not a permutation, whatever its values
    assert table_verdict(3, [5, 5, -1]) == PermVerdict(False, (0, 1))


_SMALL_HOMES = [make_prime_field(p) for p in (2, 3, 5, 7, 11)] + [
    make_extension(make_prime_field(2), 2), make_extension(make_prime_field(2), 3),
    make_extension(make_prime_field(3), 2), make_tower(make_prime_field(2), 2),
    make_tower(make_prime_field(2), 3), make_tower(make_prime_field(3), 2)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_HOMES), st.data())
def test_verdicts_match_the_dict_scan_on_small_tables(home, data):
    order = home.order
    tab = data.draw(st.one_of(st.permutations(range(order)),
                              st.lists(st.integers(0, order - 1), min_size=order, max_size=order)))
    want = _reference_verdict(order, tab)
    assert table_verdict(order, tab) == want
    shifted = [_digit_add(home.p, v, x) for x, v in enumerate(tab)]
    cpp = want.is_permutation and _reference_verdict(order, shifted).is_permutation
    assert table_is_cpp(home, tab) == cpp


def test_squaring_on_f3_collides_at_1_2():
    f3 = make_prime_field(3)
    v = is_permutation(Poly(f3, [0, 0, 1]))
    assert not v.is_permutation and v.witness == (1, 2)


def test_scaling_cpp_statuses():
    f4 = make_extension(make_prime_field(2), 2)
    # both nonidentity unit scalings of F_4 are complete
    for c in (2, 3):
        chk = is_complete_permutation(Poly(f4, [0, c]))
        assert chk.both
    # the identity is a permutation whose shift x + x = 0 collapses
    chk = is_complete_permutation(Poly(f4, [0, 1]))
    assert chk.f_verdict.is_permutation and not chk.shifted_verdict.is_permutation
    assert not chk.both


def test_identity_is_complete_in_odd_characteristic():
    f5 = make_prime_field(5)
    assert is_complete_permutation(Poly(f5, [0, 1])).both


def test_cap_guards_value_table():
    f = make_extension(make_prime_field(2), 4)
    with pytest.raises(OrderCapExceeded):
        value_table(Poly(f, [0, 1]), cap=8)


def test_verdict_json_shapes():
    v = table_verdict(3, [0, 1, 2])
    assert v.to_json() == {"is_permutation": True, "witness": None}
    chk = is_complete_permutation(Poly(make_prime_field(3), [0, 1]))
    j = chk.f_verdict.to_json()
    assert set(j) == {"is_permutation", "witness"}


def _norm_square_data(tower, hcodes):
    """f = x*h(nor x) on the tower and the induced base map v -> v*h(v)^n."""
    base = tower.base
    h = Poly(base, hcodes)
    ftab = []
    for x in tower.elements():
        hv = eval_poly(h, rel_norm(x))
        ftab.append((x * tower.embed(hv)).code)
    htab = []
    for v in base.elements():
        hv = eval_poly(h, v)
        htab.append((v * hv ** tower.n).code)
    return ftab, htab


def test_fiber_criterion_on_commuting_square():
    tower = make_tower(make_extension(make_prime_field(2), 2), 2)
    ftab, htab = _norm_square_data(tower, [2, 1])
    rep = fiber_criterion_verify(ftab, htab, lambda_kind="norm", tower=tower)
    assert rep.square_commutes and rep.lambda_surjective
    assert rep.conclusion == rep.cross_check
    assert set(rep.to_json()) == {
        "square_commutes",
        "h_bijective",
        "fibers_injective",
        "conclusion",
        "cross_check",
    }


def test_fiber_criterion_non_commuting_square_concludes_nothing():
    tower = make_tower(make_extension(make_prime_field(2), 2), 2)
    ftab, htab = _norm_square_data(tower, [2, 1])
    htab[1], htab[2] = htab[2], htab[1]  # break the square
    rep = fiber_criterion_verify(ftab, htab, lambda_kind="norm", tower=tower)
    assert not rep.square_commutes
    assert rep.conclusion is None


def test_fiber_criterion_accepts_polys_and_rejects_wrong_homes():
    tower = make_tower(make_extension(make_prime_field(2), 2), 2)
    f = Poly(tower, [0, 1])
    h = Poly(tower.base, [0, 1])
    rep = fiber_criterion_verify(f, h, lambda_kind="trace")
    assert rep.square_commutes and rep.conclusion is True
    with pytest.raises(FieldMismatch):
        fiber_criterion_verify(f, Poly(make_prime_field(5), [0, 1]), lambda_kind="trace")
    with pytest.raises(FieldMismatch):
        fiber_criterion_verify([0] * tower.order, h, lambda_kind="trace")
    with pytest.raises(ValueError):
        fiber_criterion_verify(f, h, lambda_kind="projection")


def test_fiber_criterion_names_an_out_of_range_value():
    tower = make_tower(make_extension(make_prime_field(2), 2), 2)
    ftab = list(range(tower.order))
    ftab[3] = tower.order  # right length, one value past the field
    with pytest.raises(OutOfRange) as err:
        fiber_criterion_verify(ftab, Poly(tower.base, [0, 1]), lambda_kind="trace", tower=tower)
    assert err.value.code == tower.order and err.value.order == tower.order


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=9, max_size=9))
def test_random_tables_verdict_matches_set_semantics(tab):
    v = table_verdict(9, tab)
    assert v.is_permutation == (len(set(tab)) == 9)
    if not v.is_permutation:
        x, y = v.witness
        assert x < y and tab[x] == tab[y]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_random_cubics_cpp_agrees_with_table_check(codes):
    f = make_prime_field(5)
    h = Poly(f, [0] + codes)  # zero constant keeps f(0) = 0
    chk = is_complete_permutation(h)
    tab = value_table(h)
    shifted = [f._cadd(v, x) for x, v in enumerate(tab)]
    assert chk.f_verdict.is_permutation == (len(set(tab)) == 5)
    assert chk.shifted_verdict.is_permutation == (len(set(shifted)) == 5)
