"""Permutation / complete-permutation verdicts and the fiber criterion."""

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
from cppforge.permcheck import eval_poly, table_verdict


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
