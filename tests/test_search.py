"""Complete-mapping search, its slow twin, interpolation, h-form rewrite."""

import random

import pytest

from cppforge import (
    Poly,
    brute_complete_mappings,
    enumerate_complete_mappings,
    is_complete_permutation,
    lagrange_interpolate,
    make_extension,
    make_prime_field,
    to_h_form,
)
from cppforge.errors import (
    BadTableLength,
    OutOfRange,
    PreconditionViolated,
    ReconstructionMismatch,
    SearchCapExceeded,
)
from cppforge.permcheck import eval_poly, value_table
from cppforge.search import _lagrange_basis

KNOWN_COUNTS = {2: 0, 3: 1, 4: 2, 5: 3, 7: 19, 8: 48}


def _field(q):
    if q in (4, 8):
        return make_extension(make_prime_field(2), q.bit_length() - 1)
    return make_prime_field(q)


@pytest.mark.parametrize("q", sorted(KNOWN_COUNTS))
def test_enumeration_counts(q):
    found = enumerate_complete_mappings(_field(q))
    assert len(found) == KNOWN_COUNTS[q]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_pruned_walk_equals_permutation_filter(q):
    field = _field(q)
    fast = [m.table for m in enumerate_complete_mappings(field)]
    slow = brute_complete_mappings(field)
    assert fast == slow


def test_every_mapping_is_a_complete_permutation():
    field = _field(7)
    for m in enumerate_complete_mappings(field):
        assert m.table[0] == 0
        chk = is_complete_permutation(m.poly)
        assert chk.both
        assert value_table(m.poly) == list(m.table)


def test_normalized_flag_matches_monicity():
    field = _field(5)
    for m in enumerate_complete_mappings(field):
        assert m.normalized == m.poly.is_monic()


def test_search_caps():
    with pytest.raises(SearchCapExceeded):
        enumerate_complete_mappings(make_prime_field(13))
    with pytest.raises(SearchCapExceeded):
        brute_complete_mappings(make_prime_field(11))


def test_mapping_json_shape():
    m = enumerate_complete_mappings(_field(3))[0]
    j = m.to_json()
    assert set(j) == {"field", "table", "poly_coeffs", "normalized"}
    assert j["table"][0] == 0


def test_lagrange_interpolation_reproduces_tables():
    f9 = make_extension(make_prime_field(3), 2)
    tab = [(2 * x + 5) % 9 for x in range(9)]  # arbitrary 9-value table
    poly = lagrange_interpolate(f9, tab)
    assert poly.degree < 9
    assert value_table(poly) == tab
    with pytest.raises(BadTableLength):
        lagrange_interpolate(f9, tab[:5])
    with pytest.raises(OutOfRange):
        lagrange_interpolate(f9, [9] * 9)


def _fields_upto_11():
    return [_field(q) for q in (2, 3, 4, 5, 7, 8, 11)] + [make_extension(make_prime_field(3), 2)]


def test_lagrange_basis_rows_are_the_scalings_of_the_basis_polynomial():
    for field in _fields_upto_11():
        q = field.order
        basis = _lagrange_basis(field)
        assert len(basis) == q
        for a, rows in enumerate(basis):
            assert len(rows) == q
            # basis[a][1] interpolates the indicator of a
            assert value_table(Poly(field, rows[1])) == [int(x == a) for x in range(q)]
            for v in range(q):
                assert rows[v] == [field._cmul(v, c) for c in rows[1]], (field, a, v)


def test_interpolated_seeded_tables_evaluate_back_on_every_field_up_to_11():
    rng = random.Random(11)
    for field in _fields_upto_11():
        q = field.order
        for tab in ([0] * q, list(range(q)), *([rng.randrange(q) for _ in range(q)] for _ in range(5))):
            poly = lagrange_interpolate(field, tab)
            assert poly.degree < q
            assert value_table(poly) == tab, (field, tab)


def test_h_form_round_trip_identity_exponent():
    field = _field(7)
    for m in enumerate_complete_mappings(field):
        h = to_h_form(m.poly, 1)
        rebuilt = h.substitute_monomial(1).shift(1)
        assert value_table(rebuilt) == list(m.table)


def test_h_form_with_twisting_exponent():
    # gcd(3, 4) = 1 makes n = 3 admissible over F_5
    field = make_prime_field(5)
    for m in enumerate_complete_mappings(field):
        h = to_h_form(m.poly, 3)
        for x in field.elements():
            lhs = x * eval_poly(h, x**3)
            assert lhs.code == m.table[x.code]


def test_h_form_preconditions():
    f5 = make_prime_field(5)
    with pytest.raises(PreconditionViolated):
        to_h_form(Poly(f5, [1, 1]), 1)  # f(0) != 0
    with pytest.raises(PreconditionViolated):
        to_h_form(Poly(f5, [0, 1]), 2)  # gcd(2, 4) = 2


def test_h_form_never_misreconstructs_found_mappings():
    # the rewrite proves itself pointwise; reaching the return means proof
    field = _field(8)
    for m in enumerate_complete_mappings(field):
        try:
            to_h_form(m.poly, 1)
        except ReconstructionMismatch as exc:  # pragma: no cover
            pytest.fail(f"reconstruction failed: {exc}")
