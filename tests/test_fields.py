"""Field construction and element arithmetic.

Prime fields are checked against integer arithmetic mod p; extensions are
checked against the field axioms directly, exhaustively where the order
allows and by hypothesis sampling elsewhere. The exp/log lookups every
level uses are pinned to the convolution that defines multiplication.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cppforge import (
    FieldDesc,
    FieldElement,
    Poly,
    clear_caches,
    embed_poly,
    eval_poly,
    make_extension,
    make_prime_field,
    make_tower,
    value_table,
)
from cppforge.errors import (
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotPrime,
    OutOfRange,
)
from cppforge import fields
from cppforge.grids import tower_grid


def test_prime_field_matches_int_mod_p():
    for p in (2, 3, 5, 7, 11):
        f = make_prime_field(p)
        assert f.order == p and f.p == p and f.r == 1
        for a in range(p):
            assert f._cneg(a) == (-a) % p
            for b in range(p):
                assert f._cadd(a, b) == (a + b) % p
                assert f._cmul(a, b) == (a * b) % p
        for a in range(1, p):
            assert f._cmul(a, f._cinv(a)) == 1


def test_not_prime_rejected():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(NotPrime):
            make_prime_field(bad)


def _primes_upto(m):
    """The primes up to m, by the sieve of Eratosthenes."""
    sieve = [True] * (m + 1)
    out = []
    for v in range(2, m + 1):
        if sieve[v]:
            out.append(v)
            for w in range(v * v, m + 1, v):
                sieve[w] = False
    return out


def test_is_prime_is_the_sieve():
    # the one trial division, read as a prime test, against an independent
    # sieve; below 2 there is no prime
    assert list(filter(fields._is_prime, range(-2, 5000))) == _primes_upto(4999)


def _axioms_exhaustive(f):
    q = f.order
    for a in range(q):
        assert f._cadd(a, 0) == a
        assert f._cmul(a, 1) == a
        assert f._cadd(a, f._cneg(a)) == 0
        for b in range(q):
            assert f._cadd(a, b) == f._cadd(b, a)
            assert f._cmul(a, b) == f._cmul(b, a)
    for a in range(1, q):
        assert f._cmul(a, f._cinv(a)) == 1
    with pytest.raises(DivisionByZero):
        f._cinv(0)


def test_extension_axioms_small(f4, f9):
    _axioms_exhaustive(f4)
    _axioms_exhaustive(f9)
    f8 = make_extension(make_prime_field(2), 3)
    _axioms_exhaustive(f8)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_f25_ring_identities(a, b, c):
    f = make_extension(make_prime_field(5), 2)
    assert f._cadd(f._cadd(a, b), c) == f._cadd(a, f._cadd(b, c))
    assert f._cmul(f._cmul(a, b), c) == f._cmul(a, f._cmul(b, c))
    assert f._cmul(a, f._cadd(b, c)) == f._cadd(f._cmul(a, b), f._cmul(a, c))


# --- code addition: the shared (p, w) table against the digit loop ----------


def _levels(max_order):
    """Every prime field, flat field and tower level (base and tower) up to
    max_order, for each characteristic the tower grid uses."""
    levels = {f: None for tw in tower_grid(max_order) for f in (tw.base, tw)}
    for p in {tw.p for tw in levels}:
        levels[make_prime_field(p)] = None
        r = 2
        while p**r <= max_order:
            levels[make_extension(make_prime_field(p), r)] = None
            r += 1
    return list(levels)


def _odd_p_levels(max_order):
    """Every odd-p flat field and tower level of full degree > 1 up to max_order."""
    return [f for f in _levels(max_order) if f.p != 2 and f.full_degree > 1]


def test_addition_table_matches_the_digit_loop_on_every_pair_up_to_729():
    levels = _odd_p_levels(729)
    assert len(levels) == 34
    # addition depends only on p and the full degree: one set of rows by
    # the digit loop serves every level of a shape, and so does one table
    want = {}
    for f in levels:
        codes = range(f.order)
        shape = (f.p, f.full_degree)
        if shape not in want:
            want[shape] = [[fields._digit_add(f.p, a, b) for b in codes] for a in codes]
        for a in codes:
            assert [f._cadd(a, b) for b in codes] == want[shape][a], (f, a)
        assert f._add_tab is fields._half_add_table(f.p, (f.full_degree + 1) // 2), f


@pytest.mark.parametrize(
    "p, n, tabled",
    [(3, 10, True), (5, 5, True), (3, 7, True), (11, 3, True), (17, 3, True), (3, 11, False)],
    ids=["F_59049/F_3", "F_3125/F_5", "F_2187/F_3", "F_1331/F_11", "F_4913/F_17",
         "F_177147/F_3"],
)
def test_addition_matches_the_digit_loop_on_seeded_pairs(p, n, tabled):
    # every odd-p level up to _LOG_TABLE_MAX has a half table, F_4913/F_17's
    # of 17^4 cells included; F_177147/F_3 is past it: _cadd runs the digit
    # loop there and _cadd_each maps _cadd
    tw = make_tower(make_prime_field(p), n)
    rng = random.Random(tw.order)
    pairs = []
    for _ in range(20000):
        a, b = rng.randrange(tw.order), rng.randrange(tw.order)
        assert tw._cadd(a, b) == fields._digit_add(p, a, b), (a, b)
        pairs.append((a, b))
    us, vs = zip(*pairs)
    assert tw._cadd_each(us, vs) == [fields._digit_add(p, a, b) for a, b in pairs]
    assert bool(tw._add_tab) == tabled


def _digit_neg(p, a):
    """-a digit by digit: the reference for FieldDesc._cneg."""
    out, place = 0, 1
    while a:
        a, x = divmod(a, p)
        out += (-x) % p * place
        place *= p
    return out


def test_negation_matches_the_digitwise_reference_on_every_element_up_to_729():
    for f in _odd_p_levels(729):
        codes = range(f.order)
        assert [f._cneg(a) for a in codes] == [_digit_neg(f.p, a) for a in codes], f


@pytest.mark.parametrize("n", [10, 11], ids=["F_59049/F_3", "F_177147/F_3"])
def test_negation_matches_the_digitwise_reference_on_seeded_elements(n):
    # F_177147 is past _LOG_TABLE_MAX: there _cmul is the convolution
    tw = make_tower(make_prime_field(3), n)
    rng = random.Random(tw.order)
    for _ in range(2000):
        a = rng.randrange(tw.order)
        assert tw._cneg(a) == _digit_neg(3, a), a


_ODD_SHAPES = [(p, d) for p in (3, 5, 7, 11, 13) for d in range(1, 7)
               if p**d <= fields.MAX_FIELD_ORDER]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ODD_SHAPES), st.data())
def test_odd_p_addition_is_the_digit_loop_and_subtraction_undoes_it(shape, data):
    p, d = shape
    f = make_extension(make_prime_field(p), d)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f._cadd(a, b) == fields._digit_add(p, a, b)
    assert f._csub(f._cadd(a, b), b) == a


# --- whole-field list passes against the per-point route ---------------------


def _coeff_lists(order, rng):
    """Seeded coefficient lists: empty, constants, inner zeros, zero tops."""
    def code():
        return rng.randrange(order)

    return [
        [], [0], [code()], [0, 1], [code(), code()],
        [code(), 0, code(), 0, rng.randrange(1, order)],
        [0, 0, 0, code()], [code(), code(), 0], [code(), 0, code(), 0, 0],
        [code() for _ in range(7)],
    ]


def _assert_passes_match(f, rng, lists):
    order = f.order
    for cs in lists:
        assert fields._peval_all(f, cs) == [fields._peval(f, cs, x) for x in range(order)], (f, cs)
    us = [rng.randrange(order) for _ in range(order)]
    assert f._cadd_each(us, range(order)) == [f._cadd(u, x) for x, u in enumerate(us)], f
    assert f._cmul_each(us, range(order)) == [f._cmul(u, x) for x, u in enumerate(us)], f
    for e in (0, 1, f.p, rng.randrange(2, 2 * order)):
        assert f._cpow_all(e) == [f._cpow(x, e) for x in range(order)], (f, e)


def test_whole_field_passes_match_the_per_point_route_on_every_level_up_to_729():
    levels = _levels(729)
    assert {f._sub is None for f in levels} == {True, False}
    for f in levels:
        rng = random.Random(f.order * 7 + f.full_degree)
        _assert_passes_match(f, rng, _coeff_lists(f.order, rng))


@pytest.mark.parametrize(
    "p, r, n",
    [(2, 1, 12), (2, 6, 2), (5, 1, 5), (2, 1, 16), (17, 1, 3)],
    ids=["F_4096/F_2", "F_4096/F_64", "F_3125/F_5", "F_65536/F_2", "F_4913/F_17"],
)
def test_whole_field_passes_match_the_per_point_route_on_seeded_lists(p, r, n):
    # F_65536/F_2 is the largest level with exp/log lists; F_4913/F_17 has
    # them and a half table of 17^4 cells, whose entries pass one byte
    tw = make_tower(make_extension(make_prime_field(p), r), n)
    rng = random.Random(tw.order)
    _assert_passes_match(tw, rng, _coeff_lists(tw.order, rng)[4::2])
    assert tw.log_tables() is not None
    assert p == 2 or bool(tw._add_tab)


@pytest.mark.parametrize("p", [3, 7, 1021])
def test_value_table_on_a_degree_one_odd_tower_is_the_per_point_horner(p):
    # F_p/F_p has full degree 1: its codes and products are F_p's, and
    # its whole-field pass needs no p^2-cell addition table
    tw = make_tower(make_prime_field(p), 1)
    rng = random.Random(p)
    for cs in ([1, 1], [0, 0, 1], [rng.randrange(p) for _ in range(5)]):
        want = [fields._peval(tw, cs, x) for x in range(p)]
        assert value_table(Poly(tw, cs)) == want, cs
        assert value_table(Poly(tw.base, cs)) == want, cs


def test_value_table_past_the_log_lists_is_the_per_point_horner():
    # F_131072/F_2 has no exp/log lists: each point runs _peval, under a cap
    # raised to its order. x + c keeps it to one cheap convolution per point
    # (by 1); a random linear coefficient takes 5 s for the table.
    tw = make_tower(make_prime_field(2), 17)
    assert tw.log_tables() is None
    rng = random.Random(tw.order)
    f = Poly(tw, [rng.randrange(tw.order), 1])
    tab = value_table(f, cap=tw.order)
    assert len(tab) == tw.order
    for x in rng.sample(range(tw.order), 500):
        assert tab[x] == fields._peval(tw, f.coeffs, x), x
    assert value_table(Poly(tw, [5]), cap=tw.order) == [5] * tw.order
    us = [rng.randrange(tw.order) for _ in range(2000)] + [0]
    assert tw._cadd_each(us, us[::-1]) == [tw._cadd(u, v) for u, v in zip(us, us[::-1])]
    assert tw._cmul_each(us, us[::-1]) == [tw._cmul(u, v) for u, v in zip(us, us[::-1])]


def test_translation_lists_are_the_addition_of_every_constant_up_to_729():
    # addition depends only on (p, full degree): one set of rows per shape
    want = {}
    for f in _odd_p_levels(729):
        codes = range(f.order)
        shape = (f.p, f.full_degree)
        if shape not in want:
            want[shape] = [[f._cadd(u, c) for u in codes] for c in codes]
        for c in codes:
            assert f._translation(c) == want[shape][c], (f, c)


def test_the_half_table_cache_holds_every_shape_up_to_the_log_table_max():
    # one table per (p, w), w = ceil(f/2), over the odd-p levels of full
    # degree f > 1 up to _LOG_TABLE_MAX: a finite domain, so the cache is
    # unbounded and never evicts one
    shapes = set()
    for p in filter(fields._is_prime, range(3, 257)):
        f = 2
        while p**f <= fields._LOG_TABLE_MAX:
            shapes.add((p, (f + 1) // 2))
            f += 1
    assert len(shapes) == 69
    assert fields._half_add_table.cache_parameters()["maxsize"] is None
    # two bytes per cell, p^(2w) cells per table: the 10.0 MiB of the comment
    assert round(sum(2 * p ** (2 * w) for p, w in shapes) / 2**20, 1) == 10.0


def test_a_level_built_after_clear_caches_shares_its_half_table():
    # the (p, w) tables outlive clear_caches: one copy of each, shared by the
    # levels built before the clear and after it
    before = make_tower(make_prime_field(3), 3)
    assert before._cadd(5, 7) == fields._digit_add(3, 5, 7)
    clear_caches()
    after = make_tower(make_prime_field(3), 3)
    assert after._cadd(5, 7) == fields._digit_add(3, 5, 7)
    assert after is not before and after._add_tab is before._add_tab


def test_monomial_refuses_a_foreign_coefficient(f4, f9):
    # the coefficient goes through the constructor's check, not by its code
    t = make_tower(f4, 2)
    foreign = FieldElement(f9, 2)
    with pytest.raises(FieldMismatch):
        Poly(t, [0, 0, foreign])
    with pytest.raises(FieldMismatch):
        Poly.monomial(t, 2, foreign)
    assert Poly.monomial(t, 2, FieldElement(f4, 2)) == Poly(t, [0, 0, 2])


def test_scale_checks_its_factor_as_the_constructor_does(f4, f9):
    t = make_tower(f4, 2)
    with pytest.raises(FieldMismatch):
        Poly(t, [1, 1]).scale(FieldElement(f9, 2))
    with pytest.raises(OutOfRange):
        Poly(t, [1, 1]).scale(t.order)
    assert Poly(t, [1, 1]).scale(FieldElement(f4, 2)) == Poly(t, [2, 2])
    assert Poly(t, [1, 1]).scale(FieldElement(t, 7)) == Poly(t, [7, 7])
    assert Poly(t, [1, 1]).scale(0).is_zero()


def test_monomial_is_the_padded_coefficient_list(f4):
    # validated through one coefficient, then padded with zeros
    t42 = make_tower(f4, 2)
    seeded = [make_tower(make_extension(make_prime_field(p), r), n)
              for p, r, n in ((2, 1, 12), (2, 6, 2), (5, 1, 5), (3, 1, 7))]
    rng = random.Random(3)
    for home in _levels(729) + [t42] + seeded:
        for d in (0, 1, 7, rng.randrange(40)):
            c = rng.randrange(home.order)
            assert Poly.monomial(home, d, c) == Poly(home, [0] * d + [c]), (home, d, c)
            assert Poly.monomial(home, d) == Poly(home, [0] * d + [1])
        assert Poly.monomial(home, 5, 0).is_zero()
        with pytest.raises(OutOfRange):
            Poly.monomial(home, 3, home.order)
    assert Poly.monomial(t42, 2, FieldElement(f4, 3)).coeffs == (0, 0, 3)
    with pytest.raises(ValueError):
        Poly.monomial(t42, -1)


_PASS_SHAPES = [(p, r, n) for p in (2, 3, 5, 7) for r in (1, 2, 3) for n in range(1, 7)
                if (r > 1 or n > 1) and p ** (r * n) <= 2187]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PASS_SHAPES), st.data())
def test_whole_field_passes_are_the_per_point_route(shape, data):
    p, r, n = shape
    base = make_extension(make_prime_field(p), r)
    f = make_tower(base, n) if r > 1 else make_extension(base, n)
    codes = st.integers(0, f.order - 1)
    cs = data.draw(st.lists(codes, max_size=6))
    assert fields._peval_all(f, cs) == [fields._peval(f, cs, x) for x in range(f.order)]
    us, vs = (data.draw(st.lists(codes, min_size=1, max_size=64)) for _ in range(2))
    assert f._cadd_each(us, vs) == [f._cadd(u, v) for u, v in zip(us, vs)]


def test_multiplicative_generator_has_full_order(f4, f9, f16):
    for f in (f4, f9, f16):
        g = f.multiplicative_generator()
        seen = set()
        x = 1
        for _ in range(f.order - 1):
            x = f._cmul(x, g.code)
            seen.add(x)
        assert len(seen) == f.order - 1


def test_element_codes_and_vectors(f9):
    # codes are little-endian digit strings over the prime subfield
    e = f9.element([2, 1])
    assert e.code == 2 + 1 * 3
    assert f9.element([2, 0]).code == 2
    assert f9.element([5, 0]).code == 2  # digits reduce mod p
    with pytest.raises(ValueError):
        f9.element([1, 1, 1])


def test_field_element_operators(f9):
    a = FieldElement(f9, 5)
    b = FieldElement(f9, 7)
    assert (a + b).code == f9._cadd(5, 7)
    assert (a * b).code == f9._cmul(5, 7)
    assert (a - b).code == f9._csub(5, 7)
    assert (-a).code == f9._cneg(5)
    assert (a / b).code == f9._cmul(5, f9._cinv(7))
    assert a**2 == a * a
    with pytest.raises(FieldMismatch):
        _ = a + FieldElement(make_prime_field(3), 1)


def test_canonical_modulus_is_deterministic_and_irreducible():
    f2 = make_prime_field(2)
    a = make_extension(f2, 4)
    b = make_extension(f2, 4)
    assert a.descriptor() == b.descriptor()
    assert a.element([1, 1]).code == b.element([1, 1]).code
    # a reducible modulus must be refused
    with pytest.raises(NotIrreducible):
        make_extension(f2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def test_explicit_modulus_changes_arithmetic():
    f3 = make_prime_field(3)
    # both x^2 + 1 and x^2 + x + 2 are irreducible over F_3
    fa = make_extension(f3, 2, modulus=[1, 0, 1])
    fb = make_extension(f3, 2, modulus=[2, 1, 1])
    assert fa.descriptor() != fb.descriptor()
    # in fa, y^2 = -1 = 2; code of y is 3
    assert fa._cmul(3, 3) == 2


def test_tower_embed_and_project(f4):
    tw = make_tower(f4, 3)
    assert tw.order == 64 and tw.q == 4 and tw.n == 3
    for a in f4.elements():
        up = tw.embed(a)
        assert up.code == a.code  # embedding is code-identity on the base
        assert tw.to_base(up) == a
    outside = FieldElement(tw, 5)
    with pytest.raises(FieldMismatch):
        tw.to_base(outside)


def test_tower_arithmetic_extends_base(f4):
    tw = make_tower(f4, 2)
    for a in range(4):
        for b in range(4):
            assert tw._cadd(a, b) == f4._cadd(a, b)
            assert tw._cmul(a, b) == f4._cmul(a, b)


def test_descriptor_round_trip_text(f4):
    tw = make_tower(f4, 3)
    d = tw.descriptor()
    assert d.startswith("p=2;r=2;mod=")
    assert ";n=3;tmod=" in d


def test_poly_basics(f4):
    h = Poly(f4, [1, 2, 0, 3])
    assert h.degree == 3
    assert h.coefficient(1).code == 2
    assert h.coefficient(9).code == 0
    m = Poly.monomial(f4, 5, 2)
    assert m.degree == 5 and m.coefficient(5).code == 2
    z = Poly(f4, [0, 0])
    assert z.degree == -1  # zero polynomial


def test_eval_poly_matches_power_sum(f9):
    h = Poly(f9, [4, 0, 7, 1])
    for x in f9.elements():
        want = 0
        for i, c in enumerate(h.coeffs):
            want = f9._cadd(want, f9._cmul(c, f9._cpow(x.code, i)))
        assert eval_poly(h, x).code == want


def test_eval_poly_embeds_base_argument(f4):
    tw = make_tower(f4, 2)
    h = embed_poly(Poly(f4, [1, 3]), tw)
    a = FieldElement(f4, 2)
    assert eval_poly(h, a) == eval_poly(h, tw.embed(a))


def test_embed_poly_preserves_values_on_base(f4):
    tw = make_tower(f4, 3)
    h = Poly(f4, [2, 1, 3])
    up = embed_poly(h, tw)
    for a in f4.elements():
        assert eval_poly(up, tw.embed(a)) == tw.embed(eval_poly(h, a))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 63), st.integers(1, 62))
def test_tower_pow_agrees_with_repeated_mul(xc, e):
    tw = make_tower(make_extension(make_prime_field(2), 2), 3)
    acc = 1
    for _ in range(e):
        acc = tw._cmul(acc, xc)
    assert tw._cpow(xc, e) == acc


def _check_ops_against_convolution(f, pairs, powers):
    # the log tables are derived from the convolution, which stays the
    # definition: products, powers and inverses must agree with it
    m = f.order - 1
    for a, b in pairs:
        assert f._cmul(a, b) == f._codeof(f._mul_vec(f._vec(a), f._vec(b))), (f, a, b)
    for a, e in powers:
        assert f._cpow(a, e) == f._codeof(f._pow_vec(f._vec(a), e)), (f, a, e)
        if a:
            assert f._cinv(a) == f._codeof(f._pow_vec(f._vec(a), m - 1)), (f, a)
    if f.full_degree > 1:
        assert f._log is not None  # the ops above went through the tables


def test_log_tables_match_convolution_every_pair_up_to_256():
    for tw in tower_grid(256):
        for f in (tw.base, tw):
            codes = range(f.order)
            exps = (0, 1, 2, f.p, f.order - 2, f.order + 3)
            _check_ops_against_convolution(
                f, itertools.product(codes, codes), itertools.product(codes, exps)
            )


def test_log_tables_match_convolution_sampled_up_to_4096():
    # every pair at order 4096 is ~16.7M convolutions: sample instead
    rng = random.Random(4096)
    for tw in tower_grid(4096):
        n = tw.order
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        powers = [(rng.randrange(n), rng.randrange(3 * n)) for _ in range(20)]
        _check_ops_against_convolution(tw, pairs, powers)


def test_log_tables_match_convolution_sampled_on_the_largest_tabled_fields(memo, f2, f3):
    # orders at _LOG_TABLE_MAX scale: F_65536 over F_2 and over F_256, F_59049/F_3
    rng = random.Random(1 << 16)
    for tw in (make_tower(f2, 16), make_tower(make_extension(f2, 8), 2), make_tower(f3, 10)):
        n = tw.order
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        powers = [(rng.randrange(n), rng.randrange(3 * n)) for _ in range(20)]
        _check_ops_against_convolution(tw, pairs, powers)


# --- how the exp/log lists are built -----------------------------------------


def _walk_by_convolution(f):
    """The lists by one convolution per power of the generator."""
    g = f._vec(f._find_generator())
    exp, log = [], [-1] * f.order
    acc = f._vec(1)
    for j in range(f.order - 1):
        c = f._codeof(acc)
        exp.append(c)
        log[c] = j
        acc = f._mul_vec(acc, g)
    assert f._codeof(acc) == 1
    return exp, log


def _last_irreducible(home, degree):
    """The irreducible monic of the degree with the largest code: not canonical."""
    for k in reversed(range(home.order**degree)):
        cs = [k // home.order**i % home.order for i in range(degree)] + [1]
        if fields._poly_is_irreducible(home, cs):
            return cs
    raise AssertionError("no irreducible found")


def test_log_tables_equal_the_walk_by_convolution_on_every_level_up_to_4096():
    levels = {f: None for tw in tower_grid(4096) for f in (tw.base, tw)}
    assert len(levels) == 84
    for f in levels:
        assert f._build_log_tables() == _walk_by_convolution(f), f


def test_log_tables_equal_the_walk_by_convolution_under_other_moduli(f2, f3):
    f5 = make_prime_field(5)
    levels = []
    for base, degrees in ((f2, (4, 6)), (f3, (3, 5)), (f5, (2, 3))):
        for d in degrees:
            levels.append(make_extension(base, d, _last_irreducible(base, d)))
            levels.append(make_tower(base, d, _last_irreducible(base, d)))
    for base, n in ((make_extension(f2, 2), 3), (make_extension(f2, 4), 2),
                    (make_extension(f3, 2), 2), (make_extension(f5, 2), 2)):
        levels.append(make_tower(base, n, _last_irreducible(base, n)))
    for f in levels:
        assert f.modulus != fields._canonical_modulus(f._sub, f._deg), f
        assert f._build_log_tables() == _walk_by_convolution(f), f


def test_log_tables_take_two_half_width_tables_of_convolutions(memo, monkeypatch, f2):
    tw = make_tower(f2, 12)
    calls = []
    mul_vec = FieldDesc._mul_vec

    def counted(self, u, v):
        if self is tw:
            calls.append(1)
        return mul_vec(self, u, v)

    monkeypatch.setattr(FieldDesc, "_mul_vec", counted)
    tw._find_generator()
    search = len(calls)
    calls.clear()
    tw.log_tables()
    # lo = 2^6: 64 low and 64 high products, where one per power took 4095
    assert len(calls) <= 2 * 64 + search < 4095


def test_a_generator_that_misses_codes_is_refused(monkeypatch, f2):
    f16 = make_extension(f2, 4)
    assert f16._cpow(6, 3) == 1  # 6 = y^2 + y has order 3, yet 6^15 = 1 too
    monkeypatch.setattr(f16, "_find_generator", lambda: 6)
    with pytest.raises(AssertionError, match="every nonzero code"):
        f16._build_log_tables()


def test_flat_and_tower_levels_stay_distinct(f2):
    flat = make_extension(f2, 3)
    tower = make_tower(f2, 3)
    assert flat.modulus == tower.modulus == (1, 1, 0, 1)
    assert flat != tower and len({flat, tower}) == 2
    assert flat == make_extension(f2, 3) and tower == make_tower(f2, 3)
    assert flat.descriptor() == "p=2;r=3;mod=[1,1,0,1]"
    assert tower.descriptor() == "p=2;r=1;mod=[0,1];n=3;tmod=[[1],[1],[0],[1]]"
    assert (repr(flat), repr(tower)) == ("F_8", "F_8/F_2")
    with pytest.raises(FieldMismatch):
        _ = flat.one + tower.one
    # one modulus, one encoding: the arithmetic agrees code for code
    for a in range(8):
        for b in range(8):
            assert flat._cmul(a, b) == tower._cmul(a, b)
    # a tower is never the base of a further extension
    for build in (make_extension, make_tower):
        with pytest.raises(FieldMismatch):
            build(tower, 2)


def test_element_reduces_on_flat_fields_and_range_checks_on_towers(f3, f4, f9):
    assert f9.element([4, 5]).code == 1 + 2 * 3
    tw = make_tower(f3, 2)
    assert tw.element([2, 1]).code == 2 + 1 * 3
    with pytest.raises(OutOfRange):
        tw.element([4])
    t4 = make_tower(f4, 2)
    assert t4.element([f4.decode(3), 1]).code == 3 + 1 * 4
    with pytest.raises(FieldMismatch):
        t4.element([f9.one])


def _order_by_convolution(f, c):
    one = f._vec(1)
    v = f._vec(c)
    x, k = v, 1
    while x != one:
        # a sound field returns to 1 within order - 1 steps; a broken
        # multiplication may never return, so fail instead of hanging
        assert k < f.order, (f, c)
        x, k = f._mul_vec(x, v), k + 1
    return k


def test_multiplicative_generator_is_smallest_code_on_every_kind_of_level(f2, f3, f4, f9, f16):
    levels = [
        f2, f3, make_prime_field(7), f4, f9, f16,
        make_tower(f2, 3), make_tower(f3, 3), make_tower(f4, 2),
        make_tower(make_extension(f2, 3), 2),
    ]
    for f in levels:
        want = next(c for c in range(1, f.order) if _order_by_convolution(f, c) == f.order - 1)
        assert f.multiplicative_generator().code == want, f
        if f.order > 2:
            exp, log = f.log_tables()
            assert exp[1] == want and log[want] == 1


# --- one set of exp/log lists per field, per process ------------------------


@pytest.fixture
def memo(monkeypatch):
    """An empty package memo for one test; the real one returns after."""
    cache = fields._Memo()
    monkeypatch.setattr(fields, "_MEMO", cache)
    return cache


def _cells(memo):
    """The entries' summed cost, which the memo's running total must equal."""
    cells = sum(cost for _, cost in memo.values())
    assert memo.cells == cells
    return cells


def _listed(memo):
    """The fields whose exp/log lists the memo holds, least recently used first."""
    build = FieldDesc._sentinel_lists.__wrapped__
    return [args[0] for fn, args in memo if fn is build]


def test_equal_fields_built_apart_share_one_exp_list(memo):
    a = make_tower(make_prime_field(2), 12)
    b = make_tower(make_prime_field(2), 12)
    assert a is not b and a == b
    assert a.log_tables()[0] is b.log_tables()[0]
    assert _listed(memo) == [a]


def test_a_second_instance_builds_nothing(memo, monkeypatch):
    def build():
        return make_tower(make_extension(make_prime_field(2), 3), 2)

    first = build()
    want = (first._cmul(3, 50), first._cinv(7), first._cpow(6, 9))
    assert len(_listed(memo)) == 2  # F_64/F_8 and its base F_8

    def no_generator(self):
        raise AssertionError(f"exp/log lists of {self!r} rebuilt")

    monkeypatch.setattr(FieldDesc, "_find_generator", no_generator)
    second = build()
    assert (second._cmul(3, 50), second._cinv(7), second._cpow(6, 9)) == want
    assert second.base._cmul(3, 5) == first.base._cmul(3, 5)


def test_flat_and_tower_f8_keep_separate_entries(memo, f2):
    flat, tower = make_extension(f2, 3), make_tower(f2, 3)
    assert flat.log_tables()[0] is not tower.log_tables()[0]
    assert _listed(memo) == [flat, tower] and flat != tower
    # one modulus, one encoding: equal lists, kept apart like the fields
    assert flat.log_tables() == tower.log_tables()


def test_each_modulus_of_f16_gets_its_own_tables(memo, f2, f4):
    pairs = [
        (make_extension(f2, 4), make_extension(f2, 4, [1, 0, 0, 1, 1])),
        (make_tower(f4, 2), make_tower(f4, 2, [3, 1, 1])),
    ]
    codes = range(16)
    for canon, other in pairs:
        assert canon.modulus != other.modulus
        assert canon.log_tables() != other.log_tables()
        for f in (canon, other):
            _check_ops_against_convolution(
                f, itertools.product(codes, codes), itertools.product(codes, (0, 1, 2, 14, 19))
            )
    keys = {f for pair in pairs for f in pair}
    assert len(keys) == 4 and keys <= set(_listed(memo))


def test_memo_keeps_its_cell_bound_and_evicts_least_recently_used_first(memo, monkeypatch, f2):
    monkeypatch.setattr(fields, "_MEMO_CELLS", 100)
    towers = [make_tower(f2, n) for n in (2, 3, 4, 5, 6)]  # lists of 124 cells in all
    for tw in towers:
        tw.log_tables()
        assert _cells(memo) <= 100
    # F_64/F_2 pushed out the five moduli, F_4, F_8 and F_16, in that order
    assert list(memo.values()) == [(towers[3].log_tables(), 32), (towers[4].log_tables(), 64)]
    # a second F_32 reads the held lists, which makes them the most recently
    # used: F_4 then pushes out F_64, the older insertion kept
    assert make_tower(f2, 5).log_tables()[0] is towers[3].log_tables()[0]
    make_tower(f2, 2).log_tables()
    assert _listed(memo) == [towers[3], towers[0]]
    rng = random.Random(100)
    # an evicted field still computes with the lists it holds, and a new
    # instance of it builds them again
    for tw in towers + [make_tower(f2, 3)]:
        n = tw.order
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]
        powers = [(rng.randrange(n), rng.randrange(3 * n)) for _ in range(10)]
        _check_ops_against_convolution(tw, pairs, powers)
        assert _cells(memo) <= 100
    assert _listed(memo)[-1] == towers[1]


def test_an_entry_past_the_budget_is_not_kept(memo, monkeypatch, f2):
    monkeypatch.setattr(fields, "_MEMO_CELLS", 100)
    small, big = make_tower(f2, 6), make_tower(f2, 7)
    small.log_tables()
    held = dict(memo)
    builds = FieldDesc._sentinel_lists.misses
    # F_128 costs more than the whole budget: it computes, and evicts nothing
    assert big.log_tables() is not None and memo == held
    assert make_tower(f2, 7).log_tables() is not None
    assert FieldDesc._sentinel_lists.misses == builds + 2
