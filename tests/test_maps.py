"""Relative trace/norm, p-polynomials, and the kernel-binomial criterion."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cppforge import (
    FieldElement,
    PPoly,
    binomial_kernel_criterion,
    make_extension,
    make_prime_field,
    make_tower,
    ppoly_permutes_kernel,
    rel_norm,
    rel_trace,
)
from cppforge import fields, maps
from cppforge.errors import FieldMismatch, MapEscapesKernel, OutOfRange, PreconditionViolated
from cppforge.maps import (
    norm_exponent,
    ppoly_eval,
    ppoly_eval_all,
    ppoly_quotient,
    ppoly_quotient_eval,
    trace_code,
    trace_kernel,
    trace_list,
)
from cppforge.grids import tower_grid
from cppforge.permcheck import eval_poly


@pytest.fixture(scope="module", params=[(2, 2, 3), (3, 1, 3), (2, 1, 4), (5, 1, 2)])
def tw(request):
    p, r, n = request.param
    return make_tower(make_extension(make_prime_field(p), r), n)


def test_trace_lands_in_base_and_is_additive(tw):
    for x in tw.elements():
        t = rel_trace(x)
        assert t.home == tw.base
    xs = list(tw.elements())
    for a in xs[:: max(1, len(xs) // 16)]:
        for b in xs[:: max(1, len(xs) // 16)]:
            assert rel_trace(a + b) == rel_trace(a) + rel_trace(b)


def test_trace_is_frobenius_invariant(tw):
    q = tw.q
    for x in tw.elements():
        xq = FieldElement(tw, tw._cpow(x.code, q))
        assert rel_trace(xq) == rel_trace(x)


def test_trace_surjective_with_balanced_fibers(tw):
    from collections import Counter

    counts = Counter(rel_trace(x).code for x in tw.elements())
    assert len(counts) == tw.q
    assert set(counts.values()) == {tw.order // tw.q}


def test_norm_is_multiplicative_and_surjective(tw):
    xs = list(tw.elements())
    step = max(1, len(xs) // 16)
    for a in xs[::step]:
        for b in xs[::step]:
            assert rel_norm(a * b) == rel_norm(a) * rel_norm(b)
    assert {rel_norm(x).code for x in xs} == set(range(tw.q))
    assert norm_exponent(tw) == (tw.order - 1) // (tw.q - 1)


def test_norm_of_embedded_base_is_nth_power(tw):
    n = tw.n
    for a in tw.base.elements():
        assert rel_norm(tw.embed(a)).code == tw.base._cpow(a.code, n)


def test_trace_and_norm_lists_equal_the_per_point_maps_on_every_tower_up_to_4096():
    towers = tower_grid(4096)
    # the n = 1 tower, where the trace is the identity, has no Frobenius pass
    towers.append(make_tower(make_extension(make_prime_field(2), 2), 1))
    for tw in towers:
        codes = range(tw.order)
        assert trace_list(tw) == [trace_code(tw, x) for x in codes], tw
        e = norm_exponent(tw)
        assert tw._cpow_all(e) == [tw._cpow(x, e) for x in codes], tw


def test_trace_kernel_size_and_membership(tw):
    ker = trace_kernel(tw)
    assert len(ker) == tw.order // tw.q
    assert all(rel_trace(x).code == 0 for x in ker)
    assert trace_kernel(tw) is ker  # memoized per tower


def test_ppoly_validation(tw):
    with pytest.raises(ValueError):
        PPoly(tw, {})  # zero p-polynomial
    with pytest.raises(ValueError):
        PPoly(tw, {tw.full_degree: 1})  # index out of range
    with pytest.raises(ValueError):
        PPoly(tw, {0: tw.q})  # coefficient outside the base field
    L = PPoly(tw, {0: 1, 1: tw.q - 1})
    assert L.coefficient(0).code == 1
    assert L.coefficient(2).code == 0
    assert L.max_index == 1


def test_ppoly_map_is_additive_and_prime_linear(tw):
    # p-polynomials are F_p-linear; F_q-linearity would need every
    # exponent index to be a multiple of r, which this L deliberately breaks
    L = PPoly(tw, {0: 1, 1: tw.q - 1})
    xs = list(tw.elements())
    step = max(1, len(xs) // 12)
    for a in xs[::step]:
        for b in xs[::step]:
            assert ppoly_eval(L, a + b) == ppoly_eval(L, a) + ppoly_eval(L, b)
    for code in range(tw.p):
        c = FieldElement(tw, code)
        for a in xs[::step]:
            assert ppoly_eval(L, c * a) == c * ppoly_eval(L, a)


def test_ppoly_commutes_with_trace(tw):
    L = PPoly(tw, {0: 2 % tw.q or 1, 1: 1})
    for x in tw.elements():
        lhs = rel_trace(ppoly_eval(L, x))
        rhs = rel_trace(x)
        # evaluate L on the embedded trace; the result stays in the base copy
        want = tw.to_base(ppoly_eval(L, tw.embed(rhs)))
        assert lhs == want


def test_ppoly_shifted(tw):
    L = PPoly(tw, {0: 1, 1: 1})
    s = L.shifted(1)
    assert s is not None and s.coefficient(0).code == 0 and s.coefficient(1).code == 1
    only_x = PPoly(tw, {0: 1})
    assert only_x.shifted(1) is None  # cancels to the zero map


def test_ppoly_quotient_identity(tw):
    L = PPoly(tw, {0: 1, 1: 1})
    A = ppoly_quotient(L)
    for x in tw.elements():
        qv = ppoly_quotient_eval(L, x)
        assert qv == eval_poly(A, x)
        if x.code:
            assert qv * x == ppoly_eval(L, x)
    # A(0) is the linear coefficient of L
    assert ppoly_quotient_eval(L, FieldElement(tw, 0)).code == 1


def test_frobenius_permutes_kernel(tw):
    # x^p is a field automorphism fixing trace-zero-ness, so it always
    # permutes the kernel
    L = PPoly.monomial(tw, 1)
    assert ppoly_permutes_kernel(L) is True


def test_permutes_kernel_shift_matches_explicit_difference(tw):
    L = PPoly.monomial(tw, 1)
    for c in range(tw.q):
        via_shift = ppoly_permutes_kernel(L, shift=c)
        diff = L.shifted(c)
        if diff is None:
            # the zero map permutes only the trivial kernel
            assert via_shift == (tw.order // tw.q == 1)
        else:
            assert ppoly_permutes_kernel(diff) == via_shift


def test_permutes_kernel_validates_the_shift():
    # F_4096/F_64: a shift is a code below 64 or an element of F_64
    tw = make_tower(make_extension(make_prime_field(2), 6), 2)
    L = PPoly.monomial(tw, 1)
    for bad in (5000, 70, -1):
        with pytest.raises(OutOfRange):
            ppoly_permutes_kernel(L, shift=bad)
    foreign = FieldElement(make_prime_field(3), 1)
    with pytest.raises(FieldMismatch):
        ppoly_permutes_kernel(L, shift=foreign)
    with pytest.raises(FieldMismatch):
        L.shifted(foreign)
    assert ppoly_permutes_kernel(L, shift=FieldElement(tw.base, 0)) is True


def test_binomial_criterion_rejects_bad_k(tw):
    with pytest.raises(PreconditionViolated):
        binomial_kernel_criterion(0, 1, tw)
    bad_k = None
    for k in range(1, tw.full_degree):
        if math.gcd(k, tw.n) != 1:
            bad_k = k
            break
    if bad_k is not None:
        with pytest.raises(PreconditionViolated):
            binomial_kernel_criterion(bad_k, 1, tw)


def test_binomial_criterion_case2_at_zero_shift(tw):
    v = binomial_kernel_criterion(1, 0, tw)
    # c = 0 leaves the pure Frobenius, always a kernel permutation
    assert v.case_applied == "Case2" and v.predicted is True
    assert "Frobenius" in v.note


def test_binomial_criterion_json_keys(tw):
    v = binomial_kernel_criterion(1, 0, tw)
    assert set(v.to_json()) == {"case", "predicted", "k", "c"}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 2, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3), (5, 1, 2)]),
       st.integers(1, 5), st.integers(0, 24))
def test_binomial_criterion_never_contradicts_exhaustive(params, k, c):
    p, r, n = params
    tw = make_tower(make_extension(make_prime_field(p), r), n)
    if k >= tw.full_degree or math.gcd(k, n) != 1 or c >= tw.q:
        return
    v = binomial_kernel_criterion(k, c, tw)
    if v.predicted is None:
        return
    L = PPoly.monomial(tw, k)
    assert ppoly_permutes_kernel(L, shift=c) == v.predicted


def test_rel_trace_rejects_plain_field_elements():
    f = make_extension(make_prime_field(2), 2)
    with pytest.raises(FieldMismatch):
        rel_trace(FieldElement(f, 1))


def test_ppoly_evaluators_refuse_foreign_arguments():
    # zero of an unrelated field, and a bare int code, are not tower elements
    L = PPoly.monomial(make_tower(make_prime_field(2), 3), 1)
    foreign_zero = FieldElement(make_tower(make_prime_field(3), 2), 0)
    for fn in (ppoly_eval, ppoly_quotient_eval):
        for x in (foreign_zero, 0):
            with pytest.raises(FieldMismatch):
                fn(L, x)


# --- list passes against the per-point chain ---------------------------------


def _random_ppolys(tw, rng):
    """Seeded p-polynomials: one index, a_0 with a top index, and a dense one."""
    def code():
        return rng.randrange(1, tw.q)

    top = tw.full_degree - 1
    return [
        PPoly.monomial(tw, rng.randrange(tw.full_degree), code()),
        PPoly(tw, {0: code(), top: code()}),
        PPoly(tw, {i: code() for i in range(tw.full_degree) if rng.random() < 0.6} or {top: 1}),
    ]


def _assert_ppoly_lists_match(tw, rng, codes):
    for L in _random_ppolys(tw, rng):
        want = [ppoly_eval(L, FieldElement(tw, x)).code for x in codes]
        assert ppoly_eval_all(L, codes) == want, (tw, L)


def test_ppoly_eval_all_is_the_pointwise_chain_on_every_tower_up_to_729():
    for tw in tower_grid(729):
        _assert_ppoly_lists_match(tw, random.Random(tw.order), range(tw.order))


@pytest.mark.parametrize(
    "p, r, n",
    [(2, 1, 12), (2, 6, 2), (5, 1, 5), (3, 1, 7), (2, 1, 17)],
    ids=["F_4096/F_2", "F_4096/F_64", "F_3125/F_5", "F_2187/F_3", "F_131072/F_2"],
)
def test_ppoly_eval_all_is_the_pointwise_chain_on_seeded_towers(p, r, n):
    # F_131072/F_2 has no exp/log lists and runs ppoly_eval per point, each
    # Frobenius step a convolution: a few points keep it short
    tw = make_tower(make_extension(make_prime_field(p), r), n)
    tabled = tw.log_tables() is not None
    assert tabled == (tw.order <= 1 << 16)
    rng = random.Random(tw.order)
    codes = [rng.randrange(tw.order) for _ in range(300 if tabled else 20)] + [0, 1]
    _assert_ppoly_lists_match(tw, rng, codes)


def test_an_image_outside_the_kernel_raises_at_the_first_escape(monkeypatch):
    # append codes of nonzero trace to the kernel: the first of them in
    # kernel order whose image leaves the true kernel is the one reported,
    # as the per-point trace test reports it
    tw = make_tower(make_extension(make_prime_field(2), 2), 3)
    real_kernel = trace_kernel(tw)
    outside = [x for x in range(tw.order) if trace_code(tw, x) != 0][5:8]
    patched = real_kernel + tuple(FieldElement(tw, x) for x in outside)
    L, theta = PPoly(tw, {0: 2, 1: 3}), 1

    def image(x):
        return tw._csub(ppoly_eval(L, x).code, tw._cmul(theta, x.code))

    first = next((x.code, image(x)) for x in patched if trace_code(tw, image(x)) != 0)
    assert first[0] in outside
    # an empty memo holds no verdict for (L, theta); the real one returns after
    monkeypatch.setattr(fields, "_MEMO", fields._Memo())
    monkeypatch.setattr(maps, "trace_kernel", lambda tower: patched)
    with pytest.raises(MapEscapesKernel) as exc:
        ppoly_permutes_kernel(L, shift=theta)
    assert (exc.value.x_code, exc.value.image_code) == first
