"""Relative trace/norm, p-polynomials, and the kernel-binomial criterion."""

import math

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
from cppforge.errors import FieldMismatch, OutOfRange, PreconditionViolated
from cppforge.maps import (
    norm_exponent,
    ppoly_eval,
    ppoly_quotient,
    ppoly_quotient_eval,
    trace_kernel,
)
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
