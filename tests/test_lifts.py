"""Construction layer: norm lifts, monomial families, trace lifts."""

import math
import random
from collections import Counter

import pytest

from cppforge import (
    FieldElement,
    PPoly,
    Poly,
    cppeg_construct,
    is_complete_permutation,
    make_extension,
    make_prime_field,
    make_tower,
    monomial_cpp_check,
    norm_lift,
    trace_lift_binomial,
    trace_lift_general,
    trace_lift_simple,
)
from cppforge.errors import (
    FieldMismatch,
    HypothesisFails,
    OrderCapExceeded,
    PreconditionViolated,
)
from cppforge import lifts, permcheck
from cppforge.grids import norm_lift_pairs, tower_grid
from cppforge.maps import trace_list
from cppforge.permcheck import eval_poly


@pytest.fixture(scope="module")
def f4():
    return make_extension(make_prime_field(2), 2)


@pytest.fixture(scope="module")
def t42(f4):
    return make_tower(f4, 2)


@pytest.fixture(scope="module")
def t43(f4):
    return make_tower(f4, 3)


# --- norm side ---------------------------------------------------------


def test_norm_lift_scalar_monomial(f4, t42):
    res = norm_lift(Poly(f4, [2]), t42)
    assert res.construction == "norm-lift"
    assert res.predicted_cpp is True
    assert res.verified_cpp() is True
    assert res.params["n"] == 2


def test_norm_lift_agrees_with_direct_table(f4, t42):
    h = Poly(f4, [2, 1])
    res = norm_lift(h, t42)
    tab = res.map_table()
    direct = is_complete_permutation(res.lifted)
    assert res.verified_cpp() == direct.both
    assert tab == [eval_poly(res.lifted, x).code for x in t42.elements()]
    for x in t42.elements():
        assert res.evaluate(x).code == tab[x.code]


def test_norm_lift_embeds_base_arguments(f4, t42):
    res = norm_lift(Poly(f4, [2, 1]), t42)
    a = FieldElement(f4, 3)
    assert res.evaluate(a) == res.evaluate(t42.embed(a))


def test_norm_lift_requires_coprime_degree(f4, t43):
    # gcd(n, q-1) = gcd(3, 3) = 3
    with pytest.raises(PreconditionViolated):
        norm_lift(Poly(f4, [2]), t43)


def test_norm_lift_prediction_matches_verification_over_all_small_h(f4, t42):
    for code in range(1, 4**2):
        h = Poly(f4, [code % 4, code // 4])
        res = norm_lift(h, t42)
        assert res.verified_cpp() == res.predicted_cpp


def test_monomial_cpp_check(f4, t42):
    res = monomial_cpp_check(2, 1, t42)
    assert res.params["exponent"] == 1 + 5
    assert res.verified_cpp() == res.predicted_cpp
    with pytest.raises(PreconditionViolated):
        monomial_cpp_check(2, -1, t42)


def test_monomial_check_rejects_alpha_zero(t42):
    with pytest.raises(PreconditionViolated):
        monomial_cpp_check(0, 1, t42)


def test_monomial_check_refuses_a_base_past_the_exhaustive_cap():
    # the witness table spans the whole base field, so F_(2^20) is refused
    # before any of its 2^20 values is computed
    tower = make_tower(make_extension(make_prime_field(2), 20), 1)
    with pytest.raises(OrderCapExceeded):
        monomial_cpp_check(2, 1, tower)


# --- unconditional monomial family -------------------------------------


def test_cppeg_both_configurations():
    for e, t, k in [(1, 4, 2), (2, 2, 1)]:
        admissible = []
        for alpha in range(1, 16):
            try:
                res = cppeg_construct(e, t, k, alpha)
            except PreconditionViolated:
                continue
            admissible.append(alpha)
            assert res.params["exponent"] == 409
            assert res.predicted_cpp is True
        assert len(admissible) == 10


def test_cppeg_rejects_bad_shapes(t42):
    with pytest.raises(PreconditionViolated, match="integer parameters"):
        cppeg_construct(1.0, 4, 2, 2)  # e not an int
    with pytest.raises(PreconditionViolated, match="e >= 1"):
        cppeg_construct(0, 4, 2, 2)
    with pytest.raises(PreconditionViolated):
        cppeg_construct(1, 4, 4, 2)  # k = t
    with pytest.raises(PreconditionViolated):
        cppeg_construct(1, 4, 1, 2)  # e = 1 with gcd(k, t) = 1
    with pytest.raises(PreconditionViolated):
        cppeg_construct(2, 2, 1, 0)  # alpha = 0
    with pytest.raises(PreconditionViolated):
        cppeg_construct(2, 2, 1, 1)  # 1 is a (r^k - 1)-th power
    with pytest.raises(FieldMismatch):
        cppeg_construct(2, 2, 1, 16)  # code outside F_16
    with pytest.raises(FieldMismatch):
        cppeg_construct(2, 2, 1, t42.decode(2))  # F_16/F_4 is not the flat F_16


def test_cppeg_takes_alpha_as_a_code_or_an_element_of_f16(f16):
    by_code, by_element = cppeg_construct(2, 2, 1, 2), cppeg_construct(2, 2, 1, f16.decode(2))
    assert by_element.params == by_code.params
    assert by_element.map_table() == by_code.map_table()


def test_cppeg_witness_collapses_to_frobenius_scaling():
    res = cppeg_construct(2, 2, 1, 2)
    assert res.extras["witness_map_exponent"] == 4
    base = res.tower.base
    wtab = [eval_poly(res.subfield_witness, x).code for x in base.elements()]
    assert wtab == [base._cmul(2, base._cpow(x, 4)) for x in range(16)]


# --- trace side ---------------------------------------------------------


def test_trace_simple_basic(f4, t43):
    res = trace_lift_simple(Poly(f4, [2, 1]), t43)
    assert res.construction == "trace-simple"
    assert res.verified_cpp() == res.predicted_cpp
    tab = res.map_table()
    assert tab == [eval_poly(res.lifted, x).code for x in t43.elements()]


def test_trace_simple_rejects_bad_constant_term(f4, t43):
    with pytest.raises(PreconditionViolated):
        trace_lift_simple(Poly(f4, [0, 1]), t43)
    # -1 = 1 in characteristic 2
    with pytest.raises(PreconditionViolated):
        trace_lift_simple(Poly(f4, [1, 1]), t43)


def test_trace_general_valid_instance(f4, t43):
    L = PPoly.monomial(t43, 1)
    res = trace_lift_general(Poly(f4, [1, 1]), L, 1, t43)
    assert res.construction == "trace-general"
    assert res.extras["proof_identity_holds"] is True
    assert res.verified_cpp() == res.predicted_cpp
    assert res.extras["strict_coefficient_form"] is False  # uses index 1 only


def test_trace_general_strict_form_flag(f4, t43):
    L = PPoly(t43, {0: 1, 1: 2})  # exactly indices 0..r-1
    res = trace_lift_general(Poly(f4, [2, 1]), L, 1, t43)
    assert res.extras["strict_coefficient_form"] is True


def test_trace_general_hypothesis_failure_names_the_break(f4, t43):
    L = PPoly.monomial(t43, 0)  # identity map; shifts cancel it easily
    with pytest.raises(HypothesisFails) as exc:
        trace_lift_general(Poly(f4, [0]), L, 1, t43)
    assert exc.value.b == 0 and exc.value.which_map == 0


def test_trace_general_rejects_zero_a_and_foreign_l(f4, t42, t43):
    L = PPoly.monomial(t43, 1)
    with pytest.raises(PreconditionViolated):
        trace_lift_general(Poly(f4, [1, 1]), L, 0, t43)
    with pytest.raises(FieldMismatch):
        trace_lift_general(Poly(f4, [1, 1]), L, 1, t42)


def test_trace_general_tables_h_and_the_witness_once(monkeypatch, f4, t43):
    # the hypothesis scan, the map and the proof identity all read one table
    # of h; the witness verdict reads one table of x*h(x); nothing else
    # evaluates a polynomial on F_q
    real = lifts.value_table
    tabled = []

    def counting_value_table(f, cap=None):
        tabled.append(f)
        return real(f, cap)

    def refuse(*args, **kwargs):
        raise AssertionError("h is evaluated pointwise")

    monkeypatch.setattr(lifts, "value_table", counting_value_table)
    monkeypatch.setattr(lifts, "eval_poly", refuse, raising=False)
    h = Poly(f4, [1, 1])
    res = trace_lift_general(h, PPoly.monomial(t43, 1), 1, t43)
    assert tabled == [h, res.subfield_witness]
    assert res.extras["proof_identity_holds"] is True


def test_every_builder_decides_its_witness_by_table_is_cpp(monkeypatch, f4, t42, t43):
    real = permcheck.is_complete_permutation

    def refuse(*args, **kwargs):
        raise AssertionError("a builder called is_complete_permutation")

    monkeypatch.setattr(lifts, "is_complete_permutation", refuse, raising=False)
    monkeypatch.setattr(permcheck, "is_complete_permutation", refuse)
    builds = [
        norm_lift(Poly(f4, [2, 1]), t42),
        monomial_cpp_check(2, 1, t42),
        cppeg_construct(2, 2, 1, 2),
        trace_lift_simple(Poly(f4, [2, 1]), t43),
        trace_lift_general(Poly(f4, [1, 1]), PPoly.monomial(t43, 1), 1, t43),
        trace_lift_binomial(Poly(f4, [1, 1]), 1, 1, t43),
    ]
    for res in builds:
        assert res.predicted_cpp == real(res.subfield_witness).both, res


def test_relabel_keeps_the_map_and_the_witness(f4, t43):
    inner = trace_lift_general(Poly(f4, [1, 1]), PPoly.monomial(t43, 1), 1, t43)
    res = inner.relabel("renamed", {"x": 1}, [("p", True)], {"e": 2})
    assert (res.construction, res.params, res.preconditions, res.extras) == (
        "renamed", {"x": 1}, [("p", True)], {"e": 2})
    assert res.tower == inner.tower and res.subfield_witness == inner.subfield_witness
    assert res.predicted_cpp == inner.predicted_cpp
    assert res.map_table() == inner.map_table() and res.lifted == inner.lifted
    assert inner.relabel("bare", {}, []).extras == {}


def test_trace_general_refuses_a_base_past_the_cap_before_the_scan(f4, t43):
    # h's table is the first thing built, so the hypothesis scan never runs
    with pytest.raises(OrderCapExceeded):
        trace_lift_general(Poly(f4, [0]), PPoly.monomial(t43, 0), 1, t43, cap=2)


def test_trace_lifts_refuse_a_tower_past_the_cap_before_any_kernel_scan(monkeypatch, f4, t43):
    # the base F_4 fits the cap and the tower F_64 does not: the builders
    # refuse rather than scan the tower's kernel
    def no_kernel_scan(*args, **kwargs):
        raise AssertionError("a kernel scan ran above the cap")

    monkeypatch.setattr(lifts, "ppoly_permutes_kernel", no_kernel_scan)
    h = Poly(f4, [1, 1])
    with pytest.raises(OrderCapExceeded, match="order 64 exceeds cap 16"):
        trace_lift_general(h, PPoly.monomial(t43, 1), 1, t43, cap=16)
    with pytest.raises(OrderCapExceeded, match="order 64 exceeds cap 16"):
        trace_lift_binomial(h, 1, 1, t43, cap=16)


def test_trace_binomial_matches_general_delegate(f4, t43):
    h = Poly(f4, [1, 1])
    via_binomial = trace_lift_binomial(h, 1, 1, t43)
    via_general = trace_lift_general(h, PPoly.monomial(t43, 1), 1, t43)
    assert via_binomial.map_table() == via_general.map_table()
    assert via_binomial.predicted_cpp == via_general.predicted_cpp
    assert via_binomial.construction == "trace-binomial"


def test_trace_binomial_arithmetic_preconditions(f4, t43):
    h = Poly(f4, [1, 1])
    with pytest.raises(PreconditionViolated):
        trace_lift_binomial(h, 0, 1, t43)  # k >= 1
    with pytest.raises(PreconditionViolated):
        trace_lift_binomial(h, 3, 1, t43)  # gcd(k, n) = 3
    t42 = make_tower(f4, 2)
    with pytest.raises(PreconditionViolated):
        trace_lift_binomial(h, 1, 1, t42)  # p divides n
    with pytest.raises(PreconditionViolated):
        trace_lift_binomial(h, 2, 1, t43)  # gcd(n, p^gcd(k,r) - 1) = 3
    with pytest.raises(PreconditionViolated):
        trace_lift_binomial(h, 1, 0, t43)  # a = 0


def test_trace_binomial_exhaustive_small_grid(f4, t43):
    # every a in F_4*, every h of degree <= 1 with nonzero coefficients
    for a in range(1, 4):
        for c0 in range(4):
            for c1 in range(4):
                res = trace_lift_binomial(Poly(f4, [c0, c1]), 1, a, t43)
                assert res.verified_cpp() == res.predicted_cpp
                assert res.extras["proof_identity_holds"] is True


# --- LiftResult plumbing ------------------------------------------------


def test_lift_result_caps(f4, t42):
    res = norm_lift(Poly(f4, [2, 1]), t42)
    with pytest.raises(OrderCapExceeded):
        res.map_table(cap=8)
    assert res.verified_cpp(cap=8) is None
    j = res.to_json(cap=8)
    assert j["verified_cpp"] is None
    assert j["predicted_cpp"] == res.predicted_cpp


def test_lift_result_json_shape(f4, t42):
    j = norm_lift(Poly(f4, [2, 1]), t42).to_json()
    assert set(j) == {
        "construction",
        "params",
        "preconditions",
        "subfield_witness",
        "lifted",
        "predicted_cpp",
        "verified_cpp",
    }
    assert all(set(p) == {"name", "holds"} for p in j["preconditions"])
    assert j["construction"] == "norm-lift"


def test_lift_result_refuses_giant_expansion(f4):
    # degree 64 h over a 6-step tower pushes the dense form past the guard,
    # but the pointwise map keeps working
    t46 = make_tower(f4, 6)
    h = Poly(f4, [2] + [0] * 63 + [1])
    res = trace_lift_simple(h, t46)
    with pytest.raises(OrderCapExceeded):
        _ = res.lifted
    j = res.to_json(cap=64)  # small cap also skips the exhaustive pass
    assert j["lifted"] is None
    assert j["verified_cpp"] is None
    assert res.evaluate(FieldElement(t46, 5)).home == t46


def test_lifted_expansion_represents_the_same_map(f4, t42):
    res = norm_lift(Poly(f4, [2, 1]), t42)
    dense = res.lifted
    for x in t42.elements():
        assert eval_poly(dense, x) == res.evaluate(x)


# --- whole-field list passes against the per-point map ----------------------


def _random_base_poly(base, rng, degree=3):
    return Poly(base, [rng.randrange(base.order) for _ in range(degree + 1)])


def _random_ppoly(tower, rng):
    """A p-polynomial with a nonzero a_0 and one or two higher indices."""
    base = tower.base
    coeffs = {0: rng.randrange(1, base.order)}
    for i in rng.sample(range(1, tower.full_degree), min(2, tower.full_degree - 1)):
        coeffs[i] = rng.randrange(1, base.order)
    return PPoly(tower, coeffs)


def _builds(tower, rng):
    """One LiftResult per builder that admits the tower, on seeded inputs.

    The callers stub out the kernel hypothesis of the trace lifts: the map
    is defined whether or not it holds, and few random L pass it.
    """
    base, q, n = tower.base, tower.q, tower.n
    out = {}
    if math.gcd(n, q - 1) == 1:
        out["norm-lift"] = norm_lift(_random_base_poly(base, rng), tower)
        out["monomial"] = monomial_cpp_check(rng.randrange(1, q), rng.randrange(4), tower)
    h0s = [c for c in range(q) if c not in (0, base._cneg(1))]  # none over F_2
    if h0s:
        h = Poly(base, [rng.choice(h0s)] + [rng.randrange(q) for _ in range(3)])
        out["trace-simple"] = trace_lift_simple(h, tower)
    out["trace-general"] = trace_lift_general(
        _random_base_poly(base, rng), _random_ppoly(tower, rng), rng.randrange(1, q), tower)
    for k in range(1, tower.full_degree):
        try:
            out["trace-binomial"] = trace_lift_binomial(
                _random_base_poly(base, rng), k, rng.randrange(1, q), tower)
            break
        except PreconditionViolated:
            pass
    return out


@pytest.fixture
def no_kernel_hypothesis(monkeypatch):
    monkeypatch.setattr(lifts, "ppoly_permutes_kernel", lambda L: True)


def _assert_table_is_the_pointwise_map(res):
    f = res._map_code
    assert res.map_table() == [f(x) for x in range(res.tower.order)], res


def test_every_builder_lists_its_pointwise_map_on_every_tower_up_to_729(no_kernel_hypothesis):
    rng = random.Random(729)
    seen = Counter()
    for tower in tower_grid(729):
        for name, res in _builds(tower, rng).items():
            _assert_table_is_the_pointwise_map(res)
            seen[name] += 1
    # cppeg's towers: q = 16 = 2^(e*t) with (e, t, k) = (2, 2, 1) and (1, 4, 2)
    for e, t, k in ((2, 2, 1), (1, 4, 2)):
        res = cppeg_construct(e, t, k, 2)
        _assert_table_is_the_pointwise_map(res)
        seen[res.construction] += 1
    towers = tower_grid(729)
    norm_towers = len(norm_lift_pairs(729))
    assert seen == {"norm-lift": norm_towers, "monomial": norm_towers,
                    "trace-simple": sum(t.q > 2 for t in towers),
                    "trace-general": len(towers), "trace-binomial": 8, "cppeg": 2}, seen


@pytest.mark.parametrize(
    "p, r, n",
    [(2, 1, 12), (2, 6, 2), (5, 1, 5), (3, 1, 7)],
    ids=["F_4096/F_2", "F_4096/F_64", "F_3125/F_5", "F_2187/F_3"],
)
def test_every_builder_lists_its_pointwise_map_on_seeded_large_towers(
    no_kernel_hypothesis, p, r, n
):
    tower = make_tower(make_extension(make_prime_field(p), r), n)
    builds = _builds(tower, random.Random(tower.order))
    assert {"norm-lift", "monomial", "trace-general"} <= set(builds)
    assert ("trace-simple" in builds) == (tower.q > 2)
    for res in builds.values():
        _assert_table_is_the_pointwise_map(res)


@pytest.mark.parametrize("p, r, n", [(2, 2, 3), (3, 1, 3), (3, 2, 2), (5, 1, 3)],
                         ids=["F_64/F_4", "F_27/F_3", "F_81/F_9", "F_125/F_5"])
def test_trace_general_lists_the_map_of_its_dense_polynomial(no_kernel_hypothesis, p, r, n):
    # the dense form reads A(0) = a_0 off the quotient polynomial: an
    # independent route for A on the kernel, where A(0) enters the map
    tower = make_tower(make_extension(make_prime_field(p), r), n)
    rng = random.Random(tower.order + 1)
    for _ in range(3):
        L = _random_ppoly(tower, rng)
        res = trace_lift_general(_random_base_poly(tower.base, rng, 2), L,
                                 rng.randrange(1, tower.q), tower)
        assert res.map_table() == permcheck.value_table(res.lifted), L


def test_proof_identity_fails_on_a_corrupted_table(f4, t43):
    h = Poly(f4, [1, 1])
    res = trace_lift_general(h, PPoly.monomial(t43, 1), 1, t43)
    assert res.extras["proof_identity_holds"] is True
    htab, tr = permcheck.value_table(h), trace_list(t43)
    table = res.map_table()
    assert lifts._proof_identity_holds(f4, htab, tr, table) is True
    # move one value to a code of another trace
    x = 37
    table[x] = next(y for y in range(t43.order) if tr[y] != tr[table[x]])
    assert lifts._proof_identity_holds(f4, htab, tr, table) is False
    assert res.map_table() != table  # each call hands out its own copy
