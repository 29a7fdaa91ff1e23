"""Acceptance gate: eight criteria, one printed verdict line each.

Each test prints `cN <label> ... PASS/FAIL (<detail>)` through the capture
bypass so the lines are visible in a normal pytest run, then asserts. The
stated runtime budgets are asserted too, from the sweeps' own timers or a
perf counter around the work.
"""

import math
import time

import numpy as np
import pytest

from cppforge import (
    FieldElement,
    PPoly,
    Poly,
    brute_complete_mappings,
    cppeg_construct,
    enumerate_complete_mappings,
    fiber_criterion_verify,
    is_complete_permutation,
    make_extension,
    make_prime_field,
    make_tower,
    rel_norm,
    to_h_form,
    tower_grid,
    trace_lift_binomial,
    trace_lift_general,
)
from cppforge.errors import HypothesisFails, PreconditionViolated
from cppforge.maps import binomial_kernel_criterion, ppoly_permutes_kernel
from cppforge.permcheck import value_table
from cppforge.tables import base_tables, tower_tables
from table_invariants import norm_multiplicative, trace_additive


def _report(capsys, cid: str, label: str, ok: bool, detail: str):
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{cid} {label}: {mark} ({detail})")


def _quadratic_hs(q):
    """Every h over F_q of degree <= 2, as coefficient triples."""
    return [[c0, c1, c2] for c2 in range(q) for c1 in range(q) for c0 in range(q)]


# --- c1 -----------------------------------------------------------------


def test_c1_norm_lift_equivalence_full_grid(capsys, thm22_full):
    rep = thm22_full
    ok = (
        rep.clean
        and rep.cases == 305888
        and rep.agreements == rep.cases
        and (rep.true_outcomes, rep.false_outcomes) == (382, 305506)
        and len(rep.extras["pairs"]) == 27
        and rep.extras["fiber_cases"] == rep.extras["fiber_agreements"] == 305888
        and rep.extras["builder_crosschecks"] == 180
        and rep.elapsed < 60.0
    )
    _report(
        capsys, "c1", "norm-lift equivalence sweep (thm2.2 grid)",
        ok, f"{rep.cases} cases, {len(rep.extras['pairs'])} pairs, {rep.elapsed:.1f}s",
    )
    assert rep.clean, rep.counterexamples[:3]
    assert rep.cases == 305888 and rep.agreements == 305888
    assert rep.true_outcomes == 382 and rep.false_outcomes == 305506
    assert len(rep.extras["pairs"]) == 27
    assert rep.extras["fiber_cases"] == 305888
    assert rep.extras["fiber_agreements"] == 305888
    assert rep.extras["builder_crosschecks"] == 180
    assert rep.elapsed < 60.0


# --- c2 -----------------------------------------------------------------


def test_c2_unconditional_monomials_on_f256(capsys):
    t0 = time.perf_counter()
    built = 0
    for e, t, k in [(1, 4, 2), (2, 2, 1)]:
        admissible = 0
        for alpha in range(1, 16):
            try:
                res = cppeg_construct(e, t, k, alpha)
            except PreconditionViolated:
                continue
            admissible += 1
            assert res.params["exponent"] == 409
            assert res.tower.order == 256
            assert res.verified_cpp(256) is True
        assert admissible == 10
        built += admissible
    elapsed = time.perf_counter() - t0
    ok = built == 20 and elapsed < 1.0
    _report(capsys, "c2", "unconditional monomial family (cor2.5 pairs)",
            ok, f"{built} monomials exhaustively CPP on F_256, {elapsed:.2f}s")
    assert built == 20
    assert elapsed < 1.0


# --- c3 -----------------------------------------------------------------


def test_c3_kernel_criterion_soundness(capsys, lemma34_full):
    rep = lemma34_full
    # the remark's instance: F_16 over F_4, k = 1, every c with c^3 = 1
    tw = make_tower(make_extension(make_prime_field(2), 2), 2)
    necessity_fails = []
    for c in range(1, 4):
        assert tw.base._cpow(c, 3) == 1
        v = binomial_kernel_criterion(1, c, tw)
        actual = ppoly_permutes_kernel(PPoly.monomial(tw, 1), shift=c)
        necessity_fails.append(v.case_applied == "NoCaseApplies" and actual is False)
    ok = (
        rep.clean
        and rep.cases == 1287
        and rep.true_outcomes == 1287  # every applied case predicts True, confirmed
        and rep.skipped == 693
        and all(necessity_fails)
        and rep.elapsed < 30.0
    )
    _report(capsys, "c3", "kernel-binomial criterion soundness (lemma3.4 grid)",
            ok, f"{rep.cases} predictions confirmed, {rep.skipped} no-case rows, "
                f"necessity instance fails, {rep.elapsed:.1f}s")
    assert rep.clean, rep.counterexamples[:3]
    assert rep.cases == 1287 and rep.agreements == 1287
    assert rep.true_outcomes == 1287
    assert rep.skipped == 693
    assert all(necessity_fails)
    assert rep.elapsed < 30.0


# --- c4 (the 192 builds are shared with c5 and c6) ------------------------


@pytest.fixture(scope="module")
def binomial_grid_builds():
    """All 192 trace-binomial lifts on F_64 / F_4 with k = 1."""
    f4 = make_extension(make_prime_field(2), 2)
    t43 = make_tower(f4, 3)
    t0 = time.perf_counter()
    out = []
    for a in range(1, 4):
        for hc in _quadratic_hs(4):
            h = Poly(f4, hc)
            res = trace_lift_binomial(h, 1, a, t43)
            out.append(res)
    return out, time.perf_counter() - t0, t43


def test_c4_binomial_lift_grid(capsys, binomial_grid_builds):
    builds, elapsed, _ = binomial_grid_builds
    agree = sum(1 for res in builds if res.verified_cpp(64) == res.predicted_cpp)
    ok = len(builds) == 192 and agree == 192 and elapsed < 10.0
    _report(capsys, "c4", "trace-binomial lift grid (thm3.7, q=4 n=3 k=1)",
            ok, f"{agree}/{len(builds)} lifted vs witness agreements, {elapsed:.1f}s")
    assert len(builds) == 192
    assert agree == 192
    assert elapsed < 10.0


# --- c5 -----------------------------------------------------------------


def test_c5_trace_identity(capsys, binomial_grid_builds):
    builds, _, _ = binomial_grid_builds
    grid_ok = sum(1 for res in builds if res.extras["proof_identity_holds"] is True)

    rng = np.random.default_rng(20260819)
    towers = [
        make_tower(make_extension(make_prime_field(2), 2), 3),
        make_tower(make_prime_field(5), 2),
    ]
    random_ok = 0
    attempts = 0
    while random_ok < 50 and attempts < 4000:
        attempts += 1
        tw = towers[int(rng.integers(0, len(towers)))]
        q, deg = tw.q, tw.full_degree
        hc = [int(v) for v in rng.integers(0, q, size=3)]
        lc = {
            int(i): int(rng.integers(0, q))
            for i in range(deg)
            if rng.integers(0, 2)
        }
        if not any(lc.values()):
            continue
        a = int(rng.integers(1, q))
        try:
            res = trace_lift_general(Poly(tw.base, hc), PPoly(tw, lc), a, tw)
        except HypothesisFails:
            continue
        assert res.extras["proof_identity_holds"] is True
        random_ok += 1
    ok = grid_ok == 192 and random_ok == 50
    _report(capsys, "c5", "trace product identity (thm3.3 proof check)",
            ok, f"{grid_ok}/192 grid instances, {random_ok}/50 random general instances")
    assert grid_ok == 192
    assert random_ok == 50


# --- c6 -----------------------------------------------------------------


def test_c6_fiber_criterion_crosscheck(capsys, thm22_full, binomial_grid_builds):
    # norm-lift polynomials: folded into the full sweep, one verdict per case
    sweep_ok = (
        thm22_full.extras["fiber_cases"] == thm22_full.cases
        and thm22_full.extras["fiber_agreements"] == thm22_full.cases
    )

    # unconditional monomials: lambda = nor, induced map v -> nor(alpha) * v^4
    direct = 0
    agreements = 0
    for e, t, k in [(1, 4, 2), (2, 2, 1)]:
        for alpha in range(1, 16):
            try:
                res = cppeg_construct(e, t, k, alpha)
            except PreconditionViolated:
                continue
            tower = res.tower
            base = tower.base
            nor_alpha = rel_norm(FieldElement(tower, alpha)).code
            htab = [base._cmul(nor_alpha, base._cpow(v, 4)) for v in range(16)]
            facts = fiber_criterion_verify(
                res.map_table(256), htab, lambda_kind="norm", tower=tower
            )
            direct += 1
            if facts.square_commutes and facts.conclusion == facts.cross_check:
                agreements += 1

    # trace lifts: lambda = tr, induced map is the subfield witness itself
    builds, _, t43 = binomial_grid_builds
    for res in builds:
        htab = value_table(res.subfield_witness)
        facts = fiber_criterion_verify(
            res.map_table(64), htab, lambda_kind="trace", tower=t43
        )
        direct += 1
        if facts.square_commutes and facts.conclusion == facts.cross_check:
            agreements += 1

    ok = sweep_ok and direct == 212 and agreements == 212
    _report(capsys, "c6", "commuting-square crosscheck on constructed maps",
            ok, f"{thm22_full.extras['fiber_cases']} swept + {agreements}/{direct} direct")
    assert sweep_ok
    assert direct == 212 and agreements == 212


# --- c7 -----------------------------------------------------------------


def test_c7_substrate_invariants_every_tower(capsys):
    towers = tower_grid(4096)
    rng = np.random.default_rng(20260819)
    checked = 0
    for tw in towers:
        tt = tower_tables(tw)
        bt = base_tables(tw.base)
        q, n, order = tw.q, tw.n, tw.order
        xs = np.arange(order, dtype=np.int64)

        assert trace_additive(tt), tw
        assert norm_multiplicative(tt), tw
        assert np.unique(tt.TR).size == q, tw
        assert np.unique(tt.NOR).size == q, tw
        assert len(tt.KERNEL) == order // q, tw
        assert (tt.TR[tt.KERNEL] == 0).all(), tw

        # F_q-linearity of the trace
        tr_xs = tt.TR[xs]
        for c in range(q):
            assert np.array_equal(tt.TR[tt.scale_row(c)[xs]], bt.MUL[c, tr_xs]), (tw, c)

        # the trace of an embedded base element is its n-fold sum
        assert np.array_equal(tt.TR[np.arange(q)], bt.MUL[n % tw.p, np.arange(q)]), tw

        # additive maps commute with the trace: L(tr(x)) = tr(L(x))
        for _ in range(2):
            coeffs = {
                int(i): int(rng.integers(0, q))
                for i in range(tw.full_degree)
                if rng.integers(0, 2)
            }
            if not any(coeffs.values()):
                coeffs = {0: 1}
            ltab = np.zeros(order, dtype=np.int64)
            for i, a in coeffs.items():
                if a:
                    ltab = tt.add(ltab, tt.scale_row(a)[tt.pow_map(xs, tw.p**i)])
            assert np.array_equal(ltab[tr_xs], tt.TR[ltab]), (tw, coeffs)
        checked += 1

    ok = checked == 57
    _report(capsys, "c7", "algebraic substrate invariants on every tower",
            ok, f"{checked}/57 towers exhaustively checked")
    assert checked == 57


# --- c8 -----------------------------------------------------------------


def test_c8_search_round_trip(capsys):
    t0 = time.perf_counter()
    counts = {}
    for q in (3, 4, 5, 7, 8):
        field = (
            make_extension(make_prime_field(2), q.bit_length() - 1)
            if q in (4, 8)
            else make_prime_field(q)
        )
        found = enumerate_complete_mappings(field)
        counts[q] = len(found)
        assert [m.table for m in found] == brute_complete_mappings(field)
        for m in found:
            assert is_complete_permutation(m.poly).both
            h = to_h_form(m.poly, 1)  # proves x*h(x) = f pointwise, or raises
            assert h.home == field
        # one twisting exponent per field, when admissible
        for nn in range(2, q - 1):
            if math.gcd(nn, q - 1) == 1:
                for m in found:
                    to_h_form(m.poly, nn)
                break
    elapsed = time.perf_counter() - t0
    want = {3: 1, 4: 2, 5: 3, 7: 19, 8: 48}
    ok = counts == want and elapsed < 5.0
    _report(capsys, "c8", "complete-mapping search round trip",
            ok, f"counts {counts}, dual paths agree, {elapsed:.2f}s")
    assert counts == want
    assert elapsed < 5.0
