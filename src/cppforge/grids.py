"""Exhaustive desk-scale sweeps over whole parameter grids.

Every sweep compares a construction's prediction (decided on the base
field) against an exhaustive check on the extension, case by case, and
reports counts plus any counterexamples. Reports are expected to come
back clean; a nonempty counterexample list means either the library or
the equivalence bookkeeping is wrong, and the tests fail loudly on it.

The heavy sweeps run on the numpy tables; each one also replays a seeded
sample of its cases through the scalar builders so the fast path and the
reference path vouch for each other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import HypothesisFails, PreconditionViolated
from .fields import (
    FieldDesc,
    FieldElement,
    Poly,
    TowerDesc,
    make_extension,
    make_prime_field,
    make_tower,
)
from .lifts import (
    cppeg_construct,
    monomial_cpp_check,
    norm_lift,
    trace_lift_binomial,
    trace_lift_general,
    trace_lift_simple,
)
from .maps import PPoly, binomial_kernel_criterion, norm_exponent
from .tables import base_tables, bijective_rows, cpp_rows, tower_tables

DEFAULT_SEED = 20260819

_TOWERS: dict[tuple[int, int, int], TowerDesc] = {}


def _tower(p: int, r: int, n: int) -> TowerDesc:
    key = (p, r, n)
    if key not in _TOWERS:
        base = make_prime_field(p) if r == 1 else make_extension(make_prime_field(p), r)
        _TOWERS[key] = make_tower(base, n)
    return _TOWERS[key]


def _primes_upto(m: int) -> list[int]:
    sieve = [True] * (m + 1)
    out = []
    for v in range(2, m + 1):
        if sieve[v]:
            out.append(v)
            for w in range(v * v, m + 1, v):
                sieve[w] = False
    return out


def tower_grid(max_order: int = 4096) -> list[TowerDesc]:
    """Every two-level tower F_{q^n}/F_q with n >= 2 and q^n <= max_order."""
    out = []
    for p in _primes_upto(int(math.isqrt(max_order))):
        r = 1
        while p ** (2 * r) <= max_order:
            n = 2
            while p ** (r * n) <= max_order:
                out.append(_tower(p, r, n))
                n += 1
            r += 1
    out.sort(key=lambda t: (t.order, t.p, t.base.r))
    return out


def norm_lift_pairs(max_order: int = 4096) -> list[tuple[int, int]]:
    """(q, n) pairs admissible for the norm lift: gcd(n, q-1) = 1, q^n <= cap."""
    pairs = []
    for t in tower_grid(max_order):
        if math.gcd(t.n, t.q - 1) == 1:
            pairs.append((t.q, t.n))
    pairs.sort()
    return pairs


@dataclass
class SweepReport:
    token: str
    cases: int = 0
    agreements: int = 0
    true_outcomes: int = 0
    false_outcomes: int = 0
    skipped: int = 0
    counterexamples: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.counterexamples and self.agreements == self.cases

    def note(self, ok: bool, outcome: bool, detail: Optional[dict] = None):
        self.cases += 1
        if outcome:
            self.true_outcomes += 1
        else:
            self.false_outcomes += 1
        if ok:
            self.agreements += 1
        else:
            self.counterexamples.append(detail or {})

    def to_json(self) -> dict:
        return {
            "token": self.token,
            "cases": self.cases,
            "agreements": self.agreements,
            "true_outcomes": self.true_outcomes,
            "false_outcomes": self.false_outcomes,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
            "extras": self.extras,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _distinct_pairs(lam_scaled: np.ndarray, tabs: np.ndarray, order: int) -> np.ndarray:
    """Rowwise: is x -> (lambda(x), f(x)) injective? Exact, via key sort."""
    keys = np.sort(lam_scaled[None, :] + tabs, axis=1)
    return (np.diff(keys, axis=1) != 0).sum(axis=1) + 1 == order


def _mul_by_x(tt, vals: np.ndarray) -> np.ndarray:
    """Rowwise x * vals[., x] over the tower, vals already embedded codes."""
    return tt.MEXP[tt.LOG[vals] + tt.LOG[None, :]]


def _lift_rows(tt, hcols: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Rowwise x * hcols[., sel[x]] without materializing the wide gather.

    hcols holds base-field values (one row per h), sel maps each tower
    element to its base column (the norm or trace table).
    """
    logs = tt.LOG[hcols][:, sel] + tt.LOG[None, :]
    return tt.MEXP[logs]


def _all_h_coeffs(q: int, max_degree: int) -> np.ndarray:
    """Every nonzero coefficient vector of length max_degree+1, lex order."""
    m = max_degree + 1
    grids = np.meshgrid(*[np.arange(q, dtype=np.int32)] * m, indexing="ij")
    cols = [g.reshape(-1) for g in reversed(grids)]  # c0 varies slowest overall
    mat = np.stack(cols, axis=1)
    return mat[(mat != 0).any(axis=1)]


def _random_h_coeffs(q: int, count: int, rng) -> np.ndarray:
    """Seeded random h of degree < q, padded to a common width."""
    out = np.zeros((count, q), dtype=np.int32)
    degs = rng.integers(0, q, size=count)
    for i, d in enumerate(degs):
        row = rng.integers(0, q, size=d + 1)
        row[d] = rng.integers(1, q)
        out[i, : d + 1] = row
    return out


def _batched_horner(bt, coeffs: np.ndarray) -> np.ndarray:
    xs = np.arange(bt.q, dtype=np.int32)[None, :]
    acc = np.zeros((coeffs.shape[0], bt.q), dtype=np.int32)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        acc = bt.ADD[bt.MUL[acc, xs], coeffs[:, j][:, None]]
    return acc


def sweep_norm_lift(
    max_order: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    random_h: int = 100,
    max_h_degree: int = 2,
) -> SweepReport:
    """x*h(nor(x)) CPP on the tower vs x*h(x^n) CPP on the base.

    Runs over every admissible (q, n) pair, every nonzero h of degree <=
    max_h_degree, plus seeded random h of degree < q. The fiber-criterion
    verdict (lambda = nor, induced map v -> v*h(v)^n) is folded into the
    same pass and must agree with the direct permutation check.
    """
    max_order = 4096 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("thm2.2")
    t0 = time.perf_counter()
    fiber_agree = 0
    fiber_cases = 0
    builder_checks = 0
    for q, n in norm_lift_pairs(max_order):
        p, r = _prime_power(q)
        tower = _tower(p, r, n)
        bt = base_tables(tower.base)
        tt = tower_tables(tower)
        order = tt.order
        xs_b = np.arange(q, dtype=np.int32)
        pow_n = bt.pow_all(n)  # x -> x^n: substitution index and induced-map power
        lam_scaled = (tt.NOR.astype(np.int64) * order).astype(np.int32)
        all_h = _all_h_coeffs(q, max_h_degree)
        rand_h = _random_h_coeffs(q, random_h, rng)
        blocks = [all_h] if rand_h.size == 0 else [all_h, rand_h]
        sample_idx = set(rng.integers(0, len(all_h), size=8).tolist())
        row_budget = max(1, (1 << 21) // order)
        done = 0
        for block in blocks:
            for lo in range(0, len(block), row_budget):
                coeffs = block[lo : lo + row_budget]
                hv = _batched_horner(bt, coeffs)
                # witness x*h(x^n) on the base
                wit = bt.MUL[xs_b[None, :], hv[:, pow_n]]
                _, wit_cpp = cpp_rows(bt, wit)
                # lifted x*h(nor x) on the tower
                lifted = _lift_rows(tt, hv, tt.NOR)
                perm, lift_cpp = cpp_rows(tt, lifted)
                # fiber criterion with induced v -> v*h(v)^n; the pair scan
                # only decides the conclusion when the induced map bijects
                h_ind = bt.MUL[xs_b[None, :], pow_n[hv]]
                square_ok = (tt.NOR[lifted] == h_ind[:, tt.NOR]).all(axis=1)
                h_bij = bijective_rows(h_ind)
                conclusion = h_bij.copy()
                if h_bij.any():
                    conclusion[h_bij] = _distinct_pairs(lam_scaled, lifted[h_bij], order)
                fiber_cases += len(coeffs)
                fiber_ok = (conclusion == perm) & square_ok
                fiber_agree += int(fiber_ok.sum())
                for i in np.flatnonzero(~fiber_ok):
                    rep.counterexamples.append(
                        {"q": q, "n": n, "h": coeffs[i].tolist(), "why": "fiber verdict"})
                for i in range(len(coeffs)):
                    ok = bool(wit_cpp[i] == lift_cpp[i])
                    if not ok:
                        rep.note(False, bool(lift_cpp[i]),
                                 {"q": q, "n": n, "h": coeffs[i].tolist()})
                    else:
                        rep.note(True, bool(lift_cpp[i]))
                done += len(coeffs)
        # replay a seeded sample through the scalar builder; big towers get
        # one full-table replay and seeded point pinning for the rest, small
        # ones replay the whole table every time
        full_budget = len(sample_idx) if order < 1024 else 1
        for i in sorted(sample_idx):
            h = Poly(tower.base, [int(c) for c in all_h[i]])
            res = norm_lift(h, tower)
            hv1 = _batched_horner(bt, all_h[i : i + 1])
            wit1 = bt.MUL[xs_b[None, :], hv1[:, pow_n]]
            assert bool(cpp_rows(bt, wit1)[1][0]) == res.predicted_cpp
            lifted1 = _lift_rows(tt, hv1, tt.NOR)
            if full_budget > 0:
                full_budget -= 1
                ver = res.verified_cpp(order)
                assert bool(cpp_rows(tt, lifted1)[1][0]) == ver
            else:
                for x in rng.integers(0, order, size=32):
                    xe = FieldElement(tower, int(x))
                    assert res.evaluate(xe).code == int(lifted1[0, x])
            builder_checks += 1
    rep.extras = {
        "pairs": norm_lift_pairs(max_order),
        "fiber_cases": fiber_cases,
        "fiber_agreements": fiber_agree,
        "builder_crosschecks": builder_checks,
    }
    rep.elapsed = time.perf_counter() - t0
    return rep


def _prime_power(q: int) -> tuple[int, int]:
    for p in _primes_upto(q):
        if q % p == 0:
            r = 0
            m = q
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, r
    raise ValueError(f"{q} is not a prime power")


def sweep_monomial_norm(max_order: Optional[int] = None, seed: int = DEFAULT_SEED) -> SweepReport:
    """alpha*x^(1+s*(q^n-1)/(q-1)) vs alpha*x^(1+ns), all s in 0..q-2, all alpha."""
    max_order = 4096 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("cor2.3")
    t0 = time.perf_counter()
    builder_checks = 0
    for q, n in norm_lift_pairs(max_order):
        p, r = _prime_power(q)
        tower = _tower(p, r, n)
        bt = base_tables(tower.base)
        tt = tower_tables(tower)
        npow = norm_exponent(tower)
        alphas = np.arange(1, q)
        replays = 0
        for s in range(max(q - 1, 1)):
            wtab_all = bt.pow_all(1 + n * s)
            ltab_all = tt.pow_all(1 + s * npow)
            # one row per alpha = 1..q-1
            _, wcpp = cpp_rows(bt, bt.MUL[alphas[:, None], wtab_all[None, :]])
            _, lcpp = cpp_rows(tt, tt.mul(alphas[:, None], ltab_all[None, :]))
            for alpha, w, lc in zip(range(1, q), wcpp.tolist(), lcpp.tolist()):
                rep.note(w == lc, lc, {"q": q, "n": n, "s": s, "alpha": alpha})
            if replays < 3 and rng.integers(0, 4) == 0:
                alpha = int(rng.integers(1, q))
                res = monomial_cpp_check(alpha, s, tower)
                assert res.verified_cpp(tt.order) == res.predicted_cpp
                replays += 1
                builder_checks += 1
    rep.extras = {"builder_crosschecks": builder_checks}
    rep.elapsed = time.perf_counter() - t0
    return rep


def sweep_quadratic_monomials(max_order: Optional[int] = None, seed: int = DEFAULT_SEED) -> SweepReport:
    """The unconditional quadratic-extension monomial family, all (e, t, k, alpha).

    Admissible alpha give CPPs with no side condition, so every outcome
    must be True; inadmissible alpha are counted as skipped after their
    rejection is confirmed.
    """
    max_order = 4096 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("cor2.5")
    t0 = time.perf_counter()
    builder_checks = 0
    for et in range(2, 31):
        if 2 ** (2 * et) > max_order:
            break
        for e in range(1, et + 1):
            if et % e:
                continue
            t = et // e
            for k in range(1, t):
                if e == 1 and math.gcd(k, t) == 1:
                    continue
                base = make_extension(make_prime_field(2), et)
                q = base.q
                g = math.gcd(2 ** (e * k) - 1, q - 1)
                tt = None
                for alpha in range(1, q):
                    admissible = base._cpow(alpha, (q - 1) // g) != 1
                    if not admissible:
                        try:
                            cppeg_construct(e, t, k, alpha)
                            rep.note(False, False,
                                     {"e": e, "t": t, "k": k, "alpha": alpha,
                                      "why": "inadmissible alpha accepted"})
                        except PreconditionViolated:
                            rep.skipped += 1
                        continue
                    res = cppeg_construct(e, t, k, alpha)
                    if tt is None:
                        tt = tower_tables(res.tower)
                        exp_tab = tt.pow_all(res.params["exponent"])
                    ver = bool(cpp_rows(tt, tt.scale_row(alpha)[exp_tab][None, :])[1][0])
                    rep.note(res.predicted_cpp is True and ver, ver,
                             {"e": e, "t": t, "k": k, "alpha": alpha})
                    if builder_checks < 4 and rng.integers(0, 5) == 0:
                        assert res.verified_cpp(tt.order) == ver
                        builder_checks += 1
    rep.extras = {"builder_crosschecks": builder_checks}
    rep.elapsed = time.perf_counter() - t0
    return rep


def sweep_trace_simple(
    max_order: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    max_h_degree: int = 2,
) -> SweepReport:
    """x*h(tr(x)) CPP on the tower vs x*h(x) CPP on the base, admissible h."""
    max_order = 1024 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("thm3.2")
    t0 = time.perf_counter()
    builder_checks = 0
    for tower in tower_grid(max_order):
        bt = base_tables(tower.base)
        tt = tower_tables(tower)
        q, order = tower.q, tower.order
        minus_one = tower.base._cneg(1)
        xs_b = np.arange(q, dtype=np.int32)
        all_h = _all_h_coeffs(q, max_h_degree)
        all_h = all_h[(all_h[:, 0] != 0) & (all_h[:, 0] != minus_one)]
        if len(all_h) == 0:
            continue
        sample_idx = set(rng.integers(0, len(all_h), size=4).tolist())
        row_budget = max(1, (1 << 21) // order)
        for lo in range(0, len(all_h), row_budget):
            coeffs = all_h[lo : lo + row_budget]
            hv = _batched_horner(bt, coeffs)
            wit = bt.MUL[xs_b[None, :], hv]
            _, wit_cpp = cpp_rows(bt, wit)
            lifted = _lift_rows(tt, hv, tt.TR)
            _, lift_cpp = cpp_rows(tt, lifted)
            for i in range(len(coeffs)):
                rep.note(bool(wit_cpp[i] == lift_cpp[i]), bool(lift_cpp[i]),
                         {"q": q, "n": tower.n, "h": coeffs[i].tolist()})
        for i in sorted(sample_idx):
            h = Poly(tower.base, [int(c) for c in all_h[i]])
            res = trace_lift_simple(h, tower)
            assert res.verified_cpp(order) == bool(
                cpp_rows(tt, _lift_rows(tt, _batched_horner(bt, all_h[i : i + 1]), tt.TR))[1][0]
            )
            builder_checks += 1
    rep.extras = {"builder_crosschecks": builder_checks}
    rep.elapsed = time.perf_counter() - t0
    return rep


def _random_ppoly(tower: TowerDesc, rng) -> PPoly:
    nterms = int(rng.integers(1, 3))
    idxs = rng.choice(tower.full_degree, size=min(nterms, tower.full_degree), replace=False)
    pairs = [(int(i), int(rng.integers(1, tower.q))) for i in idxs]
    return PPoly(tower, pairs)


def sweep_trace_general(max_order: Optional[int] = None, seed: int = DEFAULT_SEED) -> SweepReport:
    """The H(x) = h(tr x) + a*A(tr x) - a*A(x) lift, seeded L sample per tower.

    Cases whose kernel hypothesis fails are counted as skipped; built
    cases must match the exhaustive CPP check and carry a verified proof
    identity.
    """
    max_order = 256 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("thm3.3")
    t0 = time.perf_counter()
    hypothesis_failures = 0
    for tower in tower_grid(max_order):
        base = tower.base
        q = tower.q
        ppolys = [PPoly.monomial(tower, k) for k in range(1, min(tower.full_degree, 4))]
        ppolys += [_random_ppoly(tower, rng) for _ in range(2)]
        lin_h = _all_h_coeffs(q, 1)
        h_list = [lin_h[i] for i in rng.integers(0, len(lin_h), size=min(6, len(lin_h)))]
        a_list = sorted({int(a) for a in rng.integers(1, q, size=2)})
        for L in ppolys:
            for hc in h_list:
                h = Poly(base, [int(c) for c in hc])
                for a in a_list:
                    try:
                        res = trace_lift_general(h, L, a, tower)
                    except HypothesisFails:
                        hypothesis_failures += 1
                        rep.skipped += 1
                        continue
                    ver = res.verified_cpp(tower.order)
                    ok = (ver == res.predicted_cpp
                          and res.extras["proof_identity_holds"] is True)
                    rep.note(ok, bool(ver),
                             {"q": q, "n": tower.n, "h": hc.tolist(),
                              "L": L.text(), "a": a})
    rep.extras = {"hypothesis_failures": hypothesis_failures}
    rep.elapsed = time.perf_counter() - t0
    return rep


def sweep_trace_binomial(
    max_order: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    max_h_degree: int = 2,
) -> SweepReport:
    """L = x^(p^k) lifts on every tower/k passing the arithmetic conditions.

    The batched path recomputes H(x) = h(tr x) + a*(A(tr x) - A(x)) from
    scratch per case; a seeded sample per (tower, k) replays through
    trace_lift_binomial, which also re-verifies the kernel hypothesis the
    arithmetic conditions promise.
    """
    max_order = 256 if max_order is None else max_order
    rng = np.random.default_rng(seed)
    rep = SweepReport("thm3.7")
    t0 = time.perf_counter()
    builder_checks = 0
    identity_failures = 0
    for tower in tower_grid(max_order):
        p, r, n, q = tower.p, tower.base.r, tower.n, tower.q
        if n % p == 0:
            continue
        ks = [k for k in range(1, tower.full_degree)
              if math.gcd(k, n) == 1 and math.gcd(n, p ** math.gcd(k, r) - 1) == 1]
        if not ks:
            continue
        bt = base_tables(tower.base)
        tt = tower_tables(tower)
        order = tt.order
        xs_b = np.arange(q, dtype=np.int32)
        neg_row = None if p == 2 else tt.scale_row(tower.base._cneg(1))
        all_h = _all_h_coeffs(q, max_h_degree)
        row_budget = max(1, (1 << 20) // order)
        for k in ks:
            avec = tt.pow_map(np.arange(order, dtype=np.int64), p**k - 1)
            atr = avec[tt.TR]
            adiff = atr ^ avec if p == 2 else tt.add(atr, neg_row[avec])
            for a in range(1, q):
                a_adiff = tt.scale_row(a)[adiff]
                for lo in range(0, len(all_h), row_budget):
                    coeffs = all_h[lo : lo + row_budget]
                    hv = _batched_horner(bt, coeffs)
                    wit = bt.MUL[xs_b[None, :], hv]
                    _, wit_cpp = cpp_rows(bt, wit)
                    htr = hv[:, tt.TR]
                    hh = htr ^ a_adiff[None, :] if p == 2 else tt.add(htr, a_adiff[None, :])
                    lifted = _mul_by_x(tt, hh)
                    _, lift_cpp = cpp_rows(tt, lifted)
                    ident = (tt.TR[lifted] == bt.MUL[tt.TR[None, :], htr]).all(axis=1)
                    identity_failures += int((~ident).sum())
                    for i in range(len(coeffs)):
                        rep.note(bool(wit_cpp[i] == lift_cpp[i]) and bool(ident[i]),
                                 bool(lift_cpp[i]),
                                 {"q": q, "n": n, "k": k, "a": a, "h": coeffs[i].tolist()})
            for i in rng.integers(0, len(all_h), size=3):
                h = Poly(tower.base, [int(c) for c in all_h[i]])
                a = int(rng.integers(1, q))
                res = trace_lift_binomial(h, k, a, tower)
                ver = res.verified_cpp(order)
                assert ver == res.predicted_cpp
                assert res.extras["proof_identity_holds"] is True
                hv1 = _batched_horner(bt, all_h[i : i + 1])
                htr1 = hv1[:, tt.TR]
                aad = tt.scale_row(a)[adiff]
                hh1 = htr1 ^ aad[None, :] if p == 2 else tt.add(htr1, aad[None, :])
                assert res.map_table(order) == _mul_by_x(tt, hh1)[0].tolist()
                builder_checks += 1
    rep.extras = {"builder_crosschecks": builder_checks,
                  "identity_failures": identity_failures}
    rep.elapsed = time.perf_counter() - t0
    return rep


def sweep_kernel_binomials(max_order: Optional[int] = None, seed: int = DEFAULT_SEED) -> SweepReport:
    """x^(p^k) - c*x on ker(tr): criterion verdict vs exhaustive check.

    Case1/Case2 predictions must be confirmed exactly; NoCaseApplies rows
    carry no prediction and are tallied as skipped (their exhaustive
    outcome is still recorded in extras).
    """
    max_order = 4096 if max_order is None else max_order
    rep = SweepReport("lemma3.4")
    t0 = time.perf_counter()
    no_case_true = no_case_false = 0
    for tower in tower_grid(max_order):
        tt = tower_tables(tower)
        p, q, n = tower.p, tower.q, tower.n
        kernel = tt.KERNEL
        ks = [k for k in range(1, tower.full_degree) if math.gcd(k, n) == 1]
        neg_row = None
        if p != 2:
            neg_row = tt.scale_row(tower.base._cneg(1))
        for k in ks:
            frob = tt.pow_map(kernel, p**k)
            for c in range(q):
                cy = tt.scale_row(c)[kernel]
                img = frob ^ cy if p == 2 else tt.add(frob, neg_row[cy])
                if not (tt.TR[img] == 0).all():
                    rep.note(False, False, {"q": q, "n": n, "k": k, "c": c,
                                            "why": "image escaped the kernel"})
                    continue
                actual = np.unique(img).size == len(kernel)
                verdict = binomial_kernel_criterion(k, c, tower)
                if verdict.case_applied == "NoCaseApplies":
                    rep.skipped += 1
                    if actual:
                        no_case_true += 1
                    else:
                        no_case_false += 1
                    continue
                rep.note(verdict.predicted == bool(actual), bool(actual),
                         {"q": q, "n": n, "k": k, "c": c,
                          "case": verdict.case_applied})
    rep.extras = {"no_case_exhaustive_true": no_case_true,
                  "no_case_exhaustive_false": no_case_false}
    rep.elapsed = time.perf_counter() - t0
    return rep


REGISTRY = {
    "thm2.2": sweep_norm_lift,
    "cor2.3": sweep_monomial_norm,
    "cor2.5": sweep_quadratic_monomials,
    "thm3.2": sweep_trace_simple,
    "thm3.3": sweep_trace_general,
    "thm3.7": sweep_trace_binomial,
    "lemma3.4": sweep_kernel_binomials,
}
