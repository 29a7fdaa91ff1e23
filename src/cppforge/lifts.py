"""Construction builders: lift complete permutations of F_q to F_{q^n}.

Each builder validates its preconditions, tests the subfield witness
exhaustively (predicted_cpp is never produced by symbolic reasoning), and
returns a LiftResult that can evaluate the lifted map pointwise and, on
request, expand it to a dense polynomial. The two representations are
independent routes to the same map and the tests hold them against each
other.

The lifted polynomial is kept exactly as the construction writes it; no
exponent reduction is applied, because x^(q^n) and x are different
polynomials inducing the same map and the claims being checked are about
maps. Dense expansion is lazy and size-guarded since composed forms can be
orders of magnitude larger than the map they induce.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import (
    FieldMismatch,
    HypothesisFails,
    OrderCapExceeded,
    PreconditionViolated,
)
from .fields import (
    FieldDesc,
    FieldElement,
    Poly,
    TowerDesc,
    _code_in,
    embed_poly,
    make_extension,
    make_prime_field,
    make_tower,
)
from .maps import (
    PPoly,
    check_in_base,
    norm_exponent,
    ppoly_permutes_kernel,
    ppoly_quotient,
    ppoly_quotient_eval,
    require_norm_coprime,
    trace_code,
)
from .permcheck import (
    DEFAULT_EXHAUSTIVE_CAP,
    _cap_check,
    table_is_cpp,
    value_table,
)

# dense coefficient-count guard for lazy polynomial expansion
EXPANSION_COEFF_CAP = 1 << 16


def _base_poly(h, tower: TowerDesc, what: str = "h") -> Poly:
    if not isinstance(h, Poly) or h.home != tower.base:
        raise FieldMismatch(f"{what} must be a Poly over the base field {tower.base!r}")
    return h


def _trace_poly(tower: TowerDesc) -> Poly:
    codes = [0] * (tower.q ** (tower.n - 1) + 1)
    for i in range(tower.n):
        codes[tower.q**i] = 1
    return Poly._raw(tower, codes)


def _guard_expansion(ncoeffs: int):
    if ncoeffs > EXPANSION_COEFF_CAP:
        raise OrderCapExceeded(ncoeffs, EXPANSION_COEFF_CAP, "dense polynomial expansion")


class LiftResult:
    """One construction outcome.

    subfield_witness is the base-field polynomial whose CPP status the
    construction guarantees equivalent to the lifted map's; predicted_cpp is that
    witness's exhaustively tested status. The lifted map itself is exposed
    pointwise (evaluate / map_table / verified_cpp) and as a lazily
    expanded dense Poly (lifted).
    """

    __slots__ = (
        "construction",
        "tower",
        "params",
        "preconditions",
        "subfield_witness",
        "predicted_cpp",
        "extras",
        "_map_code",
        "_expand",
        "_lifted",
    )

    def __init__(
        self,
        construction: str,
        tower: TowerDesc,
        params: dict,
        preconditions: list[tuple[str, bool]],
        subfield_witness: Poly,
        predicted_cpp: Optional[bool],
        map_code: Callable[[int], int],
        expand: Callable[[], Poly],
        extras: Optional[dict] = None,
    ):
        self.construction = construction
        self.tower = tower
        self.params = params
        self.preconditions = preconditions
        self.subfield_witness = subfield_witness
        self.predicted_cpp = predicted_cpp
        self.extras = extras or {}
        self._map_code = map_code
        self._expand = expand
        self._lifted = None

    @property
    def lifted(self) -> Poly:
        """Dense form of the lifted polynomial (may refuse huge expansions)."""
        if self._lifted is None:
            self._lifted = self._expand()
        return self._lifted

    def evaluate(self, x: FieldElement) -> FieldElement:
        return FieldElement(self.tower, self._map_code(self.tower.embed(x).code))

    def map_table(self, cap: Optional[int] = None) -> list[int]:
        _cap_check(self.tower.order, cap)
        f = self._map_code
        return [f(xc) for xc in range(self.tower.order)]

    def verified_cpp(self, cap: Optional[int] = None) -> Optional[bool]:
        """Exhaustive CPP status of the lifted map, or None above the cap."""
        limit = DEFAULT_EXHAUSTIVE_CAP if cap is None else cap
        if self.tower.order > limit:
            return None
        return table_is_cpp(self.tower, self.map_table(limit))

    def to_json(self, cap: Optional[int] = None) -> dict:
        try:
            lifted_codes = self.lifted.codes()
        except OrderCapExceeded:
            lifted_codes = None
        return {
            "construction": self.construction,
            "params": self.params,
            "preconditions": [{"name": n, "holds": ok} for n, ok in self.preconditions],
            "subfield_witness": self.subfield_witness.codes(),
            "lifted": lifted_codes,
            "predicted_cpp": self.predicted_cpp,
            "verified_cpp": self.verified_cpp(cap),
        }

    def relabel(
        self,
        construction: str,
        params: dict,
        preconditions: list[tuple[str, bool]],
        extras: Optional[dict] = None,
    ) -> "LiftResult":
        """The same map and witness, reported as another construction."""
        return LiftResult(
            construction, self.tower, params, preconditions, self.subfield_witness,
            self.predicted_cpp, self._map_code, self._expand, extras,
        )

    def __repr__(self):
        return f"LiftResult({self.construction}, predicted={self.predicted_cpp})@{self.tower!r}"


# ---------------------------------------------------------------------------
# norm-side constructions
# ---------------------------------------------------------------------------


def norm_lift(h: Poly, tower: TowerDesc, cap: Optional[int] = None) -> LiftResult:
    """Lift h to x*h(nor(x)) on the tower; witness is x*h(x^n) on the base.

    The two CPP statuses are equivalent whenever gcd(n, q-1) = 1;
    predicted_cpp is the witness's exhaustive status, scanned under cap.
    """
    h = _base_poly(h, tower)
    n = tower.n
    require_norm_coprime(tower.q, n)
    npow = norm_exponent(tower)
    witness = h.substitute_monomial(n).shift(1)
    predicted = table_is_cpp(witness.home, value_table(witness, cap))
    htab = value_table(h, cap)

    def f(xc: int) -> int:
        nor = tower._cpow(xc, npow)  # lands in the embedded base field
        return tower._cmul(xc, htab[nor])

    def expand() -> Poly:
        _guard_expansion(max(h.degree, 0) * npow + 2)
        return embed_poly(h, tower).substitute_monomial(npow).shift(1)

    return LiftResult(
        construction="norm-lift",
        tower=tower,
        params={"field": tower.descriptor(), "h": h.codes(), "n": n},
        preconditions=[("gcd(n, q-1) = 1", True)],
        subfield_witness=witness,
        predicted_cpp=predicted,
        map_code=f,
        expand=expand,
    )


def monomial_cpp_check(alpha, s: int, tower: TowerDesc, cap: Optional[int] = None) -> LiftResult:
    """The monomial alpha*x^(1+s*(q^n-1)/(q-1)) with witness alpha*x^(1+n*s).

    The witness is scanned over the whole base field, under cap.
    """
    if not isinstance(s, int) or s < 0:
        raise PreconditionViolated("s >= 0", f"got {s!r}")
    q, n = tower.q, tower.n
    require_norm_coprime(q, n)
    a_code = _code_in(tower.base, alpha, "alpha")
    if a_code == 0:
        raise PreconditionViolated("alpha != 0")
    base = tower.base
    npow = norm_exponent(tower)
    w_exp = 1 + n * s
    l_exp = 1 + s * npow
    _guard_expansion(w_exp + 1)
    witness = Poly.monomial(base, w_exp, a_code)
    _cap_check(q, cap)  # the witness table spans the whole base field
    wtab = [base._cmul(a_code, base._cpow(xc, w_exp)) for xc in range(q)]
    predicted = table_is_cpp(base, wtab)

    def f(xc: int) -> int:
        return tower._cmul(a_code, tower._cpow(xc, l_exp))

    def expand() -> Poly:
        _guard_expansion(l_exp + 1)
        return Poly.monomial(tower, l_exp, a_code)

    return LiftResult(
        construction="monomial",
        tower=tower,
        params={"field": tower.descriptor(), "alpha": a_code, "s": s, "exponent": l_exp},
        preconditions=[("gcd(n, q-1) = 1", True), ("alpha != 0", True), ("s >= 0", True)],
        subfield_witness=witness,
        predicted_cpp=predicted,
        map_code=f,
        expand=expand,
    )


def cppeg_construct(e: int, t: int, k: int, alpha) -> LiftResult:
    """Unconditional CPP monomials of F_{q^2} for q = 2^(e*t).

    With r = 2^e the monomial alpha*x^(1+(r^k-1)(q+1)q/2) is a CPP of
    F_{q^2} whenever 1 <= k < t, gcd(k, t) != 1 if e = 1, and alpha avoids
    the (r^k-1)-th powers of F_q*. This is monomial_cpp_check on F_{q^2}
    with s = (r^k-1)q/2: the witness is alpha*x^(1+2s), which as a map on
    F_q collapses to alpha*x^(r^k) (recorded in extras).
    """
    if not (isinstance(e, int) and isinstance(t, int) and isinstance(k, int)):
        raise PreconditionViolated("integer parameters", f"e={e!r} t={t!r} k={k!r}")
    if e < 1 or t < 1:
        raise PreconditionViolated("e >= 1 and t >= 1", f"e={e} t={t}")
    if isinstance(alpha, FieldElement):
        base = alpha.home
        # the flat field F_(2^(e*t)) only: a tower is a FieldDesc subclass
        if type(base) is not FieldDesc or base.p != 2 or base.r != e * t:
            raise FieldMismatch(f"alpha must live in F_(2^{e * t})")
        a_code = alpha.code
    else:
        base = make_extension(make_prime_field(2), e * t)
        a_code = int(alpha)
        if not 0 <= a_code < base.q:
            raise FieldMismatch(f"alpha code {a_code} outside F_(2^{e * t})")
    q = base.q
    rr = 2**e
    if not 1 <= k < t:
        raise PreconditionViolated("1 <= k < t", f"k={k}, t={t}")
    if e == 1 and math.gcd(k, t) == 1:
        raise PreconditionViolated("gcd(k, t) != 1 when e = 1", f"gcd({k}, {t}) = 1")
    m = rr**k - 1
    g = math.gcd(m, q - 1)
    power_class = base._cpow(a_code, (q - 1) // g) if a_code else 0
    if a_code == 0 or power_class == 1:
        raise PreconditionViolated(
            "alpha not in (F_q)^(r^k - 1)",
            f"alpha = {a_code} is a {m}-th power (or zero) in F_{q}",
        )
    tower = make_tower(base, 2)
    s = m * q // 2
    # n = 2 and q is even, so the monomial builder's gcd(2, q-1) = 1 holds
    inner = monomial_cpp_check(a_code, s, tower)
    if inner.predicted_cpp is not True:
        raise AssertionError(
            f"unconditional construction produced a non-CPP witness at "
            f"e={e} t={t} k={k} alpha={a_code}"
        )
    return inner.relabel(
        "cppeg",
        params={
            "field": tower.descriptor(),
            "e": e,
            "t": t,
            "k": k,
            "alpha": a_code,
            "exponent": inner.params["exponent"],
        },
        preconditions=[
            ("1 <= k < t", True),
            ("gcd(k, t) != 1 when e = 1", True),
            ("alpha not in (F_q)^(r^k - 1)", True),
        ],
        extras={"witness_map_exponent": rr**k, "s": s},
    )


# ---------------------------------------------------------------------------
# trace-side constructions
# ---------------------------------------------------------------------------


def trace_lift_simple(h: Poly, tower: TowerDesc, cap: Optional[int] = None) -> LiftResult:
    """Lift h to x*h(tr(x)); witness is x*h(x), scanned under cap.

    Needs h(0) outside {0, -1}.
    """
    h = _base_poly(h, tower)
    base = tower.base
    h0 = h.coefficient(0).code
    minus_one = base._cneg(1)
    if h0 == 0 or h0 == minus_one:
        raise PreconditionViolated(
            "h(0) not in {0, -1}", f"h(0) = {h0} (note -1 encodes as {minus_one})"
        )
    witness = h.shift(1)
    predicted = table_is_cpp(base, value_table(witness, cap))
    q = tower.q
    htab = value_table(h, cap)

    def f(xc: int) -> int:
        return tower._cmul(xc, htab[trace_code(tower, xc)])

    def expand() -> Poly:
        _guard_expansion(max(h.degree, 0) * q ** (tower.n - 1) + 2)
        return embed_poly(h, tower).compose(_trace_poly(tower)).shift(1)

    return LiftResult(
        construction="trace-simple",
        tower=tower,
        params={"field": tower.descriptor(), "h": h.codes()},
        preconditions=[("h(0) not in {0, -1}", True)],
        subfield_witness=witness,
        predicted_cpp=predicted,
        map_code=f,
        expand=expand,
    )


def _proof_identity_holds(
    tower: TowerDesc, htab: list[int], f: Callable[[int], int], cap: Optional[int]
) -> Optional[bool]:
    """Check tr(f(x)) = tr(x)*h(tr(x)) over the whole tower (None above cap).

    htab is h's value table on the base field.
    """
    if tower.order > (DEFAULT_EXHAUSTIVE_CAP if cap is None else cap):
        return None
    base = tower.base
    for xc in range(tower.order):
        t = trace_code(tower, xc)
        if trace_code(tower, f(xc)) != base._cmul(t, htab[t]):
            return False
    return True


def trace_lift_general(
    h: Poly, L: PPoly, a, tower: TowerDesc, cap: Optional[int] = None
) -> LiftResult:
    """Lift via H(x) = h(tr x) + a*A(tr x) - a*A(x); witness is x*h(x).

    The kernel hypothesis is verified exhaustively before anything is
    built: for every b in F_q both maps L(x) - (h(b)/a + A(b))x and
    L(x) - ((h(b)+1)/a + A(b))x must permute ker(tr). The first failure
    raises HypothesisFails naming b and which of the two maps broke. The
    tables of h and of the witness on the base, and the proof identity on
    the tower, are built under cap; h and A are evaluated on F_q once.
    """
    h = _base_poly(h, tower)
    if L.tower != tower:
        raise FieldMismatch("L belongs to a different tower")
    a_code = _code_in(tower.base, a, "a")
    if a_code == 0:
        raise PreconditionViolated("a != 0", "the hypothesis divides by a")
    base = tower.base
    a_inv = base._cinv(a_code)
    htab = value_table(h, cap)
    # A(t) for t in the embedded base field: embed(t) has code t
    atab = [ppoly_quotient_eval(L, FieldElement(tower, t)).code for t in range(tower.q)]
    check_in_base(tower, atab)

    for b, (hb, ab) in enumerate(zip(htab, atab)):
        for which, num in enumerate((hb, base._cadd(hb, 1))):
            sh = L.shifted(base._cadd(base._cmul(num, a_inv), ab))
            # the zero map permutes ker(tr) only when it is trivial (n = 1)
            if not (tower.n == 1 if sh is None else ppoly_permutes_kernel(sh)):
                raise HypothesisFails(b, which)

    witness = h.shift(1)
    predicted = table_is_cpp(base, value_table(witness, cap))

    def f(xc: int) -> int:
        t = trace_code(tower, xc)
        ax = ppoly_quotient_eval(L, FieldElement(tower, xc)).code
        hh = tower._cadd(htab[t], tower._cmul(a_code, atab[t]))
        hh = tower._csub(hh, tower._cmul(a_code, ax))
        return tower._cmul(xc, hh)

    identity = _proof_identity_holds(tower, htab, f, cap)

    def expand() -> Poly:
        apoly = ppoly_quotient(L)
        deg_tr = tower.q ** (tower.n - 1)
        _guard_expansion(max(max(h.degree, 0), apoly.degree) * deg_tr + 2)
        trp = _trace_poly(tower)
        hpart = embed_poly(h, tower).compose(trp)
        apart = apoly.compose(trp).scale(a_code)
        return (hpart + apart - apoly.scale(a_code)).shift(1)

    return LiftResult(
        construction="trace-general",
        tower=tower,
        params={"field": tower.descriptor(), "h": h.codes(), "L": L.text(), "a": a_code},
        preconditions=[("a != 0", True), ("kernel hypothesis for all b", True)],
        subfield_witness=witness,
        predicted_cpp=predicted,
        map_code=f,
        expand=expand,
        extras={
            "proof_identity_holds": identity,
            "strict_coefficient_form": L.fits_strict_form(),
        },
    )


def trace_lift_binomial(
    h: Poly, k: int, a, tower: TowerDesc, cap: Optional[int] = None
) -> LiftResult:
    """The L = x^(p^k) specialization of the general trace lift.

    Arithmetic conditions gcd(k, n) = 1, p not dividing n, and
    gcd(n, p^gcd(k, r) - 1) = 1 guarantee the kernel hypothesis for every
    shift; the delegate still verifies it exhaustively rather than
    trusting the guarantee.
    """
    h = _base_poly(h, tower)
    p, n, r = tower.p, tower.n, tower.base.r
    if not isinstance(k, int) or k < 1:
        raise PreconditionViolated("k >= 1", f"got {k!r}")
    g = math.gcd(k, n)
    if g != 1:
        raise PreconditionViolated("gcd(k, n) = 1", f"gcd({k}, {n}) = {g}")
    if n % p == 0:
        raise PreconditionViolated("p does not divide n", f"p = {p}, n = {n}")
    d = p ** math.gcd(k, r) - 1
    g2 = math.gcd(n, d)
    if g2 != 1:
        raise PreconditionViolated(
            "gcd(n, p^gcd(k, r) - 1) = 1", f"gcd({n}, {d}) = {g2}"
        )
    a_code = _code_in(tower.base, a, "a")
    if a_code == 0:
        raise PreconditionViolated("a != 0")
    # x^(p^k) and x^(p^(k mod rn)) are the same map on the tower
    L = PPoly.monomial(tower, k % tower.full_degree)
    inner = trace_lift_general(h, L, a_code, tower, cap)
    return inner.relabel(
        "trace-binomial",
        params={"field": tower.descriptor(), "h": h.codes(), "k": k, "a": a_code},
        preconditions=[
            ("gcd(k, n) = 1", True),
            ("p does not divide n", True),
            ("gcd(n, p^gcd(k, r) - 1) = 1", True),
            ("a != 0", True),
            ("kernel hypothesis for all b", True),
        ],
        extras=dict(inner.extras),
    )
