"""Relative trace and norm maps of a tower, and p-polynomial machinery.

The maps F_{q^n} -> F_q implemented here are the glue between a tower and
its base: rel_trace(x) = sum of the conjugates x^(q^i), rel_norm(x) =
x^((q^n-1)/(q-1)). Both land in the embedded base field, which in the code
encoding is exactly the codes below q, so the coercion down to F_q is a
bounds check rather than a change of representation.

PPoly models additive maps L(x) = sum a_i x^(p^i) with coefficients in the
base field; these commute with rel_trace and restrict to maps of the trace
kernel, which is what the kernel-permutation criterion speaks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .errors import BadInput, FieldMismatch, MapEscapesKernel, PreconditionViolated
from .fields import FieldElement, Poly, TowerDesc, _code_in, memo

_CoeffMap = Union[Mapping[int, Union[int, FieldElement]], Iterable[tuple]]


def _require_tower(x: FieldElement) -> TowerDesc:
    if not isinstance(x, FieldElement) or not isinstance(x.home, TowerDesc):
        raise FieldMismatch(f"{x!r} is not an element of a tower")
    return x.home


def check_in_base(tower: TowerDesc, codes) -> None:
    """Assert that trace/norm codes landed in the embedded base field."""
    # structural coercion: the embedded base field is exactly the codes < q
    top = max(codes)
    if top >= tower.q:
        raise AssertionError(f"value {top} escaped the base field of {tower!r}")


def _down(tower: TowerDesc, code: int) -> FieldElement:
    check_in_base(tower, (code,))
    return FieldElement(tower.base, code)


def trace_code(tower: TowerDesc, xc: int) -> int:
    """Code of tr(x) = x + x^q + ... + x^(q^(n-1)) for the code xc of x."""
    q = tower.q
    acc = t = xc
    for _ in range(tower.n - 1):
        t = tower._cpow(t, q)
        acc = tower._cadd(acc, t)
    return acc


def trace_list(tower: TowerDesc) -> list[int]:
    """[trace_code(tower, xc) for xc in range(tower.order)], in list passes.

    The trace is F_q-linear: a code xc = sum c_i q^i stands for sum c_i y^i,
    so tr(xc) = sum c_i t_i with t_i = trace_code(tower, q^i). The list
    grows one digit at a time: the codes below q^(i+1) are c*q^i + r for
    the codes r below q^i, and their traces are the traces of r plus c*t_i,
    one _cadd_each over the list so far for each digit c. That is about
    order*q/(q - 1) base-field additions in all, where the Frobenius chain
    takes n - 1 power and addition passes over the whole tower.
    """
    base, q = tower.base, tower.q
    acc = [0]
    for i in range(tower.n):
        t = trace_code(tower, q**i)
        acc = [s for c in range(q) for s in base._cadd_each(acc, [base._cmul(c, t)] * len(acc))]
    return acc


def rel_trace(x: FieldElement) -> FieldElement:
    """Relative trace tr(x) = x + x^q + ... + x^(q^(n-1)), in the base field."""
    tower = _require_tower(x)
    return _down(tower, trace_code(tower, x.code))


def norm_exponent(tower: TowerDesc) -> int:
    """(q^n - 1)/(q - 1), the exponent computing the relative norm."""
    return (tower.order - 1) // (tower.q - 1)


def require_norm_coprime(q: int, n: int) -> None:
    """Refuse unless gcd(n, q-1) = 1, which makes x -> x^n permute F_q."""
    g = math.gcd(n, q - 1)
    if g != 1:
        raise PreconditionViolated("gcd(n, q-1) = 1", f"gcd({n}, {q - 1}) = {g}")


def rel_norm(x: FieldElement) -> FieldElement:
    """Relative norm nor(x) = x^((q^n-1)/(q-1)), in the base field."""
    tower = _require_tower(x)
    return _down(tower, tower._cpow(x.code, norm_exponent(tower)))


@memo(lambda tower: tower.order // tower.q)
def trace_kernel(tower: TowerDesc) -> tuple[FieldElement, ...]:
    """All trace-zero elements in ascending code order.

    The traces come from trace_list, in list passes over the whole tower.
    Memoized per equal tower (fields.memo), at q^(n-1) cells. The kernel
    is an F_q-subspace of size exactly q^(n-1); that count is asserted
    rather than assumed.
    """
    tr = trace_list(tower)
    check_in_base(tower, tr)
    ker = tuple(FieldElement(tower, xc) for xc, t in enumerate(tr) if t == 0)
    if len(ker) != tower.q ** (tower.n - 1):
        raise AssertionError(
            f"kernel size {len(ker)} != q^(n-1) = {tower.q ** (tower.n - 1)}"
        )
    return ker


class PPoly:
    """A nonzero p-polynomial L(x) = sum a_i x^(p^i) with a_i in the base field.

    Exponent indices run over 0 <= i < r*n (higher Frobenius powers act
    identically on the tower). Coefficients live in F_q, which makes L
    commute with rel_trace and stabilize its kernel.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: TowerDesc, coeffs: _CoeffMap):
        if not isinstance(tower, TowerDesc):
            raise FieldMismatch("a PPoly needs a TowerDesc home")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        norm = {}
        for i, a in items:
            i = int(i)
            if not 0 <= i < tower.full_degree:
                raise BadInput(f"exponent index {i} outside 0..{tower.full_degree - 1}")
            code = _code_in(tower.base, a, "PPoly coefficients")
            if code:
                norm[i] = code
            elif i in norm:
                del norm[i]
        if not norm:
            raise BadInput("the zero p-polynomial is not allowed")
        self.tower = tower
        self.coeffs = tuple(sorted(norm.items()))

    @classmethod
    def monomial(cls, tower: TowerDesc, k: int, coeff: Union[int, FieldElement] = 1) -> "PPoly":
        return cls(tower, {k: coeff})

    @property
    def max_index(self) -> int:
        return self.coeffs[-1][0]

    def coefficient(self, i: int) -> FieldElement:
        for j, code in self.coeffs:
            if j == i:
                return FieldElement(self.tower.base, code)
        return self.tower.base.zero

    def fits_strict_form(self) -> bool:
        """True when L uses exactly the indices 0..r-1, each with a nonzero
        coefficient. Constructions whose L falls outside this shape rely on
        the permissive reading of the coefficient constraint and are flagged
        downstream."""
        r = self.tower.base.r
        return [i for i, _ in self.coeffs] == list(range(r))

    def shifted(self, theta: Union[int, FieldElement]) -> Optional["PPoly"]:
        """The p-polynomial L(x) - theta*x, or None when it cancels to zero."""
        base = self.tower.base
        d = dict(self.coeffs)
        d[0] = base._csub(d.get(0, 0), _code_in(base, theta, "theta"))
        if not any(d.values()):
            return None
        return PPoly(self.tower, d)

    def text(self) -> str:
        inner = ",".join(f"({i},{a})" for i, a in self.coeffs)
        return f"L=[{inner}]"

    def __eq__(self, other):
        if not isinstance(other, PPoly):
            return NotImplemented
        return self.tower == other.tower and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __repr__(self):
        return f"PPoly({self.text()})@{self.tower!r}"


def ppoly_eval(L: PPoly, x: FieldElement) -> FieldElement:
    """L(x), walking the Frobenius chain x, x^p, x^(p^2), ..."""
    tower = L.tower
    x = tower.embed(x)
    p = tower.p
    acc = 0
    cur = x.code
    pos = 0
    for i, a in L.coeffs:
        while pos < i:
            cur = tower._cpow(cur, p)
            pos += 1
        acc = tower._cadd(acc, tower._cmul(a, cur))
    return FieldElement(tower, acc)


def ppoly_eval_all(L: PPoly, codes: Iterable[int]) -> list[int]:
    """[ppoly_eval(L, x).code for x in codes], in list passes.

    One power pass makes the Frobenius list frob[x] = x^p; each step of the
    chain x, x^p, x^(p^2), ... is then one pass of frob over the current
    list, and each index of L adds a_i * x^(p^i) by one _cmul_each and one
    _cadd_each. A tower with no exp/log lists runs ppoly_eval per point.
    """
    tower = L.tower
    cur = list(codes)
    if tower.log_tables() is None:
        return [ppoly_eval(L, FieldElement(tower, x)).code for x in cur]
    frob = tower._cpow_all(tower.p)
    acc = [0] * len(cur)
    pos = 0
    for i, a in L.coeffs:
        for _ in range(i - pos):
            cur = [frob[c] for c in cur]
        pos = i
        acc = tower._cadd_each(acc, tower._cmul_each([a] * len(cur), cur))
    return acc


def ppoly_quotient(L: PPoly) -> Poly:
    """The ordinary polynomial A(x) = L(x)/x = sum a_i x^(p^i - 1)."""
    tower = L.tower
    p = tower.p
    codes = [0] * (p ** L.max_index)
    for i, a in L.coeffs:
        codes[p**i - 1] = a
    return Poly._raw(tower, codes)


def ppoly_quotient_eval(L: PPoly, x: FieldElement) -> FieldElement:
    """A(x) without expanding A: L(x)/x for x != 0, and A(0) = a_0."""
    tower = L.tower
    x = tower.embed(x)
    if x.code == 0:
        return FieldElement(tower, L.coefficient(0).code)
    y = ppoly_eval(L, x)
    return FieldElement(tower, tower._cmul(y.code, tower._cinv(x.code)))


def ppoly_permutes_kernel(L: PPoly, shift: Union[int, FieldElement, None] = None) -> bool:
    """Does x |-> L(x) - shift*x permute the trace kernel?

    shift is an element of the base field or its code. Exhaustive:
    evaluates the map on every kernel element and counts distinct images.
    Images are required to stay inside the kernel (they always do for
    base-field coefficients; a violation raises MapEscapesKernel rather
    than silently reporting non-bijectivity).
    """
    theta = 0 if shift is None else _code_in(L.tower.base, shift, "shift")
    return _permutes_kernel(L, theta)


@memo(lambda L, theta: L.tower.order // L.tower.q)
def _permutes_kernel(L: PPoly, theta: int) -> bool:
    """ppoly_permutes_kernel on L's own tower with the shift code theta.

    The kernel codes are mapped in list passes (ppoly_eval_all, then
    -theta*x added by one _cmul_each and one _cadd_each), and each image
    is tested for membership in the set of the memoized kernel's codes.
    The first image outside it, in kernel order, raises MapEscapesKernel.
    """
    tower = L.tower
    xs = [x.code for x in trace_kernel(tower)]
    ys = ppoly_eval_all(L, xs)
    if theta:
        minus_theta = [tower._cneg(theta)] * len(xs)
        ys = tower._cadd_each(ys, tower._cmul_each(minus_theta, xs))
    members = set(xs)
    if not members.issuperset(ys):
        x, y = next((x, y) for x, y in zip(xs, ys) if y not in members)
        raise MapEscapesKernel(x, y)
    return len(set(ys)) == len(xs)


@dataclass(frozen=True)
class KernelCriterionVerdict:
    """Outcome of the binomial kernel criterion.

    case_applied is one of "Case1", "Case2", "NoCaseApplies". Both cases
    predict True; NoCaseApplies carries no prediction (the criterion is
    sufficient-only), so callers must fall back to exhaustive checking.
    d = gcd(k, r) and e1 = (q-1)/(p^d-1) are echoed for diagnostics.
    """

    case_applied: str
    predicted: Optional[bool]
    k: int
    c: int
    d: int
    e1: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "case": self.case_applied,
            "predicted": self.predicted,
            "k": self.k,
            "c": self.c,
        }


def binomial_kernel_criterion(
    k: int, c: Union[int, FieldElement], tower: TowerDesc
) -> KernelCriterionVerdict:
    """Predict whether x^(p^k) - c*x permutes ker(tr), without evaluating it.

    With d = gcd(k, r) and e1 = (q-1)/(p^d-1):

    - Case1 applies when c is a nonzero e1-th root of unity and p does not
      divide n; the binomial permutes the kernel.
    - Case2 applies when c^(n*e1) != 1 (in particular whenever c = 0); the
      binomial permutes the kernel.
    - Otherwise no case applies and no prediction is made. The verdict note
      points out the configuration c^e1 = 1 with p | n, where the map is
      in fact known to collapse; that necessity direction is exercised by
      exhaustive tests, not asserted here.

    Requires gcd(k, n) = 1 and k >= 1.
    """
    base = tower.base
    c_code = _code_in(base, c, "c")
    if k < 1:
        raise PreconditionViolated("k >= 1", f"got k = {k}")
    n = tower.n
    if math.gcd(k, n) != 1:
        raise PreconditionViolated("gcd(k, n) = 1", f"gcd({k}, {n}) = {math.gcd(k, n)}")
    p, r, q = tower.p, base.r, tower.q
    d = math.gcd(k, r)
    e1 = (q - 1) // (p**d - 1)
    c_e1 = base._cpow(c_code, e1)
    if c_code != 0 and c_e1 == 1 and n % p != 0:
        return KernelCriterionVerdict("Case1", True, k, c_code, d, e1)
    if base._cpow(c_code, n * e1) != 1:
        note = ""
        if c_code == 0:
            note = "c = 0: the binomial degenerates to the Frobenius power x^(p^k)"
        return KernelCriterionVerdict("Case2", True, k, c_code, d, e1, note)
    if c_code != 0 and c_e1 == 1 and n % p == 0:
        note = "no claim; note c^((q-1)/(p^d-1)) = 1 with p | n, the known collision regime"
    else:
        note = "criterion makes no claim"
    return KernelCriterionVerdict("NoCaseApplies", None, k, c_code, d, e1, note)
