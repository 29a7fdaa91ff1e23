"""Complete-mapping search over small fields, plus h-form extraction.

The search enumerates value tables with f(0) = 0 in lexicographic order
and keeps those where both f and f + x are bijections. Results carry the
Lagrange interpolant; a mapping is flagged normalized when that interpolant
is monic (the constant term is already zero by the f(0) = 0 restriction).
Scaling a mapping to force monicity would change its CPP status, so nothing
is ever rescaled; non-normalized mappings are reported as found.

to_h_form rewrites a zero-fixing polynomial into the seed shape x*h(x^n)
that the lift constructions consume, by remapping exponents through the
inverse of n mod (q-1), then proves the rewrite by exhaustive comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    PreconditionViolated,
    ReconstructionMismatch,
    SearchCapExceeded,
)
from .fields import FieldDesc, Poly, memo
from .maps import require_norm_coprime
from .permcheck import _code_table, eval_poly

SEARCH_CAP_Q = 11
BRUTE_CAP_Q = 9


@dataclass(frozen=True)
class CompleteMapping:
    field: FieldDesc
    table: tuple[int, ...]
    poly: Poly
    normalized: bool

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "table": list(self.table),
            "poly_coeffs": self.poly.codes(),
            "normalized": self.normalized,
        }


@memo(lambda home: home.order**3)  # q scalings of q polynomials of q coefficients
def _lagrange_basis(home):
    """Scaled basis polynomials, memoized per equal field: basis[a][v] is
    the coefficient list of v times the polynomial that interpolates the
    indicator of a, so basis[a][1] is that polynomial itself.

    Over any finite field the master polynomial is x^q - x with constant
    derivative -1, so basis[a][1] = -(x^q - x)/(x - a), computed by
    synthetic division in O(q) per point; its q scalings are one list pass
    each.
    """
    q = home.order
    bases = []
    for a in range(q):
        cs = [0] * q
        cs[q - 1] = 1
        for i in range(q - 2, 0, -1):
            cs[i] = home._cmul(cs[i + 1], a)
        if q >= 2:
            cs[0] = home._csub(home._cmul(cs[1], a), 1)
        row = [home._cneg(c) for c in cs]
        bases.append([home._cmul_each([v] * q, row) for v in range(q)])
    return bases


def lagrange_interpolate(field, table) -> Poly:
    """The unique polynomial of degree < q hitting table[i] at decode(i):
    the sum of basis[a][table[a]], one list pass per nonzero value."""
    q = field.order
    tab = _code_table(q, table)
    bases = _lagrange_basis(field)
    out = [0] * q
    for a, v in enumerate(tab):
        if v:
            out = field._cadd_each(out, bases[a][v])
    return Poly._raw(field, out)


def enumerate_complete_mappings(field: FieldDesc) -> list[CompleteMapping]:
    """All complete mappings of the field with f(0) = 0, in lex table order.

    The walk extends the table one position at a time and prunes as soon as
    either f or f + x repeats a value, which is what makes q around 11
    feasible; the surviving leaves are exactly the lex-ordered filtered
    permutations, so output order matches a full enumerate-then-filter run.
    """
    q = field.order
    if q > SEARCH_CAP_Q:
        raise SearchCapExceeded(q, SEARCH_CAP_Q)
    # plus[x][v] = v + x
    plus = [field._translation(x) for x in range(q)]
    results: list[CompleteMapping] = []
    table = [0] * q
    used = [False] * q
    used_shift = [False] * q   # values of f(x) + x seen so far
    used_shift[0] = True       # f(0) + 0 = 0
    used[0] = True

    def extend(x: int):
        if x == q:
            tab = tuple(table)
            poly = lagrange_interpolate(field, tab)
            results.append(CompleteMapping(field, tab, poly, poly.is_monic()))
            return
        row = plus[x]
        for v in range(1, q):
            if used[v]:
                continue
            s = row[v]
            if used_shift[s]:
                continue
            used[v] = used_shift[s] = True
            table[x] = v
            extend(x + 1)
            used[v] = used_shift[s] = False

    if q >= 2:
        extend(1)
    return results


def brute_complete_mappings(field: FieldDesc) -> list[tuple[int, ...]]:
    """Filter raw permutations instead of walking the pruned tree.

    Deliberately independent slow path for crosschecking the search above:
    every permutation of the nonzero codes is taken as the tail of an
    f(0) = 0 table (so f bijects by construction) and kept when f + x also
    bijects. Factorial in q, hence the tighter cap.
    """
    q = field.order
    if q > BRUTE_CAP_Q:
        raise SearchCapExceeded(q, BRUTE_CAP_Q)
    add = field._cadd
    out: list[tuple[int, ...]] = []
    for tail in itertools.permutations(range(1, q)):
        tab = (0,) + tail
        if len({add(v, x) for x, v in enumerate(tab)}) == q:
            out.append(tab)
    return out


def to_h_form(f: Poly, n: int) -> Poly:
    """Find h with f(x) = x*h(x^n) as maps, for gcd(n, q-1) = 1 and f(0) = 0.

    Exponents m >= 1 of f act on the multiplicative group through
    m mod (q-1), so each monomial c*x^m contributes c*x^((m-1)*n' mod (q-1))
    to h, where n' inverts n mod (q-1). Colliding contributions add. The
    rewrite is then proved pointwise; a mismatch is an implementation bug
    and raises rather than returning quietly.
    """
    home = f.home
    q = home.order
    if f.coefficient(0).code != 0:
        raise PreconditionViolated("f(0) = 0", f"constant term is {f.coefficient(0).code}")
    require_norm_coprime(q, n)
    n_inv = pow(n, -1, q - 1) if q > 2 else 0
    hcodes = [0] * max(q - 1, 1)
    for m, c in enumerate(f.coeffs):
        if m == 0 or c == 0:
            continue
        e = ((m - 1) * n_inv) % (q - 1) if q > 2 else 0
        hcodes[e] = home._cadd(hcodes[e], c)
    h = Poly._raw(home, hcodes)
    rebuilt = h.substitute_monomial(n).shift(1)
    for x in home.elements():
        if eval_poly(rebuilt, x).code != eval_poly(f, x).code:
            raise ReconstructionMismatch(
                f"x*h(x^{n}) disagrees with f at code {x.code}"
            )
    return h
