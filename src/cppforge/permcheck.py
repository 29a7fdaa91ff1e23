"""Exhaustive permutation testing and the fiber-criterion checker.

Everything here is evaluation-based: a polynomial (or value table) is
tested by computing its full image, never by symbolic argument. Verdicts
carry re-checkable collision witnesses, chosen deterministically as the
lexicographically smallest colliding pair of codes, so results do not
depend on scan order or partitioning.

The fiber criterion decomposes bijectivity of f on the tower through a
commuting square lam_bar(f(x)) = h(lam(x)) with lam = lam_bar the relative
trace or norm: when both are surjective, f is bijective iff h is bijective
on the base field and f is injective on every fiber lam^-1(s). The report
always carries an independent direct bijectivity cross_check so the
decomposition is verified, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import indexOf
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BadTableLength, FieldMismatch, OrderCapExceeded, OutOfRange
from .fields import FieldDesc, FieldElement, Poly, TowerDesc, _peval, _peval_all
from .maps import check_in_base, norm_exponent, trace_list

DEFAULT_EXHAUSTIVE_CAP = 1 << 16


@dataclass(frozen=True)
class PermVerdict:
    is_permutation: bool
    witness: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        return {
            "is_permutation": self.is_permutation,
            "witness": list(self.witness) if self.witness else None,
        }


class CppCheck(NamedTuple):
    """Verdict pair for f and for f + x."""

    f_verdict: PermVerdict
    shifted_verdict: PermVerdict

    @property
    def both(self) -> bool:
        return self.f_verdict.is_permutation and self.shifted_verdict.is_permutation


@dataclass(frozen=True)
class FiberCriterionReport:
    square_commutes: bool
    lambda_surjective: bool
    h_bijective: bool
    fibers_injective: bool
    conclusion: Optional[bool]
    cross_check: bool

    def to_json(self) -> dict:
        return {
            "square_commutes": self.square_commutes,
            "h_bijective": self.h_bijective,
            "fibers_injective": self.fibers_injective,
            "conclusion": self.conclusion,
            "cross_check": self.cross_check,
        }


def eval_poly(f: Poly, x: FieldElement) -> FieldElement:
    """Horner evaluation of f at x (base elements embed into a tower home)."""
    home = f.home
    if isinstance(x, FieldElement) and isinstance(home, TowerDesc) and x.home == home.base:
        x = home.embed(x)
    if not isinstance(x, FieldElement) or x.home != home:
        raise FieldMismatch(f"{x!r} does not live in {home!r}")
    return FieldElement(home, _peval(home, f.coeffs, x.code))


def _cap_check(order: int, cap: Optional[int]):
    limit = DEFAULT_EXHAUSTIVE_CAP if cap is None else cap
    if order > limit:
        raise OrderCapExceeded(order, limit)


def value_table(f: Poly, cap: Optional[int] = None) -> list[int]:
    """Codes of f over the whole home field, indexed by input code: Horner
    in one list pass per coefficient (fields._peval_all)."""
    home = f.home
    _cap_check(home.order, cap)
    return _peval_all(home, f.coeffs)


def table_verdict(order: int, table: Sequence[int]) -> PermVerdict:
    """Bijectivity of a value table, with the lex-least collision witness.

    The witness is min over colliding codes of (first, second preimage of
    the collided value), which is independent of how the scan is chunked.
    The first preimages of distinct values differ, so the least of them
    fixes the witness: it is the first x that is not the last preimage of
    its value, and the second preimage is that value's next occurrence.
    Most tables that do not permute repeat table[0], so one scan for a
    repeat of it comes first; past it, one set decides bijectivity
    (_distinct), and only a table that repeats a later value maps each
    value to its last preimage.
    """
    if len(table) != order:
        raise BadTableLength(len(table), order)
    if order and table[0] in table[1:]:
        x = 0
    elif _distinct(order, table):
        return PermVerdict(True, None)
    else:
        last = dict(zip(table, range(order)))
        x = next(x for x, v in enumerate(table) if last[v] != x)
    # islice and indexOf take a numpy row as well as a list or tuple
    y = x + 1 + indexOf(islice(table, x + 1, None), table[x])
    return PermVerdict(False, (x, y))


def _distinct(order: int, table: Sequence[int]) -> bool:
    """Are the order values of table distinct?  If so they must be the
    codes below order: the set's least and greatest value are checked, and
    OutOfRange names one outside."""
    seen = set(table)
    if len(seen) < order:
        return False
    for v in (min(seen), max(seen)) if seen else ():
        if not 0 <= v < order:
            raise OutOfRange(v, order)
    return True


def is_permutation(f: Poly, cap: Optional[int] = None) -> PermVerdict:
    return table_verdict(f.home.order, value_table(f, cap))


def table_is_cpp(home: FieldDesc, table: Sequence[int]) -> bool:
    """Is the value table over home a CPP?  No witness is asked for, so one
    set decides each of f and f + x, and f + x is built only when f
    permutes; is_complete_permutation reports both witnesses. f + x of codes
    below order are codes below order, so its set needs no bounds."""
    order = home.order
    if len(table) != order:
        raise BadTableLength(len(table), order)
    return _distinct(order, table) and len(set(home._cadd_each(table, range(order)))) == order


def is_complete_permutation(f: Poly, cap: Optional[int] = None) -> CppCheck:
    """Verdicts for f and for f + x; f is a CPP when both hold."""
    home = f.home
    tab = value_table(f, cap)
    shifted = home._cadd_each(tab, range(home.order))
    return CppCheck(table_verdict(home.order, tab), table_verdict(home.order, shifted))


def _as_table(home, f, what: str) -> list[int]:
    if isinstance(f, Poly):
        if f.home != home:
            raise FieldMismatch(f"{what} polynomial lives over {f.home!r}, expected {home!r}")
        return value_table(f, cap=home.order)
    return _code_table(home.order, f)


def _code_table(order: int, values) -> list[int]:
    """values as a list of codes below order: BadTableLength unless there are
    order of them, OutOfRange for a code outside the field."""
    tab = [int(v) for v in values]
    if len(tab) != order:
        raise BadTableLength(len(tab), order)
    for v in tab:
        if not 0 <= v < order:
            raise OutOfRange(v, order)
    return tab


def fiber_criterion_verify(
    f: Union[Poly, Sequence[int]],
    h: Union[Poly, Sequence[int]],
    lambda_kind: str = "trace",
    tower: Optional[TowerDesc] = None,
    cap: Optional[int] = None,
) -> FiberCriterionReport:
    """Run the commuting-square decomposition of bijectivity and cross-check it.

    f is a map on the tower (Poly over it, or a value table); h is a map on
    the base field; lambda_kind picks rel_trace or rel_norm for both legs.
    A non-commuting square is not an error: it is recorded and the
    conclusion is None, since the criterion then says nothing about f.
    """
    if tower is None:
        if isinstance(f, Poly) and isinstance(f.home, TowerDesc):
            tower = f.home
        else:
            raise FieldMismatch("tower must be given when f is a value table")
    if lambda_kind not in ("trace", "norm"):
        raise ValueError(f"unknown lambda_kind {lambda_kind!r}")
    _cap_check(tower.order, cap)
    base = tower.base
    q, order = base.q, tower.order

    ftab = _as_table(tower, f, "f")
    htab = _as_table(base, h, "h")
    if lambda_kind == "trace":
        lam = trace_list(tower)
    else:
        lam = tower._cpow_all(norm_exponent(tower))
    check_in_base(tower, lam)

    square_commutes = [lam[v] for v in ftab] == [htab[t] for t in lam]
    lam_surjective = len(set(lam)) == q

    h_bijective = len(set(htab)) == q
    # f injective on every fiber lam^-1(s) iff x -> (lam(x), f(x)) is injective
    fibers_injective = len(set(zip(lam, ftab))) == order
    cross_check = len(set(ftab)) == order

    conclusion: Optional[bool] = None
    if square_commutes and lam_surjective:
        conclusion = h_bijective and fibers_injective
    return FiberCriterionReport(
        square_commutes=square_commutes,
        lambda_surjective=lam_surjective,
        h_bijective=h_bijective,
        fibers_injective=fibers_injective,
        conclusion=conclusion,
        cross_check=cross_check,
    )
