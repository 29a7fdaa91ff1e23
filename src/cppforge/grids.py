"""Exhaustive desk-scale sweeps over whole parameter grids.

Every sweep compares a construction's prediction (decided on the base
field) against an exhaustive check on the extension, case by case, and
reports counts plus any counterexamples. Reports are expected to come
back clean; a nonempty counterexample list means either the library or
the equivalence bookkeeping is wrong, and the tests fail loudly on it.

Each sweep is a per-tower body registered with _sweep(token,
default_max_order, towers, extras): towers maps max_order to the ordered
(p, r, n) shapes of the towers F_(p^(rn))/F_(p^r) the sweep walks, and
extras is the zero dict its report's extras start from. _sweep alone walks
the towers, and builds each one (_tower) only when its body runs.

The heavy sweeps run on the numpy tables; each one also replays a seeded
sample of its cases through the scalar builders so the fast path and the
reference path vouch for each other.

The norm and trace lifts cost only what their verdicts need, and every
shortcut is exact for any table contents, so none takes a theorem on
trust. Each lift reduces to a witness on the base field, x*h(x^n) for the
norm lift and x*h(x) for the trace lifts, and a row whose values repeat is
not a permutation, so not a CPP. Each shortcut has one owner, whose
docstring gives its proof: _lift_verdicts builds in full only the rows
distinct at _PREFIX spread elements; _lift_blocks is the one block walk of
thm2.2, thm3.2 and thm3.7 over a lazy HGrid; sweep_norm_lift reuses the
witness pass on the towers that pass _norm_checks; _norm_square and
_binomial_lift_table each decide a lift check by one order x q table;
_norm_classes decides thm2.2's exhaustive h once per scaling class, and
_verdict_gather decides a set of rows once for every row to gather.
"""

from __future__ import annotations

import copy
import math
import operator
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import BadInput, HypothesisFails, OrderCapExceeded, PreconditionViolated
from .fields import (
    MAX_FIELD_ORDER,
    FieldElement,
    Poly,
    TowerDesc,
    _is_prime,
    make_extension,
    make_prime_field,
    make_tower,
    memo,
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
from .tables import BULK_TOWER_CAP, base_tables, bijective_rows, cpp_rows, tower_tables

DEFAULT_SEED = 20260819
H_DEGREE = 2  # every nonzero h of degree <= H_DEGREE is swept exhaustively
_ROW_CELLS = 1 << 21  # cells per batched block of whole rows
# rows x q cells per block of a walk that lifts only the rows whose witness
# permutes. thm2.2's class representatives hold them densely (64 of
# F_4096/F_64's 4224): 2^15 cells raised the sweep's peak RSS by 1.5 MB
_WITNESS_CELLS = 1 << 13
# tower elements, spread evenly, where a row of a whole-tower batch must be
# distinct to be built in full. Of thm3.2's 144,799 rows at its default, 64
# leading columns leave 35,012, 64 spread ones 8,351 and 256 spread 3,407
_PREFIX = 64
_GATHER = 1 << 14  # rows per block of a walk that gathers its verdicts
_RANDOM_H = 100  # seeded random h of degree < q per thm2.2 tower


@memo(lambda p, r, n: p ** (r * n))
def _tower(p: int, r: int, n: int) -> TowerDesc:
    base = make_prime_field(p) if r == 1 else make_extension(make_prime_field(p), r)
    return make_tower(base, n)


def _grid_shapes(max_order: int) -> list[tuple[int, int, int]]:
    """The (p, r, n), q = p^r, of each tower of tower_grid, by (q^n, p, r)."""
    out = []
    for p in filter(_is_prime, range(2, math.isqrt(max_order) + 1)):
        r = 1
        while p ** (2 * r) <= max_order:
            n = 2
            while p ** (r * n) <= max_order:
                out.append((p, r, n))
                n += 1
            r += 1
    return sorted(out, key=lambda s: (s[0] ** (s[1] * s[2]), s[0], s[1]))


def tower_grid(max_order: int = 4096) -> list[TowerDesc]:
    """Every two-level tower F_{q^n}/F_q with n >= 2 and q^n <= max_order."""
    return [_tower(*shape) for shape in _grid_shapes(max_order)]


def _norm_lift_shapes(max_order: int) -> list[tuple[int, int, int]]:
    """Shapes of _grid_shapes with gcd(n, q-1) = 1, sorted by (q, n)."""
    shapes = [(p, r, n) for p, r, n in _grid_shapes(max_order) if math.gcd(n, p**r - 1) == 1]
    return sorted(shapes, key=lambda s: (s[0] ** s[1], s[2]))


def _quadratic_shapes(max_order: int) -> list[tuple[int, int, int]]:
    """The quadratic towers F_(q^2)/F_q with q = 2^et, et >= 2, of cor2.5."""
    return [(2, et, 2) for et in range(2, 31) if 4**et <= max_order]


def norm_lift_pairs(max_order: int = 4096) -> list[tuple[int, int]]:
    """(q, n) pairs admissible for the norm lift: gcd(n, q-1) = 1, q^n <= cap."""
    return [(p**r, n) for p, r, n in _norm_lift_shapes(max_order)]


@dataclass
class SweepReport:
    token: str
    cases: int = 0
    agreements: int = 0
    true_outcomes: int = 0
    skipped: int = 0
    counterexamples: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.counterexamples and self.agreements == self.cases

    @property
    def false_outcomes(self) -> int:
        return self.cases - self.true_outcomes

    def note(self, ok, outcome, detail=None):
        """Tally one case, or a batch: bool arrays ok and outcome, with
        detail a function from row index to that row's counterexample."""
        ok, outcome = np.atleast_1d(ok), np.atleast_1d(outcome)
        self.cases += ok.size
        self.true_outcomes += int(outcome.sum())
        self.agreements += int(ok.sum())
        for i in np.flatnonzero(~ok):
            self.counterexamples.append(detail(int(i)) if callable(detail) else detail or {})

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


REGISTRY: dict = {}


def _sweep(token: str, default_max_order: int, towers, extras: dict):
    """Register body(rep, tower, rng) as the sweep `token`: it walks the
    (p, r, n) shapes towers(max_order), max_order defaulting to
    default_max_order (exposed on the sweep), and refuses a walk with a
    tower past BULK_TOWER_CAP before it builds any tower (a negative
    max_order, or one past MAX_FIELD_ORDER, before it lists the walk).
    Every tower draws from one seeded rng in walk order; rep.extras starts
    as a copy of the zero dict extras, whose counters each body advances."""

    def register(body):
        def sweep(max_order: Optional[int] = None, seed: int = DEFAULT_SEED) -> SweepReport:
            t0 = time.perf_counter()
            if max_order is None:
                max_order = default_max_order
            if max_order < 0:
                raise BadInput(f"max_order (grid --max-order) must be >= 0, got {max_order}")
            # every walk past 2^20 holds F_(2^20)/F_2, or F_(4^10)/F_(2^10)
            # for cor2.5, past the bulk cap: refused before it is listed
            if max_order > MAX_FIELD_ORDER:
                raise OrderCapExceeded(max_order, BULK_TOWER_CAP, "bulk tower tables")
            walk = towers(max_order)
            top = max((p ** (r * n) for p, r, n in walk), default=0)
            if top > BULK_TOWER_CAP:
                raise OrderCapExceeded(top, BULK_TOWER_CAP, "bulk tower tables")
            rng = np.random.default_rng(seed)
            rep = SweepReport(token, extras=copy.deepcopy(extras))
            for shape in walk:
                body(rep, _tower(*shape), rng)
            rep.elapsed = time.perf_counter() - t0
            return rep

        # body's name and doc; the signature and annotations stay sweep's
        sweep.__name__ = sweep.__qualname__ = body.__name__
        sweep.__doc__ = body.__doc__
        sweep.default_max_order = default_max_order
        REGISTRY[token] = sweep
        return sweep

    return register


def _lift_rows(tt, hcols: np.ndarray, sel: np.ndarray, xs=slice(None)) -> np.ndarray:
    """Rowwise x * hcols[., sel[x]] at the tower elements xs (every x by
    default): hcols holds base-field values (one row per h), and sel maps
    each tower element to its base column (the norm or trace table)."""
    return tt.MEXP[tt.LOG[hcols].take(sel[xs], axis=1) + tt.LOG[xs]]


def _distinct_rows(tabs: np.ndarray) -> np.ndarray:
    """Per row: are its values distinct? The one sort-based test, for
    partial rows and keys; whole tables go to bijective_rows. A repeat among
    some columns of a map is a proof that the map is no permutation."""
    keys = np.sort(tabs, axis=1)
    return (keys[:, 1:] != keys[:, :-1]).all(axis=1)


def _row_blocks(tt, rows, idx: np.ndarray):
    """(i, rows(i, every x)) for the rows idx of a whole-tower batch, in
    blocks of at most _ROW_CELLS cells."""
    step = max(1, _ROW_CELLS // tt.tower.order)
    for lo in range(0, len(idx), step):
        i = idx[lo : lo + step]
        yield i, rows(i, np.arange(tt.tower.order))


def _lift_verdicts(tt, rows, count: int):
    """(perm, cpp) per row of a whole-tower batch of count rows; rows(i, xs)
    gives the rows i (an index array) at the tower elements xs. A row whose
    values repeat at _PREFIX elements spread evenly over the tower is
    neither, whatever the tables hold: only the others are built in full."""
    order = tt.tower.order
    width = min(_PREFIX, order)
    alive = _distinct_rows(rows(np.arange(count), np.arange(width) * (order // width)))
    perm = np.zeros(count, dtype=bool)
    cpp = perm.copy()
    for i, tabs in _row_blocks(tt, rows, np.flatnonzero(alive)):
        perm[i], cpp[i] = cpp_rows(tt, tabs)
    return perm, cpp


def _lift_blocks(bt, tt, h, lift, pow_n: np.ndarray, cells, witness_first: bool = False,
                 sampled: Optional[dict] = None, classes=None):
    """The one block walk of the norm and trace lifts (thm2.2, thm3.2,
    thm3.7) over the rows of h (an HGrid or an array of coefficient rows).
    Per block it yields the rows, (perm, cpp) per row of the witness
    x*h(pow_n[x]) and of the lift, lift(hv, xs) giving the rows of h values
    hv at the tower elements xs, and whether each row misses every failing
    cell (cols, vals) of cells, h(cols) != vals (None without cells); the
    CPP verdicts of the rows that key sampled are stored there.
    witness_first says the lift's first q columns are the witness map: then
    only the rows whose witness permutes are lifted, and otherwise every
    row. With classes (from _verdict_gather), classes(lo, coeffs) gives the
    four verdicts of the block of rows coeffs that starts at row lo."""
    # blocks are sized by what each row builds whole: its q witness cells
    # when few rows are lifted, else its order lift cells (q-sized blocks of
    # lifted rows doubled thm3.2's memory peak); a gathered row, nothing
    step = _GATHER if classes else max(1, _WITNESS_CELLS // bt.q if witness_first
                                       else _ROW_CELLS // tt.tower.order)
    for lo in range(0, len(h), step):
        coeffs = h[lo : lo + step]
        if classes:
            wit_perm, wit_cpp, perm, cpp = classes(lo, coeffs)
        else:
            hv = bt.horner(coeffs)
            wit_perm, wit_cpp = cpp_rows(bt, bt.mul_by_x(hv[:, pow_n]))
            at = np.flatnonzero(wit_perm) if witness_first else np.arange(len(coeffs))  # to lift
            perm, cpp = np.zeros((2, len(coeffs)), dtype=bool)
            perm[at], cpp[at] = _lift_verdicts(tt, lambda i, xs: lift(hv[at[i]], xs), len(at))
        cells_ok = None if cells is None else (bt.horner(coeffs, cells[0]) != cells[1]).all(axis=1)
        for i in sampled or ():
            if lo <= i < lo + len(coeffs):
                sampled[i] = (wit_cpp[i - lo], cpp[i - lo])
        yield coeffs, wit_perm, wit_cpp, perm, cpp, cells_ok


def _verdict_gather(bt, tt, rows, lift, pow_n: np.ndarray, witness_first: bool, index):
    """classes for _lift_blocks: the rows are decided once, in one walk of
    _lift_blocks, and classes(lo, coeffs) takes the (wit_perm, wit_cpp,
    perm, cpp) of rows[index(lo, coeffs)]. A row's note, square cells,
    fiber check and replay stay its own."""
    walk = _lift_blocks(bt, tt, rows, lift, pow_n, None, witness_first)
    verdicts = np.hstack([np.zeros((4, 0), dtype=bool)] + [block[1:5] for block in walk])
    # take, not fancy indexing: it gathers a block about three times faster
    return lambda lo, coeffs: verdicts.take(index(lo, coeffs), axis=1)


class HGrid:
    """Every nonzero h of degree <= degree over F_q as a coefficient row,
    in code order, each row built only when it is read.

    Row i holds the base-q digits of the i-th nonzero code, c0 the least
    significant, so c0 varies fastest: for q = 4 the rows start [1,0,0],
    [2,0,0], [3,0,0], [0,1,0]. A row is a pair (top, c0), top the code of
    its coefficients c1..c_degree. Given c0s, the grid keeps only the
    rows whose c0 is in c0s, still in code order (thm3.2 drops c0 = 0 and
    c0 = -1). h[i] is row i, and h[lo:hi] a block of rows.
    """

    def __init__(self, q: int, degree: int, c0s=None):
        self.q, self.degree = q, degree
        self.c0s = np.array(range(q) if c0s is None else sorted(c0s), dtype=np.int32)
        # row i sits at position i + skip of the (top, c0) product: the
        # zero code, top 0 with c0 0, is no row
        self._skip = int(len(self.c0s) > 0 and self.c0s[0] == 0)
        self._len = q**degree * len(self.c0s) - self._skip

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, stride = i.indices(self._len)
            if stride != 1:
                raise ValueError("an HGrid block has stride 1")
            # the tops of rows lo..hi-1, and the block's cut of their rows
            nc = max(len(self.c0s), 1)
            start, stop = lo + self._skip, max(lo, hi) + self._skip
            first = start // nc
            codes = np.arange(first, -(-stop // nc), dtype=np.int32)[:, None]
            rows = np.empty((len(codes), len(self.c0s), self.degree + 1), dtype=np.int32)
            rows[:, :, 0] = self.c0s
            tops = codes // self.q ** np.arange(self.degree, dtype=np.int32) % self.q
            rows[:, :, 1:] = tops[:, None, :]
            return rows.reshape(-1, self.degree + 1)[start - first * nc : stop - first * nc]
        i = operator.index(i)
        if not 0 <= i < self._len:
            raise IndexError(f"row {i} of {self._len}")
        return self[i : i + 1][0]


def _random_h_coeffs(q: int, count: int, rng) -> np.ndarray:
    """Seeded random h of degree < q, padded to a common width.

    Row i has degree d = degs[i], d + 1 coefficients drawn from 0..q-1 and
    then its leading one from 1..q-1, which replaces its d-th coefficient,
    as if drawn row by row with rng.integers. One rng.integers call with an
    array of low bounds draws the values of every row in that order, each
    as a scalar call would, so the rng ends where the row-by-row draw
    leaves it."""
    out = np.zeros((count, q), dtype=np.int32)
    degs = rng.integers(0, q, size=count)
    widths = degs + 2  # draws per row
    row = np.repeat(np.arange(count), widths)
    col = np.arange(len(row)) - np.repeat(np.cumsum(widths) - widths, widths)
    lead = col > degs[row]  # the row's leading draw
    vals = rng.integers(lead.astype(np.int64), q)
    out[row[~lead], col[~lead]] = vals[~lead]
    out[np.arange(count), degs] = vals[lead]
    return out


def _scales(bt, tt) -> bool:
    """The tower checks of _norm_checks, O(order) cells. MEXP/LOG are a
    sentinel log/exp pair (LOG[0] = 2m, m = order - 1, MEXP 0 from 2m): the
    tower product is a cyclic group law, 0 absorbing and 1 its identity, and
    the codes 1..q-1 are its subgroup generated by g = MEXP[m / (q - 1)] (so
    base MUL, by sub_ok, is a group law). g*y = g*(y - e) + g*e under tt.add,
    the field's own digitwise addition, for the unit e of y's lowest nonzero
    digit: by induction, a product by any power of g is additive. And base
    ADD is tt.add on the embedded F_q."""
    q, m, mexp, lg = bt.q, tt.tower.order - 1, tt.MEXP, tt.LOG
    codes, s = np.arange(m + 1), m // (q - 1)
    log_ok = (len(mexp) == 4 * m + 1 and lg[0] == 2 * m and lg[1] == 0
              and (mexp[2 * m :] == 0).all() and (mexp[m : 2 * m] == mexp[:m]).all()
              and ((lg[1:] >= 0) & (lg[1:] < m)).all() and (mexp[lg[1:]] == codes[1:]).all()
              and (lg[1:q] % s == 0).all())
    if not log_ok:
        return False
    gy, e = mexp[lg + s], np.gcd(codes[1:], m + 1)
    return bool((gy[1:] == tt.add(gy[codes[1:] - e], gy[e])).all()
                and (bt.ADD == tt.add(codes[:q, None], codes[None, :q])).all())


def _norm_square(bt, tt, pow_n: np.ndarray) -> np.ndarray:
    """S[x, c] = (nor(x*c) == nor(x) * pow_n[c]) for every tower x and base
    c: norm multiplicativity with one factor in the base, whose norm is c^n.
    x*c takes the lift's log path and the right side the base MUL handed
    in, so a corrupted cell of either shows; built _ROW_CELLS cells a block."""
    q, order, step = bt.q, tt.tower.order, max(1, _ROW_CELLS // bt.q)
    out = np.empty((order, q), dtype=bool)
    for lo in range(0, order, step):
        x = slice(lo, lo + step)
        lhs = tt.NOR[tt.MEXP[tt.LOG[x, None] + tt.LOG[None, :q]]]
        out[x] = lhs == bt.MUL[tt.NOR[x, None], pow_n[None, :]]
    return out


def _norm_checks(bt, tt, pow_n: np.ndarray):
    """What thm2.2 may reuse on a tower: (bad_x, bad_c, sub_ok, pow_ok), the
    failing cells of _norm_square and the reuse checks of sweep_norm_lift."""
    q = bt.q
    # failing cells (x, c) of the square table; none on sound tables
    bad_x, bad_c = np.nonzero(~_norm_square(bt, tt, pow_n))
    # the lift's first q columns are the witness map
    sub_ok = ((tt.NOR[:q] == pow_n).all()
              and (tt.MEXP[tt.LOG[:q, None] + tt.LOG[None, :q]] == bt.MUL).all())
    # x -> x^n carries the witness onto the induced map
    pow_ok = (bijective_rows(pow_n[None, :])[0]
              and (pow_n[bt.MUL] == bt.MUL[pow_n[:, None], pow_n[None, :]]).all())
    return bad_x, bad_c, sub_ok, pow_ok


def _norm_classes(bt, tt, pow_n: np.ndarray, lift, bad_x, sub_ok, pow_ok):
    """thm2.2's exhaustive h by scaling class: classes for _lift_blocks, or
    None unless sub_ok and pow_ok pass with no failing square cell bad_x and
    _scales passes. Then h_v(y) = h(v*y) = (c0, c1*v, c2*v^2) has the
    witness u^-1*w(u*x) and the lift u^-1*L(u*x), v = u^n, w and L those of
    h, since nor(u*x) = v*nor(x) is the square's cell (x, u); times u^-1 is
    additive, so both keep their permutation and CPP verdicts. So each row
    takes the verdicts of its class's representative: (c0, 1, c2/c1^2) where
    c1 != 0, else (c0, 0, t) for t the one of 0, 1 and, where q is odd, g =
    MEXP[m/(q - 1)] in c2's square class. That is q^2 + 2q rows, or q^2 +
    3q for odd q."""
    if not (sub_ok and pow_ok and len(bad_x) == 0 and _scales(bt, tt)):
        return None
    q, m = bt.q, tt.tower.order - 1
    # the representative (c0, 1, d) is row q*d + c0, and (c0, 0, t) row
    # q*(q + j) + c0 for t the j-th of 0, 1 and, where q is odd, g = MEXP[s]
    s = m // (q - 1)
    tops = [(1, d) for d in range(q)] + [(0, 0), (0, 1), (0, int(tt.MEXP[s]))][: 2 + q % 2]
    tops = np.array(tops, dtype=np.int32)
    reps = np.column_stack([np.tile(np.arange(q, dtype=np.int32), len(tops)),
                            np.repeat(tops, q, axis=0)])
    c1, c2 = np.indices((q, q))
    # c2 = g^j is g times a square exactly when j is odd, and even q has
    # no such c2 (LOG[0] = 2m leaves 0 in the square class)
    odd = tt.LOG[c2] // s % 2 * (q % 2)
    top_class = q * np.where(c1 > 0, tt.MEXP[tt.LOG[c2] + -2 * tt.LOG[c1] % m], q + (c2 > 0) + odd)
    return _verdict_gather(bt, tt, reps, lift, pow_n, True,
                           lambda lo, c: top_class.take(q * c[:, 1] + c[:, 2]) + c[:, 0])


@_sweep("thm2.2", 4096, _norm_lift_shapes,
        {"pairs": [], "fiber_cases": 0, "fiber_agreements": 0, "builder_crosschecks": 0})
def sweep_norm_lift(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """x*h(nor(x)) CPP on the tower vs x*h(x^n) CPP on the base.

    Runs over every admissible (q, n) pair, every nonzero h of degree <=
    H_DEGREE, plus _RANDOM_H seeded random h of degree < q. The
    fiber-criterion verdict (lambda = nor, induced map v -> v*h(v)^n) is
    folded into the same pass and must agree with the direct permutation
    check.

    The lift and the fiber criterion reuse the witness pass, and every row
    gets the verdict a full check would, whatever the tables hold. Two
    checks of q x q cells per tower decide what may be reused. sub_ok: NOR
    agrees with x^n on the codes below q, and the tower's log/exp products
    agree with the base MUL there; then the lift's first q columns are the
    witness map, so a row whose witness does not permute is no permutation
    and is not lifted. pow_ok: x -> x^n is a bijection that commutes with
    MUL; then it carries the witness onto the induced map, and the induced
    map bijects exactly when the witness permutes. A tower that fails a
    check takes the direct route for it: every row handed to the lift
    verdict, or the induced map checked on its own. The exhaustive h are
    decided by scaling class where _norm_classes takes them, and the random
    h once per distinct row, each through _verdict_gather. The pair scan
    evaluates h anew for its own rows, none on sound tables. The square at
    x is the cell (x, h(nor x)) of _norm_square.
    """
    q, n, order = tower.q, tower.n, tower.order
    rep.extras["pairs"].append((q, n))
    bt = base_tables(tower.base)
    tt = tower_tables(tower)
    pow_n = bt.pow_all(n)  # x -> x^n: substitution index and induced-map power
    lam_scaled = (tt.NOR.astype(np.int64) * order).astype(np.int32)
    lift = lambda hv, xs: _lift_rows(tt, hv, tt.NOR, xs)
    bad_x, bad_c, sub_ok, pow_ok = _norm_checks(bt, tt, pow_n)
    classes = _norm_classes(bt, tt, pow_n, lift, bad_x, sub_ok, pow_ok)
    all_h = HGrid(q, H_DEGREE)
    rand_h = _random_h_coeffs(q, _RANDOM_H, rng)
    # a random h has degree < q, so equal rows are one h
    distinct, inverse = np.unique(rand_h, axis=0, return_inverse=True)
    rand_classes = _verdict_gather(bt, tt, distinct, lift, pow_n, sub_ok,
                                   lambda lo, c: inverse[lo : lo + len(c)])
    # row -> (witness, lift) CPP verdicts of the sampled all_h rows
    sampled = dict.fromkeys(rng.integers(0, len(all_h), size=8).tolist())
    for h, h_sampled, h_classes in ((all_h, sampled, classes), (rand_h, None, rand_classes)):
        for coeffs, wit_perm, wit_cpp, perm, lift_cpp, square_ok in _lift_blocks(
                bt, tt, h, lift, pow_n, (tt.NOR[bad_x], bad_c), sub_ok, h_sampled, h_classes):
            # fiber criterion with induced v -> v*h(v)^n
            h_bij = wit_perm if pow_ok else bijective_rows(bt.mul_by_x(pow_n[bt.horner(coeffs)]))
            conclusion = h_bij.copy()
            # an injective lift has injective pairs x -> (nor x, lift(x)):
            # only the other rows of h_bij are scanned, by their keys
            scan = np.flatnonzero(h_bij & ~perm)
            for i, lifted in _row_blocks(
                    tt, lambda i, xs: _lift_rows(tt, bt.horner(coeffs[i]), tt.NOR, xs), scan):
                conclusion[i] = _distinct_rows(lam_scaled + lifted)
            fiber_ok = (conclusion == perm) & square_ok
            rep.extras["fiber_cases"] += len(coeffs)
            rep.extras["fiber_agreements"] += int(fiber_ok.sum())
            rep.counterexamples += [{"q": q, "n": n, "h": coeffs[i].tolist(),
                                     "why": "fiber verdict"}
                                    for i in np.flatnonzero(~fiber_ok)]
            rep.note(wit_cpp == lift_cpp, lift_cpp,
                     lambda i: {"q": q, "n": n, "h": coeffs[i].tolist()})
    # replay a seeded sample through the scalar builder against the
    # batch's verdicts; big towers get one full-table replay and seeded
    # point pinning for the rest, small ones replay the whole table
    for j, (i, (wit_cpp, lift_cpp)) in enumerate(sorted(sampled.items())):
        res = norm_lift(Poly(tower.base, [int(c) for c in all_h[i]]), tower)
        assert res.predicted_cpp == wit_cpp
        if order < 1024 or j == 0:
            assert res.verified_cpp(order) == lift_cpp
        else:
            lifted = _lift_rows(tt, bt.horner(all_h[i : i + 1]), tt.NOR)[0]
            for x in rng.integers(0, order, size=32):
                assert res.evaluate(FieldElement(tower, int(x))).code == lifted[x]
        rep.extras["builder_crosschecks"] += 1


@_sweep("cor2.3", 4096, _norm_lift_shapes, {"builder_crosschecks": 0})
def sweep_monomial_norm(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """alpha*x^(1+s*(q^n-1)/(q-1)) vs alpha*x^(1+ns), all s in 0..q-2, all alpha."""
    q, n = tower.q, tower.n
    bt = base_tables(tower.base)
    tt = tower_tables(tower)
    npow = norm_exponent(tower)
    alphas = np.arange(1, q)[:, None]  # one row per alpha = 1..q-1
    replays = 0
    for s in range(max(q - 1, 1)):
        _, wcpp = cpp_rows(bt, bt.MUL[alphas, bt.pow_all(1 + n * s)[None, :]])
        mono = tt.pow_all(1 + s * npow)
        _, lcpp = _lift_verdicts(tt, lambda i, xs: tt.mul(alphas[i], mono[xs]), len(alphas))
        rep.note(wcpp == lcpp, lcpp,
                 lambda i: {"q": q, "n": n, "s": s, "alpha": i + 1})
        if replays < 3 and rng.integers(0, 4) == 0:
            alpha = int(rng.integers(1, q))
            res = monomial_cpp_check(alpha, s, tower)
            assert res.verified_cpp(tower.order) == res.predicted_cpp == lcpp[alpha - 1]
            replays += 1
            rep.extras["builder_crosschecks"] += 1


@_sweep("cor2.5", 4096, _quadratic_shapes, {"builder_crosschecks": 0})
def sweep_quadratic_monomials(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """The unconditional quadratic-extension monomial family, all (e, t, k, alpha).

    Admissible alpha give CPPs with no side condition, so every outcome
    must be True; inadmissible alpha are counted as skipped after their
    rejection is confirmed. The admissible alpha of one (e, t, k) are
    checked as one batch.
    """
    base = tower.base
    et, q = base.r, base.q
    for e in range(1, et + 1):
        if et % e:
            continue
        t = et // e
        for k in range(1, t):
            if e == 1 and math.gcd(k, t) == 1:
                continue
            # g = 2^(e*gcd(k, t)) - 1 >= 3, so some alpha is admissible
            g = math.gcd(2 ** (e * k) - 1, q - 1)
            built = []
            for alpha in range(1, q):
                if base._cpow(alpha, (q - 1) // g) != 1:
                    built.append(cppeg_construct(e, t, k, alpha))
                    continue
                try:
                    cppeg_construct(e, t, k, alpha)
                    rep.note(False, False,
                             {"e": e, "t": t, "k": k, "alpha": alpha,
                              "why": "inadmissible alpha accepted"})
                except PreconditionViolated:
                    rep.skipped += 1
            tt = tower_tables(tower)
            exp_tab = tt.pow_all(built[0].params["exponent"])
            alphas = np.array([res.params["alpha"] for res in built])[:, None]
            ver = _lift_verdicts(tt, lambda i, xs: tt.mul(alphas[i], exp_tab[xs]), len(built))[1]
            predicted = np.array([res.predicted_cpp is True for res in built])
            rep.note(predicted & ver, ver,
                     lambda i: {"e": e, "t": t, "k": k, "alpha": int(alphas[i, 0])})
            for res, v in zip(built, ver):
                if rep.extras["builder_crosschecks"] < 4 and rng.integers(0, 5) == 0:
                    assert res.verified_cpp(tower.order) == v
                    rep.extras["builder_crosschecks"] += 1


@_sweep("thm3.2", 1024, _grid_shapes, {"builder_crosschecks": 0})
def sweep_trace_simple(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """x*h(tr(x)) CPP on the tower vs x*h(x) CPP on the base, admissible h."""
    bt = base_tables(tower.base)
    tt = tower_tables(tower)
    q, order = tower.q, tower.order
    minus_one = tower.base._cneg(1)
    all_h = HGrid(q, H_DEGREE, set(range(q)) - {0, minus_one})
    if len(all_h) == 0:
        return
    # row -> (witness, lift) CPP verdicts of the sampled rows
    sampled = dict.fromkeys(rng.integers(0, len(all_h), size=4).tolist())
    for coeffs, _, wit_cpp, _, lift_cpp, _ in _lift_blocks(
            bt, tt, all_h, lambda hv, xs: _lift_rows(tt, hv, tt.TR, xs), np.arange(q), None,
            sampled=sampled):
        rep.note(wit_cpp == lift_cpp, lift_cpp,
                 lambda i: {"q": q, "n": tower.n, "h": coeffs[i].tolist()})
    for i, (wit_cpp, lift_cpp) in sorted(sampled.items()):
        res = trace_lift_simple(Poly(tower.base, [int(c) for c in all_h[i]]), tower)
        assert res.predicted_cpp == wit_cpp
        assert res.verified_cpp(order) == lift_cpp
        rep.extras["builder_crosschecks"] += 1


def _random_ppoly(tower: TowerDesc, rng) -> PPoly:
    nterms = int(rng.integers(1, 3))
    idxs = rng.choice(tower.full_degree, size=min(nterms, tower.full_degree), replace=False)
    pairs = [(int(i), int(rng.integers(1, tower.q))) for i in idxs]
    return PPoly(tower, pairs)


@_sweep("thm3.3", 256, _grid_shapes, {"hypothesis_failures": 0})
def sweep_trace_general(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """The H(x) = h(tr x) + a*A(tr x) - a*A(x) lift, seeded L sample per tower.

    Cases whose kernel hypothesis fails are counted as skipped; built
    cases must match the exhaustive CPP check and carry a verified proof
    identity.
    """
    base = tower.base
    q = tower.q
    ppolys = [PPoly.monomial(tower, k) for k in range(1, min(tower.full_degree, 4))]
    ppolys += [_random_ppoly(tower, rng) for _ in range(2)]
    lin_h = HGrid(q, 1)
    h_list = [lin_h[i] for i in rng.integers(0, len(lin_h), size=min(6, len(lin_h)))]
    a_list = sorted({int(a) for a in rng.integers(1, q, size=2)})
    for L in ppolys:
        for hc in h_list:
            h = Poly(base, [int(c) for c in hc])
            for a in a_list:
                try:
                    res = trace_lift_general(h, L, a, tower, tower.order)
                except HypothesisFails:
                    rep.skipped += 1
                    rep.extras["hypothesis_failures"] += 1
                    continue
                ver = res.verified_cpp(tower.order)
                ok = (ver == res.predicted_cpp
                      and res.extras["proof_identity_holds"] is True)
                rep.note(ok, bool(ver),
                         {"q": q, "n": tower.n, "h": hc.tolist(),
                          "L": L.text(), "a": a})


def _binomial_lift_table(tt, bt, k: int, a: int):
    """lift(hv, xs): the rows of h values hv at the tower elements xs, each x
    the cell (x, h(tr x)) of one order x q table T[x, c] = x*(c + a*(A(tr x)
    - A(x))), A(x) = x^(p^k - 1); and the failing cells (x, c) of
    tr(T[x, c]) = tr(x)*c."""
    q, order = tt.tower.q, tt.tower.order
    avec = tt.pow_all(tt.tower.p**k - 1)
    adiff = tt.add(avec[tt.TR], tt.mul(tt.tower.base._cneg(1), avec))  # A(tr x) - A(x)
    table = tt.mul(tt.add(np.arange(q)[None, :], tt.mul(a, adiff)[:, None]),
                   np.arange(order)[:, None])
    bad_x, bad_c = np.nonzero(tt.TR[table] != bt.MUL[tt.TR])
    return (lambda hv, xs: table.ravel()[xs * q + hv[:, tt.TR[xs]]]), bad_x, bad_c


@_sweep("thm3.7", 256, _grid_shapes, {"builder_crosschecks": 0, "identity_failures": 0})
def sweep_trace_binomial(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """L = x^(p^k) lifts on every tower/k passing the arithmetic conditions.

    Every lift of one (k, a) reads one table (_binomial_lift_table); a
    seeded sample per (tower, k) replays through trace_lift_binomial, which
    also re-verifies the kernel hypothesis the arithmetic conditions
    promise, and must give the table's row.
    """
    p, r, n, q, order = tower.p, tower.base.r, tower.n, tower.q, tower.order
    if n % p == 0:
        return
    ks = [k for k in range(1, tower.full_degree)
          if math.gcd(k, n) == 1 and math.gcd(n, p ** math.gcd(k, r) - 1) == 1]
    if not ks:
        return
    bt = base_tables(tower.base)
    tt = tower_tables(tower)
    all_h = HGrid(q, H_DEGREE)
    for k in ks:
        for a in range(1, q):
            lift, bad_x, bad_c = _binomial_lift_table(tt, bt, k, a)
            for coeffs, _, wit_cpp, _, lift_cpp, ident in _lift_blocks(
                    bt, tt, all_h, lift, np.arange(q), (tt.TR[bad_x], bad_c)):
                rep.extras["identity_failures"] += int((~ident).sum())
                rep.note((wit_cpp == lift_cpp) & ident, lift_cpp,
                         lambda i: {"q": q, "n": n, "k": k, "a": a,
                                    "h": coeffs[i].tolist()})
        for i in rng.integers(0, len(all_h), size=3):
            h = Poly(tower.base, [int(c) for c in all_h[i]])
            a = int(rng.integers(1, q))
            res = trace_lift_binomial(h, k, a, tower, order)
            assert res.verified_cpp(order) == res.predicted_cpp
            assert res.extras["proof_identity_holds"] is True
            lift = _binomial_lift_table(tt, bt, k, a)[0]
            hv = bt.horner(all_h[i : i + 1])
            assert res.map_table(order) == lift(hv, np.arange(order))[0].tolist()
            rep.extras["builder_crosschecks"] += 1


@_sweep("lemma3.4", 4096, _grid_shapes,
        {"no_case_exhaustive_true": 0, "no_case_exhaustive_false": 0})
def sweep_kernel_binomials(rep: SweepReport, tower: TowerDesc, rng) -> None:
    """x^(p^k) - c*x on ker(tr): criterion verdict vs exhaustive check.

    Case1/Case2 predictions must be confirmed exactly; NoCaseApplies rows
    carry no prediction and are tallied as skipped (their exhaustive
    outcome is still recorded in extras).
    """
    tt = tower_tables(tower)
    p, q, n = tower.p, tower.q, tower.n
    kernel = tt.KERNEL
    ks = [k for k in range(1, tower.full_degree) if math.gcd(k, n) == 1]
    minus = tt.scale_row(tower.base._cneg(1))
    for k in ks:
        frob = tt.pow_map(kernel, p**k)
        for c in range(q):
            img = tt.add(frob, minus[tt.mul(c, kernel)])
            if not (tt.TR[img] == 0).all():
                rep.note(False, False, {"q": q, "n": n, "k": k, "c": c,
                                        "why": "image escaped the kernel"})
                continue
            actual = bool(_distinct_rows(img[None, :])[0])
            verdict = binomial_kernel_criterion(k, c, tower)
            if verdict.case_applied == "NoCaseApplies":
                rep.skipped += 1
                rep.extras["no_case_exhaustive_true"] += int(actual)
                rep.extras["no_case_exhaustive_false"] += int(not actual)
                continue
            rep.note(verdict.predicted == actual, actual,
                     {"q": q, "n": n, "k": k, "c": c,
                      "case": verdict.case_applied})
