"""Vectorized table arithmetic for exhaustive sweeps.

The scalar arithmetic in fields.py defines the fields; this module
re-expresses it as numpy index arithmetic so that whole-field scans stay
cheap at desk scale (orders up to 2^16). Nothing here is an independent
source of truth: EXP/LOG are the scalar exp/log lists of each level
(FieldDesc.log_tables), every other table is built from them or from the
scalar ops, and test_tables.py pins each table to the scalar ops. Bulk
code exists for speed only.

The base-table kernels (BaseTables.horner, add_to_x, mul_by_x and
bijective_rows) look each cell up through one flat index into the raveled
table, ADD.ravel()[a*q + b] for ADD[a, b], which costs a fraction of a
2-D fancy index. A 2-D index raised IndexError on a code past the end of
its row; a flat one would land silently in the next row, so each kernel
range-checks its caller's input (codes, Horner's points, and the width of
a table handed to add_to_x or mul_by_x) and raises IndexError itself.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import OrderCapExceeded
from .fields import FieldDesc, TowerDesc
from .maps import norm_exponent

BULK_BASE_CAP = 1 << 10
BULK_TOWER_CAP = 1 << 16


class BaseTables:
    """Dense q x q operation tables for a base field."""

    __slots__ = ("field", "q", "p", "ADD", "MUL")

    def __init__(self, field: FieldDesc):
        q = field.q
        if q > BULK_BASE_CAP:
            raise OrderCapExceeded(q, BULK_BASE_CAP, "bulk base tables")
        self.field = field
        self.q = q
        self.p = field.p
        add = np.empty((q, q), dtype=np.int32)
        for a in range(q):
            row = [field._cadd(a, b) for b in range(q)]
            add[a] = row
        self.ADD = add
        exp, log = (np.array(t, dtype=np.int64) for t in field.log_tables())
        la, lb = np.meshgrid(log, log, indexing="ij")
        mul = exp[(la + lb) % (q - 1)].astype(np.int32)
        mul[0, :] = 0
        mul[:, 0] = 0
        self.MUL = mul

    def pow_all(self, e: int) -> np.ndarray:
        """x^e for every x, with 0^0 = 1 to match the scalar rule."""
        q = self.q
        out = np.ones(q, dtype=np.int32)
        b = np.arange(q, dtype=np.int32)
        e = int(e)
        if e == 0:
            return out
        while e:
            if e & 1:
                out = self.MUL[out, b]
            e >>= 1
            if e:
                b = self.MUL[b, b]
        return out

    def horner(self, coeffs: np.ndarray, points: Optional[np.ndarray] = None) -> np.ndarray:
        """Row i's polynomial at every x, or at each of the given points in
        their order; coeffs[i, j] is its x^j coefficient."""
        q = self.q
        _check_range(coeffs, q, "coefficient")
        add, mul = self.ADD.ravel(), self.MUL.ravel()
        if points is None:
            xs = np.arange(q, dtype=np.int32)
        else:
            _check_range(points, q, "point")
            xs = np.asarray(points, dtype=np.int32)
        # start from the top coefficient (a fresh array, not a broadcast view)
        acc = np.zeros((len(coeffs), len(xs)), dtype=np.int32)
        acc[:] = coeffs[:, -1:]
        for j in range(coeffs.shape[1] - 2, -1, -1):
            acc = add.take(mul.take(acc * q + xs) * q + coeffs[:, j : j + 1])
        return acc

    def add_to_x(self, tab: np.ndarray) -> np.ndarray:
        """tab[..., x] + x rowwise, the shifted map behind CPP checks."""
        return self._at_x(self.ADD, tab)

    def mul_by_x(self, tab: np.ndarray) -> np.ndarray:
        """tab[..., x] * x rowwise, the witness map x*h(x) of a value table;
        a table of the first k columns gives the map's first k columns."""
        return self._at_x(self.MUL, tab)

    def _at_x(self, table: np.ndarray, tab: np.ndarray) -> np.ndarray:
        _check_range(tab, self.q, "field code")
        width = tab.shape[-1]
        if width > self.q:
            raise IndexError(f"{width} columns for a field of order {self.q}")
        # an int32 factor keeps a narrow tab dtype from overflowing a*q
        return table.ravel().take(tab * np.int32(self.q) + np.arange(width, dtype=np.int32))


class TowerTables:
    """Log/exp driven whole-tower maps for a two-level extension."""

    __slots__ = (
        "tower",
        "base",
        "order",
        "q",
        "n",
        "p",
        "EXP",
        "LOG",
        "MEXP",
        "TR",
        "NOR",
        "KERNEL",
        "_half_add",
    )

    def __init__(self, tower: TowerDesc, base_tables: Optional[BaseTables] = None):
        order = tower.order
        if order > BULK_TOWER_CAP:
            raise OrderCapExceeded(order, BULK_TOWER_CAP, "bulk tower tables")
        self.tower = tower
        self.base = base_tables if base_tables is not None else BaseTables(tower.base)
        if self.base.field != tower.base:
            raise AssertionError("base tables belong to a different field")
        self.order = order
        self.q = tower.q
        self.n = tower.n
        self.p = tower.p
        m = order - 1
        exp, log = tower.log_tables()
        self.EXP = np.array(exp, dtype=np.int32)
        self.LOG = np.array(log, dtype=np.int32)
        # LOG[0] = 2m keeps every log sum of a zero operand at >= 2m, past
        # the reach of any nonzero product (<= 2m - 2), so MEXP below can
        # resolve products without a separate zero mask
        self.LOG[0] = 2 * m
        mexp = np.zeros(4 * m + 1, dtype=np.int32)
        mexp[: 2 * m - 1] = self.EXP[np.arange(2 * m - 1) % m]
        self.MEXP = mexp
        # digit addition never carries, so codes split at lo = q^ceil(n/2)
        # into a low and a high half, and one lo x lo table of the low
        # digits, built digit by digit from base.ADD, adds both halves
        self._half_add = None
        if self.p != 2:
            lo = self.q ** ((self.n + 1) // 2)
            codes = np.arange(lo, dtype=np.int64)
            half = np.zeros((lo, lo), dtype=np.int32)
            for sh in (self.q**k for k in range((self.n + 1) // 2)):
                d = (codes // sh) % self.q
                half += sh * self.base.ADD[d[:, None], d[None, :]]
            self._half_add = half
        xs = np.arange(order, dtype=np.int64)
        tr = xs.copy()
        t = xs
        for _ in range(self.n - 1):
            t = self.pow_map(t, self.q)
            tr = self.add(tr, t)
        if not (tr < self.q).all():
            raise AssertionError("trace left the base field")
        self.TR = tr.astype(np.int32)
        nor = self.pow_all(norm_exponent(tower))
        if not (nor < self.q).all():
            raise AssertionError("norm left the base field")
        self.NOR = nor.astype(np.int32)
        self.KERNEL = np.flatnonzero(self.TR == 0).astype(np.int64)
        if len(self.KERNEL) != self.q ** (self.n - 1):
            raise AssertionError("trace kernel has the wrong size")

    # -- arithmetic on index arrays -------------------------------------

    def add(self, a: np.ndarray, b) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        half = self._half_add
        lo = len(half)
        return half[a % lo, b % lo] + lo * half[a // lo, b // lo]

    _add = add  # add_to_x's path: a tracer that wraps add times it once

    def add_to_x(self, tab: np.ndarray) -> np.ndarray:
        """tab[..., x] + x rowwise, the shifted map behind CPP checks."""
        return self._add(tab, np.arange(self.order, dtype=tab.dtype))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.MEXP[self.LOG[a] + self.LOG[b]]

    def pow_map(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e elementwise (e >= 1); zero stays zero."""
        e = int(e)
        # the exponent product needs 64-bit room before reduction
        out = self.EXP[(self.LOG[a].astype(np.int64) * e) % (self.order - 1)]
        return np.where(a == 0, 0, out)

    def pow_all(self, e: int) -> np.ndarray:
        return self.pow_map(np.arange(self.order, dtype=np.int64), e)

    def scale_row(self, b: int) -> np.ndarray:
        """embed(b) * x for every x."""
        return self.MEXP[self.LOG[b] + self.LOG]

    def norm_square_table(self) -> np.ndarray:
        """S[x, c] = (nor(x*c) == nor(x) * c^n) for every tower x and base c:
        norm multiplicativity with one factor in the base, whose norm is
        c^n. x*c takes the lift's log path and the right side the base
        tables, so a corrupted cell shows; built afresh on each call."""
        lhs = self.NOR[self.MEXP[self.LOG[:, None] + self.LOG[None, : self.q]]]
        rhs = self.base.MUL[self.NOR[:, None], self.base.pow_all(self.n)[None, :]]
        return lhs == rhs


# -- the batched verdict ---------------------------------------------------


def bijective_rows(tabs: np.ndarray) -> np.ndarray:
    """Per row of a 2-D batch of value tables, each over a field of order
    tabs.shape[-1]: is it a bijection?  The batched twin of the scalar
    reference permcheck.table_verdict, which the sweeps replay against."""
    k, w = tabs.shape
    _check_range(tabs, w, "table value")
    hit = np.zeros((k, w), dtype=bool)
    hit.ravel()[tabs + np.arange(0, k * w, w)[:, None]] = True
    return hit.all(axis=1)


def _check_range(a: np.ndarray, bound: int, what: str) -> None:
    """Raise IndexError unless 0 <= a < bound: a flat index past the end of
    a row would land silently in the next one."""
    if a.size and (a.min() < 0 or a.max() >= bound):
        raise IndexError(f"{what} out of range [0, {bound})")


def cpp_rows(t, tabs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(permutation?, CPP?) per row; BaseTables or TowerTables t supplies
    add_to_x, which runs only on the rows that are permutations."""
    perm = bijective_rows(tabs)
    cpp = perm.copy()
    if perm.any():
        cpp[perm] = bijective_rows(t.add_to_x(tabs[perm]))
    return perm, cpp


# distinct keys of the seven default sweeps in one process: 27 base fields
# and 57 towers
_BASE_TABLES_SIZE = 32
_TOWER_TABLES_SIZE = 64


@functools.lru_cache(maxsize=_BASE_TABLES_SIZE)
def base_tables(field: FieldDesc) -> BaseTables:
    return BaseTables(field)


@functools.lru_cache(maxsize=_TOWER_TABLES_SIZE)
def tower_tables(tower: TowerDesc) -> TowerTables:
    return TowerTables(tower, base_tables(tower.base))
