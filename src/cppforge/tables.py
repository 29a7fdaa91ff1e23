"""Vectorized table arithmetic for exhaustive sweeps.

The scalar arithmetic in fields.py defines the fields; this module
re-expresses it as numpy index arithmetic so that whole-field scans stay
cheap at desk scale (orders up to 2^16). Nothing here is an independent
source of truth, and the lookup data is the scalar route's own: MEXP and
LOG are arrays of a level's cached sentinel exp/log lists
(FieldDesc.log_tables), the odd-p tower addition reads the level's half
table (FieldDesc._add_tab) in place, TR is maps.trace_list, ADD is a
FieldDesc._cadd_each row per code and BaseTables.pow_all is
FieldDesc._cpow_all. Every other table is built from these: beyond the
batched kernels, no arithmetic is the module's own, and test_tables.py
pins each table to the scalar ops. TowerTables holds arrays only and
reads every scalar off its tower, never a base table. A field's tables
are memoized (fields.memo), a base's at q^2 cells, a tower's at q^n.

The base-table kernels (BaseTables.horner, add_to_x, mul_by_x and
bijective_rows) look each cell up through one flat index into the raveled
table, ADD.ravel()[a*q + b] for ADD[a, b], which costs a fraction of a
2-D fancy index. A 2-D index raised IndexError on a code past the end of
its row; a flat one would land silently in the next row, so each kernel
range-checks its caller's input (codes, Horner's points, and the width of
a table handed to add_to_x or mul_by_x) and raises IndexError itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import OrderCapExceeded
from .fields import _LOG_TABLE_MAX, FieldDesc, TowerDesc, memo
from .maps import norm_exponent, trace_list

BULK_BASE_CAP = 1 << 10
# TowerTables wraps a level's exp/log lists, which stop at _LOG_TABLE_MAX
BULK_TOWER_CAP = _LOG_TABLE_MAX


class BaseTables:
    """Dense q x q operation tables for a base field."""

    __slots__ = ("field", "q", "ADD", "MUL")

    def __init__(self, field: FieldDesc):
        q = field.q
        if q > BULK_BASE_CAP:
            raise OrderCapExceeded(q, BULK_BASE_CAP, "bulk base tables")
        self.field = field
        self.q = q
        self.ADD = np.array([field._cadd_each([a] * q, range(q)) for a in range(q)], dtype=np.int32)
        mexp, lg = (np.array(t, dtype=np.int32) for t in field.log_tables())
        self.MUL = mexp[lg[:, None] + lg[None, :]]

    def pow_all(self, e: int) -> np.ndarray:
        """x^e for every x, with 0^0 = 1 to match the scalar rule."""
        return np.array(self.field._cpow_all(int(e)), dtype=np.int32)

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

    __slots__ = ("tower", "LOG", "MEXP", "TR", "NOR", "KERNEL", "_half_add")

    def __init__(self, tower: TowerDesc):
        if tower.order > BULK_TOWER_CAP:
            raise OrderCapExceeded(tower.order, BULK_TOWER_CAP, "bulk tower tables")
        self.tower = tower
        # LOG[0] = 2m keeps every log sum of a zero operand at >= 2m, past
        # the reach of any nonzero product (<= 2m - 2), where MEXP holds 0:
        # products need no separate zero mask
        mexp, lg = tower.log_tables()
        self.MEXP = np.array(mexp, dtype=np.int32)
        self.LOG = np.array(lg, dtype=np.int32)
        # the level's own (p, w) table, read in place and read-only: digit
        # addition never carries, so codes split at the level's lo = p^w
        # into a low and a high half, and the table adds both halves
        self._half_add = None
        if tower._add_tab is not None:
            self._half_add = np.frombuffer(memoryview(tower._add_tab).toreadonly(), dtype=np.uint16)
        self.TR = np.array(trace_list(tower), dtype=np.int32)
        if not (self.TR < tower.q).all():
            raise AssertionError("trace left the base field")
        nor = self.pow_all(norm_exponent(tower))
        if not (nor < tower.q).all():
            raise AssertionError("norm left the base field")
        self.NOR = nor.astype(np.int32)
        self.KERNEL = np.flatnonzero(self.TR == 0).astype(np.int64)
        if len(self.KERNEL) != tower.q ** (tower.n - 1):
            raise AssertionError("trace kernel has the wrong size")

    # -- arithmetic on index arrays -------------------------------------

    def add(self, a: np.ndarray, b) -> np.ndarray:
        half, lo = self._half_add, self.tower._add_lo
        if half is None:  # p = 2, or a level of full degree 1
            return a ^ b if self.tower.p == 2 else (a + b) % self.tower.p
        # widen before multiplying: in uint16, lo times an entry wraps past
        # 65535, and the uint16 sum would wrap the next addition's indices
        high = half[a // lo * lo + b // lo].astype(np.int32)
        return half[a % lo * lo + b % lo] + lo * high

    _add = add  # add_to_x's path: a tracer that wraps add times it once

    def add_to_x(self, tab: np.ndarray) -> np.ndarray:
        """tab[..., x] + x rowwise, the shifted map behind CPP checks."""
        return self._add(tab, np.arange(self.tower.order, dtype=tab.dtype))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.MEXP[self.LOG[a] + self.LOG[b]]

    def pow_map(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e elementwise (e >= 1); zero stays zero."""
        e = int(e)
        # the exponent product needs 64-bit room before reduction
        out = self.MEXP[(self.LOG[a].astype(np.int64) * e) % (self.tower.order - 1)]
        return np.where(a == 0, 0, out)

    def pow_all(self, e: int) -> np.ndarray:
        return self.pow_map(np.arange(self.tower.order, dtype=np.int64), e)

    def scale_row(self, b: int) -> np.ndarray:
        """embed(b) * x for every x."""
        return self.MEXP[self.LOG[b] + self.LOG]


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


@memo(lambda field: field.q**2)  # dense q x q tables
def base_tables(field: FieldDesc) -> BaseTables:
    return BaseTables(field)


@memo(lambda tower: tower.order)
def tower_tables(tower: TowerDesc) -> TowerTables:
    return TowerTables(tower)
