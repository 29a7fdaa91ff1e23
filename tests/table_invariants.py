"""Whole-tower structural checks of the numpy tables, for the tests only.

Both scan every pair of tower elements, in row blocks so the order x order
comparison never sits in memory at once.
"""

import numpy as np

_ROW_BLOCK = 512  # row chunk for order x order pair scans


def trace_additive(tt) -> bool:
    """tr(x + y) = tr(x) + tr(y) for every pair x, y of the tower."""
    xs = np.arange(tt.order, dtype=np.int64)
    for lo in range(0, tt.order, _ROW_BLOCK):
        rows = xs[lo : lo + _ROW_BLOCK, None]
        sums = tt.add(rows, xs[None, :])
        want = tt.base.ADD[tt.TR[rows], tt.TR[xs[None, :]]]
        if not (tt.TR[sums] == want).all():
            return False
    return True


def norm_multiplicative(tt) -> bool:
    """nor(x * y) = nor(x) * nor(y) for every pair of nonzero x, y."""
    m = tt.order - 1
    nor_by_log = tt.NOR[tt.EXP]
    for lo in range(0, m, _ROW_BLOCK):
        li = np.arange(lo, min(lo + _ROW_BLOCK, m), dtype=np.int64)[:, None]
        lj = np.arange(m, dtype=np.int64)[None, :]
        lhs = nor_by_log[(li + lj) % m]
        want = tt.base.MUL[nor_by_log[li], nor_by_log[lj]]
        if not (lhs == want).all():
            return False
    return True
