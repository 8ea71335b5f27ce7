"""Dense integer ids for the rows of an integer matrix.

Grouping or comparing whole index rows (a tag's chunk-id row, an array
reference's multi-index) reduces to comparing one ``int64`` per row:
:func:`row_ids` folds the columns, each shifted by its minimum, into a
mixed-radix key and densifies that key once at the end.  The key is
re-densified early only when the next column would push it to
``2**62``, and a column whose own span is that wide is densified before
it is folded, so the key cannot overflow whatever the values' span or
the number of columns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_ids"]

#: Exclusive bound the folded key is kept under (``int64`` headroom).
_KEY_LIMIT = 2**62


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each value among the distinct values, and their count."""
    uniq = np.unique(values)  # hash-based without return_inverse
    return np.searchsorted(uniq, values), len(uniq)


def row_ids(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the rows of a 2-D integer array.

    Returns ``(ids, k)``: ``ids[i] == ids[j]`` iff rows ``i`` and ``j``
    are equal, and the ``k`` distinct rows get ids ``0..k-1`` in
    lexicographic row order.
    """
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    ids = np.zeros(n, dtype=np.int64)
    k = 1  # exclusive bound on the folded key
    for col in rows.T:
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if width * n >= _KEY_LIMIT:
            # Too wide to fold even after the key is densified (k <= n).
            digits, width = _dense(col)
        else:
            digits = col.astype(np.int64, copy=False) - lo
        if k * width >= _KEY_LIMIT:
            ids, k = _dense(ids)
        ids = ids * width + digits
        k *= width
    return _dense(ids)
