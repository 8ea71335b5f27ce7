"""Dense integer ids for the rows of an integer matrix.

Grouping or comparing whole index rows (a tag's chunk-id row, an array
reference's multi-index) reduces to comparing one ``int64`` per row:
:func:`row_ids` folds the columns into a mixed-radix key and re-densifies
it after every column, so the key stays below ``len(rows) ** 2`` and
cannot overflow whatever the values' span or the number of columns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_ids"]


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
    ids = np.zeros(len(rows), dtype=np.int64)
    k = 1
    for col in rows.T:
        col_ids, width = _dense(col)
        ids, k = _dense(ids * width + col_ids)
    return ids, k
