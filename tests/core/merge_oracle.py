"""Test-only oracle: the dense float64 cluster-merging kernel.

This is the original ``_merge_down`` of :mod:`repro.core.clustering`,
which maintained the full ``n x n`` pairwise support-dot matrix ``W``
and refreshed row/column ``p`` with one float64 matvec per merge.  The
production kernel replaced it with popcounts over bit-packed supports
and no ``W``; the differential tests run both on the same inputs and
require identical merge outcomes.  Kept out of ``src/`` on purpose: it
is a reference, not a second implementation.
"""

import numpy as np


def merge_down_dense(clusters, target: int, r: int):
    """Greedy pairwise merging by maximal support dot product (dense W)."""
    n = len(clusters)
    S = np.stack([(c.signature > 0).astype(np.float64) for c in clusters])
    W = S @ S.T
    np.fill_diagonal(W, -np.inf)
    best = np.argmax(W, axis=1)
    bestw = W[np.arange(n), best]
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining > target:
        masked = np.where(alive, bestw, -np.inf)
        p = int(np.argmax(masked))
        q = int(best[p])
        clusters[p].members.extend(clusters[q].members)
        clusters[p].signature += clusters[q].signature
        clusters[p].size += clusters[q].size
        np.maximum(S[p], S[q], out=S[p])
        alive[q] = False
        bestw[q] = -np.inf
        W[q, :] = -np.inf
        W[:, q] = -np.inf
        row = S @ S[p]
        row[~alive] = -np.inf
        row[p] = -np.inf
        W[p, :] = row
        W[:, p] = row
        repoint = alive & ((best == q) | (best == p))
        if repoint.any():
            best[repoint] = p
            bestw[repoint] = W[repoint, p]
        better = alive & (W[:, p] > bestw)
        if better.any():
            best[better] = p
            bestw[better] = W[better, p]
        best[p] = int(np.argmax(W[p]))
        bestw[p] = W[p, best[p]]
        remaining -= 1
    ordered = [clusters[i] for i in range(n) if alive[i]]
    ordered.sort(key=lambda c: min(c.members))
    return ordered


#: Rows of ``S @ S.T`` materialised at a time by :func:`initial_best_partners_gemm`.
BLOCK_ROWS = 256


def initial_best_partners_gemm(support):
    """Each row's first maximal off-diagonal support dot, by dense GEMM.

    The merge kernel's original partner seeding: only the upper
    triangle of ``S @ S.T`` is computed, ``BLOCK_ROWS`` rows at a time;
    each block also serves, transposed, the rows below it.  Every row
    sees its columns in ascending order and keeps a partner unless a
    strictly larger dot arrives, so ties go to the lowest column as with
    ``argmax`` over the full row.  The 0/1 GEMM is exact in float32.
    """
    n = len(support)
    F = np.asarray(support, dtype=np.float32)
    best = np.zeros(n, dtype=np.int64)
    bestw = np.full(n, -1, dtype=np.int32)
    for i0 in range(0, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        block = (F[i0:i1] @ F[i0:].T).astype(np.int32)
        rows = np.arange(i1 - i0)
        block[rows, rows] = -1
        # Rows i0:i1 against columns i0: (earlier columns came before).
        _offer(best[i0:i1], bestw[i0:i1], block, i0)
        # Rows i1: against columns i0:i1, by symmetry.
        _offer(best[i1:], bestw[i1:], block[:, i1 - i0 :].T, i0)
    return best, bestw


def _offer(best, bestw, dots, col0):
    """Update cached partners in place with later columns ``col0 + j``."""
    col = np.argmax(dots, axis=1)
    val = dots[np.arange(len(dots)), col]
    better = val > bestw
    best[better] = col[better] + col0
    bestw[better] = val[better]
