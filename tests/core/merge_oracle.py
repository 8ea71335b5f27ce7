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
