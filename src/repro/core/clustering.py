"""Hierarchical iteration distribution (paper Fig. 5).

The storage cache hierarchy tree is walked from the root level by level;
at each tree node the current set of iteration chunks is partitioned
into as many clusters as the node has children (Stage 1), the clusters
are load balanced within the balance threshold (Stage 2,
:mod:`~repro.core.balancing`), and each cluster moves on to the
corresponding child.  After the leaf level every client node owns one
cluster of iteration chunks.

Stage 1 specifics, following the paper:

* a cluster's *signature* accumulates its member tags ("bitwise sum");
  merge decisions use the signature's support — the OR of member tags —
  so the dot product ``αp • αq`` counts distinct shared data chunks
  (see :func:`_merge_many` for why the support reading is the one
  consistent with the paper's Fig. 9);
* while there are too many clusters, the pair maximising that dot
  product is merged;
* if there are too *few* clusters, the largest cluster is split until
  the count matches (splitting a single iteration chunk in half when a
  cluster has only one member).

Merging runs on supports alone and is vectorised across a whole tree
level: :func:`_merge_many` steps the greedy merges of every node of the
level in lock-step while at least ``_LOCKSTEP_MIN`` are still merging
and finishes the rest one at a time.  Supports are bit-packed into
``uint64`` words over only the data chunks the node's chunks touch, and
only a per-row best-partner cache (valid by the monotonicity of
OR-dots) is kept.  It is seeded from sparse co-occurrence counts and
refreshed under merges with one popcount pass per step over the words
the absorbing cluster holds (or, when it absorbs again, the words it
gained), never materialising the ``n x n`` pairwise matrix.  Once fewer
than half the columns are alive (and at least ``_COMPACT_MIN`` are),
the dead ones are dropped so each step's pass only covers live
clusters.  The merge logs are replayed into member lists, and each
resulting cluster's signature is summed once.

The level-order walk makes the same decisions as a depth-first one;
split-off chunks are renumbered at the end into the depth-first
walk's order (:func:`_depth_first_numbering`; DESIGN.md §10).

Signatures are ``float32`` rows, like the :class:`TagMatrix` they are
summed from: counts stay far below ``2**24``, so they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.balancing import TagMatrix, balance_clusters
from repro.core.chunking import IterationChunk, IterationChunkSet
from repro.core.graph import AffinityGraph
from repro.hierarchy.topology import CacheHierarchy, CacheNode
from repro.telemetry import get_registry
from repro.util.validation import check_in_range

__all__ = [
    "Cluster",
    "DistributionResult",
    "distribute_iterations",
    "flat_distribution",
    "cluster_into",
]


@dataclass
class Cluster:
    """A cluster of iteration chunks during/after distribution.

    ``members`` index into the shared chunk *pool* (which can grow when
    load balancing splits chunks).  ``signature`` holds per-data-chunk
    member-tag *counts* as ``float32`` (exact below ``2**24``, so
    eviction can subtract exactly); merge and eviction decisions use its
    support, ``signature > 0``.  ``size`` is the total iteration count.
    """

    members: list[int]
    signature: np.ndarray
    size: int

    def validate(self, pool: list[IterationChunk]) -> None:
        sig = np.zeros_like(self.signature)
        size = 0
        for m in self.members:
            size += pool[m].size
            for c in pool[m].tag.chunks:
                sig[c] += 1
        if size != self.size or not np.array_equal(sig, self.signature):
            raise ValueError("cluster bookkeeping out of sync with pool")


@dataclass
class DistributionResult:
    """Output of Fig. 5: per-client iteration-chunk assignments.

    ``pool`` is the final chunk list (including split-off chunks);
    ``assignment[c]`` lists pool indices owned by client ``c``.
    """

    pool: list[IterationChunk]
    assignment: dict[int, list[int]]
    chunk_set: IterationChunkSet

    @property
    def num_clients(self) -> int:
        return len(self.assignment)

    def client_iterations(self, client: int) -> np.ndarray:
        """All iteration ranks assigned to a client (chunk order, then rank)."""
        ids = self.assignment[client]
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.pool[i].iterations for i in ids])

    def iteration_counts(self) -> dict[int, int]:
        return {
            c: sum(self.pool[i].size for i in ids)
            for c, ids in self.assignment.items()
        }

    def validate_partition(self) -> None:
        """Assert every nest iteration lands on exactly one client."""
        all_ranks = [self.client_iterations(c) for c in sorted(self.assignment)]
        ranks = np.concatenate(all_ranks) if all_ranks else np.empty(0, np.int64)
        total = self.chunk_set.nest.num_iterations
        if len(ranks) != total or len(np.unique(ranks)) != total:
            raise ValueError(
                f"assignment is not a partition: {len(ranks)} ranks "
                f"({len(np.unique(ranks))} unique) vs {total} iterations"
            )


def _union_find_groups(n: int, pairs: set[tuple[int, int]]) -> list[list[int]]:
    """Group indices 0..n-1 by the forced-together pairs (order-preserving)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def cluster_into(
    member_ids: list[int],
    pool: list[IterationChunk],
    num_clusters: int,
    r: int,
    forced_pairs: set[tuple[int, int]] | None = None,
    tags: TagMatrix | None = None,
    level: str = "",
) -> list[Cluster]:
    """Stage 1 of Fig. 5: partition chunks into exactly ``num_clusters``.

    ``forced_pairs`` (pool-index pairs) are pre-merged — the
    infinite-edge-weight dependence treatment of §5.4.  May split chunks
    (appending to ``pool``) when there are fewer chunks than clusters.
    ``level`` labels the telemetry counters with the hierarchy level
    being partitioned (``clustering.merges{level=L2}``).
    """
    tags = tags if tags is not None else TagMatrix(pool, r)
    [clusters] = _merge_nodes(
        [member_ids], [num_clusters], pool, forced_pairs, tags, [level]
    )
    _split_to(clusters, num_clusters, pool, tags, level)
    return clusters


def _merge_nodes(
    member_lists: list[list[int]],
    targets: list[int],
    pool: list[IterationChunk],
    forced_pairs: set[tuple[int, int]] | None,
    tags: TagMatrix,
    levels: list[str],
) -> list[list[Cluster]]:
    """Merge each node's chunks down to its target, all in one kernel call.

    Initial clusters are singletons, or union-find groups of forced
    pairs.  Returns each node's clusters, ordered by smallest member
    pool index, with at most ``targets[i]`` of them.
    """
    registry = get_registry()
    groups_of = []
    for member_ids, target, level in zip(member_lists, targets, levels):
        if target <= 0:
            raise ValueError("num_clusters must be positive")
        if not member_ids:
            raise ValueError("cannot cluster an empty chunk set")
        groups = _initial_groups(member_ids, forced_pairs)
        if len(groups) > target:
            registry.counter("clustering.merges", level=level or "all").inc(
                len(groups) - target
            )
        groups_of.append(groups)
    logs = _merge_many([_group_bits(groups, tags) for groups in groups_of], targets)
    return [_replay(groups, log, pool, tags) for groups, log in zip(groups_of, logs)]


def _initial_groups(
    member_ids: list[int], forced_pairs: set[tuple[int, int]] | None
) -> list[list[int]]:
    if not forced_pairs:
        return [[m] for m in member_ids]
    relevant = {m: k for k, m in enumerate(member_ids)}
    local_pairs = {
        (relevant[a], relevant[b])
        for a, b in forced_pairs
        if a in relevant and b in relevant
    }
    groups = _union_find_groups(len(member_ids), local_pairs)
    return [[member_ids[i] for i in g] for g in groups]


#: ``(n, rows, cols)``: cluster ``rows[e]`` of ``n`` holds data chunk
#: ``cols[e]``; entries are unique and ``rows`` ascending.
Support = tuple[int, np.ndarray, np.ndarray]


def _group_bits(groups: list[list[int]], tags: TagMatrix) -> Support:
    """The groups' supports: the OR of each group's member tags."""
    flat = [m for g in groups for m in g]
    rows, cols = tags.bits(flat)
    if len(flat) > len(groups):
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rows, cols = np.divmod(np.unique(group[rows] * tags.r + cols), tags.r)
    return len(groups), rows, cols


def _replay(
    groups: list[list[int]],
    log: np.ndarray,
    pool: list[IterationChunk],
    tags: TagMatrix,
) -> list[Cluster]:
    """Apply a merge log to the initial groups and build each cluster once."""
    members = [list(g) for g in groups]
    alive = [True] * len(members)
    for p, q in log.tolist():
        members[p].extend(members[q])
        alive[q] = False
    kept = [ms for ms, keep in zip(members, alive) if keep]
    if len(log):  # merged clusters are ordered by smallest member pool index
        kept.sort(key=min)
    return [_make_cluster(ms, pool, tags) for ms in kept]


def _split_to(
    clusters: list[Cluster],
    num_clusters: int,
    pool: list[IterationChunk],
    tags: TagMatrix,
    level: str,
) -> None:
    if len(clusters) < num_clusters:
        get_registry().counter("clustering.splits", level=level or "all").inc(
            num_clusters - len(clusters)
        )
    while len(clusters) < num_clusters:
        _split_largest(clusters, pool, tags)


def _merge_many(supports: list[Support], targets: list[int]) -> list[np.ndarray]:
    """Greedy pairwise merging by maximal support dot, for many problems.

    Problem ``i`` starts from ``supports[i]``, the clusters' supports
    (bitwise OR of member tags), and merges the pair with the largest
    dot product until ``targets[i]`` remain.  The dot then counts the
    distinct data chunks two clusters share.  (A count-weighted
    signature would snowball through any data chunk every iteration
    touches — e.g. the ``A[i%d]`` window of Fig. 6 — and merge unrelated
    clusters, contradicting the paper's own Fig. 9 outcome.)  Returns
    per problem an ``(n - target, 2)`` log of local ``(p, q)`` pairs in
    merge order: cluster ``q`` merged into ``p``.

    Each problem keeps only a per-row best-partner cache
    (``best``/``bestw``), never the pairwise matrix: it is seeded by
    :func:`_initial_best_partners` and maintained under merges.  OR-dots
    are monotone under support growth, so after merging q into p every
    cached best only improves at column p, and rows that pointed at q
    can safely repoint to p (``p ⊇ q``); a row pointing at p either
    sees ``row > bestw`` or is unchanged.  Only row p itself — which by
    symmetry is also column p — is recomputed, with one popcount pass
    over the supports, bit-packed into ``uint64`` words over only the
    data chunks the problem touches.  ``-1`` marks a dead, padding or
    self pair; real dots are ``>= 0``, so ties break exactly as
    ``argmax`` on counts.

    The problems run in lock-step, ordered by step count so that the
    active ones are a prefix, while at least ``_LOCKSTEP_MIN`` are
    active: ``S[w, i, j]`` is word ``w`` of cluster ``j`` of problem
    ``i``, and every array op of a step serves all of them.  The rest
    finish one at a time in :func:`_merge_one`.  A problem's decisions
    depend on its own state only, so the logs are those of merging each
    problem alone.
    """
    steps = [s[0] - t for s, t in zip(supports, targets)]
    logs = [np.empty((max(k, 0), 2), dtype=np.int64) for k in steps]
    order = sorted((i for i, k in enumerate(steps) if k > 0), key=lambda i: -steps[i])
    if not order:
        return logs
    B = len(order)
    sizes = np.array([supports[i][0] for i in order])
    N = int(sizes.max())
    pid = np.repeat(np.arange(B), [len(supports[i][1]) for i in order])
    rows = np.concatenate([supports[i][1] for i in order])
    cols = np.concatenate([supports[i][2] for i in order])
    chunk, held = _number_chunks(pid, cols, B)
    words = np.maximum(-(-held // 64), 1)
    S = np.zeros((int(words.max()), B, N), dtype=np.uint64)
    bit = chunk - (np.cumsum(held) - held)[pid]  # numbered within its problem
    np.bitwise_or.at(
        S, (bit >> 6, pid, rows), np.uint64(1) << (bit & 63).astype(np.uint64)
    )
    best, bestw = _initial_best_partners(sizes, pid, rows, chunk)
    dead = np.arange(N) >= sizes[:, None]  # padding columns are dead clusters
    index = np.tile(np.arange(N), (B, 1))  # column j of problem i: cluster index[i, j]
    log = np.empty((B, steps[order[0]], 2), dtype=np.int64)
    a, t = B, 0  # a problems are active at step t
    while True:
        while a and steps[order[a - 1]] <= t:
            a -= 1
        if a < _LOCKSTEP_MIN:
            break
        remaining = int(sizes[:a].max()) - t
        if 2 * remaining < S.shape[2] and remaining >= _COMPACT_MIN:
            S, best, bestw, dead, index = _compact_many(
                S[:, :a], best[:a], bestw[:a], dead[:a], index[:a], remaining
            )
        ar = np.arange(a)
        bs, bw, dd, Sa = best[:a], bestw[:a], dead[:a], S[:, :a]
        p = bw.argmax(axis=1)
        q = bs[ar, p]
        log[:a, t, 0] = index[ar, p]
        log[:a, t, 1] = index[ar, q]
        sp = Sa[:, ar, p] | Sa[:, ar, q]
        Sa[:, ar, p] = sp
        dd[ar, q] = True
        bw[ar, q] = -1
        row = np.bitwise_count(Sa & sp[:, :, None]).sum(axis=0, dtype=np.int32)
        np.putmask(row, dd, -1)
        row[ar, p] = -1
        repoint = row > bw
        repoint |= bs == q[:, None]
        np.copyto(bs, p[:, None], where=repoint)
        np.copyto(bw, row, where=repoint)
        b = row.argmax(axis=1)
        bs[ar, p] = b
        bw[ar, p] = row[ar, b]
        t += 1
    for i in range(a):
        tail = _merge_one(
            np.ascontiguousarray(S[: words[i], i]),
            best[i].copy(),
            bestw[i].copy(),
            dead[i].copy(),
            index[i].copy(),
            int(sizes[i]) - t,
            targets[order[i]],
        )
        log[i, t : t + len(tail)] = tail
    for i, k in enumerate(order):
        logs[k][:] = log[i, : steps[k]]
    return logs


def _merge_one(
    S: np.ndarray,
    best: np.ndarray,
    bestw: np.ndarray,
    dead: np.ndarray,
    index: np.ndarray,
    remaining: int,
    target: int,
) -> list[tuple[int, int]]:
    """Finish one problem of :func:`_merge_many` alone; its log from here.

    ``S`` is the problem's ``(words, width)`` packed supports; column
    ``j`` of every array is cluster ``index[j]``.  When fewer than half
    the columns are alive (and at least ``_COMPACT_MIN`` are), the dead
    ones are dropped and ``best`` remapped: alive rows only ever point
    at alive columns and the survivors keep their relative order, so
    every ``argmax`` tie still breaks the same way.  Row p reads only
    the words where p has bits; when the absorber p repeats, only the
    words p gains change its row, so the previous row is updated from
    those words alone.
    """
    log = []
    row = np.empty(0, dtype=np.int32)
    last = -1  # the absorber whose fresh row `row` holds, if any
    while remaining > target:
        if 2 * remaining < len(index) and remaining >= _COMPACT_MIN:
            alive = ~dead
            position = np.cumsum(alive) - 1
            S = np.ascontiguousarray(S[:, alive])
            best = position[best[alive]]
            bestw = bestw[alive]
            index = index[alive]
            dead = np.zeros(remaining, dtype=bool)
            last = -1
        p = int(bestw.argmax())
        q = int(best[p])
        log.append((int(index[p]), int(index[q])))
        sp, sq = S[:, p], S[:, q]
        gained = sq & ~sp
        sp |= sq
        if p != last:  # a fresh row counts all of p's bits
            row = np.zeros(len(index), dtype=np.int32)
            gained = sp
        for w in gained.nonzero()[0].tolist():  # words without bits add 0
            row += np.bitwise_count(S[w] & gained[w])
        dead[q] = True
        bestw[q] = -1
        np.putmask(row, dead, -1)
        row[p] = -1
        repoint = row > bestw
        repoint |= best == q
        np.putmask(best, repoint, p)
        np.putmask(bestw, repoint, row)
        b = int(row.argmax())
        best[p] = b
        bestw[p] = row[b]
        last = p
        remaining -= 1
    return log


def _compact_many(
    S: np.ndarray,
    best: np.ndarray,
    bestw: np.ndarray,
    dead: np.ndarray,
    index: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keep each problem's alive columns, in order, in ``width`` columns.

    Problems with fewer alive columns are padded with dead ones.
    """
    keep = np.argsort(dead, axis=1, kind="stable")[:, :width]
    position = np.cumsum(~dead, axis=1) - 1
    best = np.take_along_axis(position, np.take_along_axis(best, keep, 1), 1)
    return (
        np.take_along_axis(S, keep[None], 2),
        best,
        np.take_along_axis(bestw, keep, 1),
        np.take_along_axis(dead, keep, 1),
        np.take_along_axis(index, keep, 1),
    )


def _number_chunks(
    pid: np.ndarray, cols: np.ndarray, B: int
) -> tuple[np.ndarray, np.ndarray]:
    """Number the data chunks held in each of ``B`` problems, in order.

    Returns each entry's chunk number — dense over the ``(problem, data
    chunk)`` pairs, ascending in both — and each problem's chunk count.
    """
    width = int(cols.max()) + 1 if len(cols) else 1
    key = pid * width + cols
    held = np.zeros(B * width, dtype=bool)
    held[key] = True
    rank = np.cumsum(held)
    return rank[key] - 1, np.diff(rank[width - 1 :: width], prepend=0)


#: Fewest active problems :func:`_merge_many` steps in lock-step.  On the
#: suite's merge problems (paper scale and scale 8) one lock-step batch
#: of two costs 0.83-0.97x two single-problem runs, a batch of one
#: 1.2-2.3x one run.
_LOCKSTEP_MIN = 2

#: Fewest alive clusters for which dead columns are compacted away.
_COMPACT_MIN = 128

#: Rows of co-occurrence counts materialised at a time by
#: :func:`_initial_best_partners`.
_BLOCK_ROWS = 256


def _initial_best_partners(
    sizes: np.ndarray, pid: np.ndarray, rows: np.ndarray, chunk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's first maximal support dot with another of its problem.

    Cluster ``rows[e]`` of problem ``pid[e]`` holds data chunk
    ``chunk[e]``; chunk numbers are not shared between problems, and
    entries ascend by problem, then cluster.  Returns ``(B, N)`` arrays
    ``best``/``bestw`` for ``N = max(sizes)``; padding columns hold
    ``bestw = -1``.

    The dot of clusters i and j counts the data chunks both hold, so it
    is summed from co-occurrences: for each data chunk d, every pair of
    the clusters holding d.  That costs ``O(n**2 + sum_d |L_d|**2)`` for
    ``L_d`` the clusters holding d, instead of ``O(n**2 r)`` for ``S @
    S.T``; supports are sparse.  A block of ``_BLOCK_ROWS`` full rows is
    counted at a time (the problems' rows one after another), so
    ``argmax`` picks the lowest column among equal dots, and an all-zero
    row the lowest off-diagonal column, never a padding one.
    """
    B, N = len(sizes), int(sizes.max())
    offset = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(B), sizes)  # problem of each row
    at_row = offset[pid] + rows  # ascending
    holders = rows[np.argsort(chunk, kind="stable")]  # clusters by data chunk
    counts = np.bincount(chunk)
    starts = np.cumsum(counts) - counts
    best = np.zeros((B, N), dtype=np.int64)
    bestw = np.full((B, N), -1, dtype=np.int32)
    total = len(owner)
    bounds = np.searchsorted(at_row, np.arange(0, total + _BLOCK_ROWS, _BLOCK_ROWS))
    for block_no, i0 in enumerate(range(0, total, _BLOCK_ROWS)):
        i1 = min(i0 + _BLOCK_ROWS, total)
        lo, hi = bounds[block_no], bounds[block_no + 1]
        d = chunk[lo:hi]
        k = counts[d]
        first = np.cumsum(k) - k
        j = holders[np.arange(int(k.sum())) + np.repeat(starts[d] - first, k)]
        i = np.repeat(at_row[lo:hi] - i0, k)
        block = np.bincount(i * N + j, minlength=(i1 - i0) * N).reshape(i1 - i0, N)
        ar = np.arange(i1 - i0)
        problem = owner[i0:i1]
        cluster = np.arange(i0, i1) - offset[problem]
        block[ar, cluster] = -1
        b = block.argmax(axis=1)
        best[problem, cluster] = b
        bestw[problem, cluster] = block[ar, b]
    return best, bestw


def _split_largest(
    clusters: list[Cluster],
    pool: list[IterationChunk],
    tags: TagMatrix,
) -> None:
    """Split the largest cluster into two (paper: "Break cαq into two")."""
    big = max(range(len(clusters)), key=lambda i: clusters[i].size)
    cluster = clusters[big]
    if len(cluster.members) > 1:
        # Move half the *iterations* out, chunk-wise (largest chunks first).
        members = sorted(cluster.members, key=lambda m: -pool[m].size)
        half = cluster.size / 2.0
        taken: list[int] = []
        acc = 0
        for m in members:
            if acc >= half and taken:
                break
            if len(taken) == len(members) - 1:
                break  # leave at least one chunk behind
            taken.append(m)
            acc += pool[m].size
        moved = set(taken)
        rest = [m for m in cluster.members if m not in moved]
        clusters[big] = _make_cluster(taken, pool, tags)
        clusters.append(_make_cluster(rest, pool, tags))
        return
    # Single chunk: split the chunk itself in half.
    m = cluster.members[0]
    chunk = pool[m]
    if chunk.size < 2:
        raise ValueError(
            "cannot create more clusters: a single-iteration chunk cannot split"
        )
    first, second = chunk.split(chunk.size // 2)
    pool[m] = first
    pool.append(second)
    tags.append(second)
    clusters[big] = _make_cluster([m], pool, tags)
    clusters.append(_make_cluster([len(pool) - 1], pool, tags))


def _make_cluster(
    members: list[int],
    pool: list[IterationChunk],
    tags: TagMatrix,
) -> Cluster:
    return Cluster(
        list(members), tags.counts(members), sum(pool[m].size for m in members)
    )


def distribute_iterations(
    chunk_set: IterationChunkSet,
    hierarchy: CacheHierarchy,
    balance_threshold: float = 0.10,
    graph: AffinityGraph | None = None,
) -> DistributionResult:
    """The full Fig. 5 algorithm: hierarchy-aware iteration distribution.

    Parameters
    ----------
    chunk_set:
        Iteration chunks of the (parallelised) nest.
    hierarchy:
        The storage cache hierarchy tree ``T``; its leaves are the ``k``
        client nodes.
    balance_threshold:
        ``BThres`` as a fraction of the mean per-cluster iteration count
        (the paper's experiments use 10 %).
    graph:
        Optional affinity graph carrying forced (infinite-weight) pairs
        for the dependence extension; plain affinities are recomputed
        from signatures and need no graph.
    """
    check_in_range("balance_threshold", balance_threshold, 0.0, 1.0)
    pool: list[IterationChunk] = list(chunk_set.chunks)
    r = chunk_set.tag_width
    tags = TagMatrix(pool, r)
    forced = graph.forced_pairs if graph is not None else None
    assignment: dict[int, list[int]] = {}
    preorder = {id(node): i for i, node in enumerate(hierarchy.root.walk())}
    appended_by: list[int] = []  # preorder position of each split-off chunk's node

    # The nodes of one level, each with the chunks it partitions.
    frontier: list[tuple[list[int], CacheNode]] = [
        (list(range(len(pool))), hierarchy.root)
    ]
    while frontier:
        nodes = []
        for member_ids, node in frontier:
            while node.degree == 1:
                node = node.children[0]
            if node.is_leaf:
                assignment[node.client_id] = list(member_ids)  # type: ignore[index]
            else:
                nodes.append((member_ids, node))
        # A node's *children* are being partitioned: label counters by
        # the level the resulting clusters will occupy.
        levels = [node.children[0].level_name for _, node in nodes]
        merged = _merge_nodes(
            [ids for ids, _ in nodes],
            [node.degree for _, node in nodes],
            pool,
            forced,
            tags,
            levels,
        )
        frontier = []
        for (_, node), clusters, level in zip(nodes, merged, levels):
            before = len(pool)
            _split_to(clusters, node.degree, pool, tags, level)
            balance_clusters(clusters, pool, balance_threshold, r, tags)
            appended_by += [preorder[id(node)]] * (len(pool) - before)
            frontier += [(c.members, ch) for ch, c in zip(node.children, clusters)]

    pool, assignment = _depth_first_numbering(
        pool, assignment, len(chunk_set.chunks), appended_by
    )
    registry = get_registry()
    registry.gauge("clustering.pool_size").set(len(pool))
    registry.gauge("clustering.chunk_splits").set(len(pool) - len(chunk_set.chunks))
    # Clients under an empty branch (more clients than chunks after all
    # splitting) would be missing; hierarchy validation guarantees ids,
    # so fill any absentee with an empty list for safety.
    for c in range(hierarchy.num_clients):
        assignment.setdefault(c, [])
    return DistributionResult(pool, assignment, chunk_set)


def _depth_first_numbering(
    pool: list[IterationChunk],
    assignment: dict[int, list[int]],
    base: int,
    appended_by: list[int],
) -> tuple[list[IterationChunk], dict[int, list[int]]]:
    """Renumber split-off chunks into the order a depth-first walk appends them.

    The level-order walk appends a node's split-off chunks after those
    of every node to its left on its level; the depth-first walk appends
    them in preorder of the appending node.  A stable sort by that
    position restores the depth-first pool; every decision was already
    the same, because within one node's members the relative order of
    pool indices is the same either way.
    """
    if not appended_by:
        return pool, assignment
    order = np.argsort(appended_by, kind="stable")
    renumber = np.arange(len(pool))
    renumber[base + order] = np.arange(base, len(pool))
    new_index = renumber.tolist()
    pool = pool[:base] + [pool[base + i] for i in order.tolist()]
    return pool, {c: [new_index[m] for m in ids] for c, ids in assignment.items()}


def flat_distribution(
    chunk_set: IterationChunkSet,
    hierarchy: CacheHierarchy,
    balance_threshold: float = 0.10,
) -> DistributionResult:
    """Hierarchy-*oblivious* k-way clustering (ablation baseline).

    Merges straight down to one cluster per client, ignoring the cache
    tree's structure — what a mapper unaware of the cache hierarchy's
    *shape* (but still affinity-driven) would do.  Comparing this to
    :func:`distribute_iterations` isolates the value of walking the tree
    level by level (DESIGN.md §6).
    """
    check_in_range("balance_threshold", balance_threshold, 0.0, 1.0)
    pool: list[IterationChunk] = list(chunk_set.chunks)
    r = chunk_set.tag_width
    tags = TagMatrix(pool, r)
    k = hierarchy.num_clients
    clusters = cluster_into(
        list(range(len(pool))), pool, k, r, None, tags, level="flat"
    )
    balance_clusters(clusters, pool, balance_threshold, r, tags)
    assignment = {c: list(cluster.members) for c, cluster in enumerate(clusters)}
    for c in range(k):
        assignment.setdefault(c, [])
    return DistributionResult(pool, assignment, chunk_set)
