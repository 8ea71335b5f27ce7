"""Differential tests of the mapper's hot kernels against their oracles.

Each kernel is compared with the simpler implementation it replaced:

* cluster merging (lock-step batches of packed-popcount best-partner
  caches, no pairwise matrix) against the dense float64 ``W`` kernel in
  :mod:`tests.core.merge_oracle`, run on each problem alone, and the
  sparse initial best partners against the GEMM seeding there;
* the level-order distribution walk (one merge call per tree level,
  split-off chunks renumbered) against the recursive walk in
  :mod:`tests.core.distribute_oracle`;
* the exact dependence fallback (one integer id per index row) against
  sets of index tuples;
* chunk grouping and row ids (integer row ids) against
  ``np.unique(axis=0)``;
* the intra mapper's rank-space candidates against the iteration-matrix
  transforms they replaced (``permute_iterations``/``tile_iterations``
  followed by ``linearize``);
* group scheduling (Python-int bitmasks) against the set-based
  ``Tag.dot`` scheduler in :mod:`tests.core.schedule_oracle`.

Every comparison requires identical output, not merely an equally good
one: the mapping digests depend on it.
"""

import copy

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.chunking import (
    IterationChunk,
    IterationChunkSet,
    form_iteration_chunks,
    group_equal_rows,
)
from repro.core.clustering import (
    Cluster,
    _initial_best_partners,
    _merge_many,
    distribute_iterations,
)
from repro.core.dependences import DependenceStrategy, apply_dependence_strategy
from repro.core.graph import build_affinity_graph
from repro.core.scheduling import schedule_group
from repro.hierarchy.topology import hierarchy_from_spec
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.dependence import rows_intersect
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.polyhedral.transforms import (
    permutation_ranks,
    permute_iterations,
    tile_iterations,
    tile_ranks,
)
from repro.telemetry import MetricsRegistry, use_registry
from repro.util.bitset import Tag
from repro.util.rowkeys import row_ids
from tests.core.distribute_oracle import distribute_recursive
from tests.core.merge_oracle import initial_best_partners_gemm, merge_down_dense
from tests.core.schedule_oracle import schedule_group_sets

# -- cluster merging -----------------------------------------------------------------


def random_clusters(rng, n, r, dup_frac, zero_frac, density):
    """Singleton clusters with count signatures; some duplicate or empty."""
    counts = rng.integers(1, 4, size=(n, r)) * (rng.random((n, r)) < density)
    for i in range(1, n):
        if rng.random() < dup_frac:
            counts[i] = counts[rng.integers(0, i)]
        elif rng.random() < zero_frac:
            counts[i] = 0
    sizes = rng.integers(1, 50, size=n)
    return [
        Cluster([i], counts[i].astype(np.float32), int(sizes[i]))
        for i in range(n)
    ]


def support_bits(support):
    """A boolean ``(n, r)`` support matrix as the kernel's sparse input."""
    rows, cols = np.nonzero(support)
    return len(support), rows, cols


def replay(log, n):
    """Member lists (of cluster indices) after a merge log, by smallest member."""
    members = [[i] for i in range(n)]
    alive = [True] * n
    for p, q in log.tolist():
        members[p].extend(members[q])
        alive[q] = False
    return sorted((ms for ms, keep in zip(members, alive) if keep), key=min)


def assert_same_merges(problems, r):
    """``_merge_many`` over ``(clusters, target)`` problems against the
    dense oracle run on each problem alone."""
    supports = [
        support_bits(np.stack([c.signature for c in clusters]) > 0)
        for clusters, _ in problems
    ]
    logs = _merge_many(supports, [target for _, target in problems])
    for (clusters, target), log in zip(problems, logs):
        assert log.shape == (max(len(clusters) - target, 0), 2)
        want = merge_down_dense(copy.deepcopy(clusters), target, r)
        assert replay(log, len(clusters)) == [c.members for c in want]


def assert_same_merge(clusters, target, r):
    assert_same_merges([(clusters, target)], r)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    r=st.sampled_from([1, 3, 63, 64, 65, 100, 128, 1032]),
    target_gap=st.integers(1, 47),
    dup_frac=st.sampled_from([0.0, 0.3, 0.8]),
    zero_frac=st.sampled_from([0.0, 0.2, 0.6]),
    density=st.sampled_from([0.01, 0.05, 0.3]),
)
def test_merge_down_matches_dense_oracle(
    seed, n, r, target_gap, dup_frac, zero_frac, density
):
    rng = np.random.default_rng(seed)
    target = max(1, n - target_gap)
    clusters = random_clusters(rng, n, r, dup_frac, zero_frac, density)
    assert_same_merge(clusters, target, r)


@pytest.mark.parametrize("n", [2, 17, 257])
def test_merge_down_one_step(n):
    """n = target + 1: a single merge, from the initial best partners."""
    rng = np.random.default_rng(n)
    clusters = random_clusters(rng, n, 1032, 0.3, 0.2, 0.02)
    assert_same_merge(clusters, n - 1, 1032)


def test_merge_down_all_ties():
    """Every support empty or identical: the order rests on tie-breaking."""
    rng = np.random.default_rng(7)
    empty = random_clusters(rng, 30, 70, 0.0, 1.0, 0.0)
    assert_same_merge(empty, 4, 70)
    same = [Cluster([i], np.ones(70), i + 1) for i in range(30)]
    assert_same_merge(same, 4, 70)


def test_merge_down_spans_row_blocks():
    """More clusters than one initial row block, at apsi's r = 1032."""
    rng = np.random.default_rng(3)
    clusters = random_clusters(rng, 600, 1032, 0.2, 0.05, 0.01)
    assert_same_merge(clusters, 8, 1032)


@pytest.mark.parametrize(
    "seed, n, target, r, dup_frac, density",
    [
        (11, 300, 1, 64, 0.0, 0.05),
        (12, 301, 2, 130, 0.5, 0.03),
        (13, 420, 3, 1032, 0.2, 0.01),
        (14, 512, 4, 200, 0.8, 0.3),
        (15, 600, 8, 1032, 0.1, 0.005),
    ],
)
def test_merge_down_compacts_dead_columns(seed, n, target, r, dup_frac, density):
    """Large merges run past the compaction points (fewer than half the
    columns alive, at least 128 of them), where dead columns are dropped
    and cached partners remapped."""
    rng = np.random.default_rng(seed)
    clusters = random_clusters(rng, n, r, dup_frac, 0.1, density)
    assert_same_merge(clusters, target, r)


@st.composite
def merge_batch(draw):
    """B problems of mixed size, target and density over one width r."""
    B = draw(st.sampled_from([1, 2, 3, 16, 33]))
    r = draw(st.sampled_from([3, 64, 65, 200, 1032]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Problems past the compaction point only in small batches: the dense
    # oracle costs O(n**2 r) per problem.
    big = st.just(600) if B <= 3 else st.integers(161, 300)
    problems = []
    for _ in range(B):
        n = draw(st.one_of(st.integers(2, 40), st.integers(41, 160), big))
        target = draw(st.one_of(st.just(n - 1), st.integers(1, n)))
        density = draw(st.sampled_from([0.005, 0.02, 0.2]))
        dup_frac = draw(st.sampled_from([0.0, 0.5]))
        problems.append((random_clusters(rng, n, r, dup_frac, 0.1, density), target))
    return problems, r


@settings(max_examples=40, deadline=None)
@given(merge_batch())
def test_merge_many_matches_per_problem_oracle(batch):
    """Lock-step batches give each problem the log it gets alone."""
    problems, r = batch
    assert_same_merges(problems, r)


def absorber_problem(rng, n, r):
    """Cluster 0 touches one chunk of every other cluster, which also has a
    private chunk elsewhere: cluster 0 absorbs the others one by one,
    gaining bits in a different word each time."""
    support = np.zeros((n, r), dtype=bool)
    shared = rng.permutation(r // 2)[: n - 1]
    support[0, shared] = True
    support[np.arange(1, n), shared] = True
    support[np.arange(1, n), r // 2 + rng.integers(0, r // 2, n - 1)] = True
    return [Cluster([i], support[i].astype(np.float32), 1) for i in range(n)]


@pytest.mark.parametrize(
    "sizes, targets",
    [
        ([600, 590, 20], [2, 1, 3]),  # lock-step compacts; one finishes alone
        ([600, 200, 3, 4], [1, 2, 2, 3]),  # the long one compacts alone
        ([2, 300, 41, 9, 600], [1, 299, 40, 8, 599]),  # one-step problems
    ],
)
def test_merge_many_crosses_lockstep_and_compaction(sizes, targets):
    """Batches whose active prefix shrinks below the lock-step minimum and
    whose problems pass the compaction points before and after it."""
    rng = np.random.default_rng(sum(sizes))
    problems = [
        (random_clusters(rng, n, 1032, 0.2, 0.1, 0.01), t)
        for n, t in zip(sizes, targets)
    ]
    assert_same_merges(problems, 1032)


@pytest.mark.parametrize("sizes", [[300], [300, 280], [300, 40, 30], [140, 130, 20]])
def test_merge_many_repeated_absorber(sizes):
    """Long runs where the absorber repeats (its row is updated from the
    words it gains), across a compaction and across the hand-over from
    lock-step to single-problem steps."""
    rng = np.random.default_rng(len(sizes))
    problems = [(absorber_problem(rng, n, 1024), 1) for n in sizes]
    assert_same_merges(problems, 1024)


@pytest.mark.parametrize("batch", [1, 3])
def test_merge_many_repoints_rows_of_absorbed(batch):
    """Row 0 points at cluster 2, which cluster 1 absorbs without raising
    row 0's dot: row 0 must follow to cluster 1, not keep a dead partner."""
    support = np.zeros((3, 4), dtype=bool)
    support[0, [0, 3]] = True
    support[1, [1, 2]] = True
    support[2, [0, 1, 2]] = True
    logs = _merge_many([support_bits(support)] * batch, [1] * batch)
    for log in logs:
        assert log.tolist() == [[1, 2], [0, 1]]


def initial_partners(supports):
    """``_initial_best_partners`` over several problems at once, per problem."""
    bits = [support_bits(s) for s in supports]
    pid = np.repeat(np.arange(len(bits)), [len(rows) for _, rows, _ in bits])
    width = max(s.shape[1] for s in supports)
    chunk = np.concatenate([cols + k * width for k, (_, _, cols) in enumerate(bits)])
    sizes = np.array([n for n, _, _ in bits])
    rows = np.concatenate([rows for _, rows, _ in bits])
    best, bestw = _initial_best_partners(sizes, pid, rows, chunk)
    return [(best[k, :n], bestw[k, :n]) for k, n in enumerate(sizes)]


def assert_same_partners(supports):
    for support, got in zip(supports, initial_partners(supports)):
        want = initial_best_partners_gemm(support)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_initial_partners_match_gemm_oracle_cases():
    """Sparse co-occurrence counts against the dense GEMM seeding."""
    rng = np.random.default_rng(5)
    cases = []
    every = rng.random((300, 90)) < 0.02
    every[:, 17] = True  # one data chunk held by every row
    cases.append(every)
    ties = np.zeros((40, 64), dtype=bool)
    ties[10:20, :5] = True  # all-zero and identical rows
    cases.append(ties)
    cases.append(np.array([[True, False], [False, True]]))  # n = 2, no overlap
    cases.append(np.array([[True, True], [True, False]]))  # n = 2, overlap
    cases.append(rng.random((600, 1032)) < 0.004)  # spans row blocks
    sparse_cols = np.zeros((50, 300), dtype=bool)
    sparse_cols[:, ::37] = rng.random((50, 9)) < 0.3  # zero columns between
    cases.append(sparse_cols)
    for support in cases:
        assert_same_partners([support])
    assert_same_partners(cases)  # one batch: rows of several problems per block


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(2, 20), st.integers(250, 520)),
    r=st.sampled_from([1, 5, 64, 300]),
    density=st.sampled_from([0.0, 0.01, 0.1, 0.6]),
)
def test_initial_partners_match_gemm_oracle(seed, n, r, density):
    support = np.random.default_rng(seed).random((n, r)) < density
    assert_same_partners([support])


# -- exact dependence test -----------------------------------------------------------


def tuple_sets_intersect(ia, ib):
    """The original exact fallback: sets of index tuples."""
    set_a = {tuple(int(v) for v in row) for row in np.atleast_2d(ia)}
    set_b = {tuple(int(v) for v in row) for row in np.atleast_2d(ib)}
    return not set_a.isdisjoint(set_b)


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def index_pair(draw):
    ndim = draw(st.sampled_from([1, 2]))
    # A few shared values make intersections likely; wide ones test keys.
    pool = draw(st.lists(INT64, min_size=1, max_size=6))
    value = st.one_of(st.sampled_from(pool), st.integers(-5, 5), INT64)
    rows = st.lists(st.lists(value, min_size=ndim, max_size=ndim), max_size=40)
    ia = np.array(draw(rows), dtype=np.int64).reshape(-1, ndim)
    ib = np.array(draw(rows), dtype=np.int64).reshape(-1, ndim)
    return ia, ib


@settings(max_examples=300, deadline=None)
@given(index_pair())
def test_rows_intersect_matches_tuple_sets(pair):
    ia, ib = pair
    assert rows_intersect(ia, ib) == tuple_sets_intersect(ia, ib)
    assert rows_intersect(ib, ia) == tuple_sets_intersect(ia, ib)


def test_rows_intersect_wide_span():
    lo, hi = -(2**63), 2**63 - 1
    ia = np.array([[lo, hi], [0, -1]], dtype=np.int64)
    assert rows_intersect(ia, np.array([[lo, hi]], dtype=np.int64))
    assert not rows_intersect(ia, np.array([[hi, lo], [-1, 0]], dtype=np.int64))


# -- chunk grouping ------------------------------------------------------------------


def unique_axis0_groups(rows):
    """The original grouping: sort-based ``np.unique`` over rows."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=len(uniq))
    groups = np.split(order, np.cumsum(counts)[:-1])
    first = np.asarray([g[0] for g in groups])
    return [np.sort(groups[g]) for g in np.argsort(first, kind="stable")]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    width=st.integers(1, 9),
    span=st.sampled_from([2, 5, 1025, 2**40]),
)
def test_group_equal_rows_matches_unique_axis0(seed, n, width, span):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-1, span, size=(n, width), dtype=np.int64)
    got = group_equal_rows(rows)
    want = unique_axis0_groups(rows)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# -- row ids -------------------------------------------------------------------------


def assert_row_ids_match_unique(rows):
    ids, k = row_ids(rows)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert k == len(uniq)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, inverse.ravel())
    # The docstring's promise, checked directly: ids follow the
    # lexicographic order of the distinct rows.
    first = np.unique(ids, return_index=True)[1]
    reps = [tuple(int(v) for v in rows[i]) for i in first]
    assert reps == sorted(set(reps))


#: Column values around ``±2**61`` and the ``int64`` extremes: folding
#: them overflows unless the key or the column is densified first.
WIDE = [
    -(2**63), -(2**61) - 1, -(2**61), -7, -1, 0, 1, 2**20, 2**61 - 1, 2**61,
    2**61 + 3, 2**62, 2**63 - 1,
]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 80),
    width=st.integers(0, 14),
    span=st.sampled_from(["wide", "mixed", 2, 2**20, 2**40]),
)
def test_row_ids_match_unique_axis0(seed, n, width, span):
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(width):
        if span == "wide" or (span == "mixed" and rng.random() < 0.5):
            # A few distinct values per column so equal rows still occur.
            values = rng.choice(WIDE, size=rng.integers(1, 5))
            cols.append(rng.choice(values, size=n))
        else:
            size = 2 if span == "mixed" else span
            lo = int(rng.integers(-(2**61), 2**61))
            cols.append(lo + rng.integers(0, size, size=n))
    rows = np.zeros((n, width), dtype=np.int64)
    for j, col in enumerate(cols):
        rows[:, j] = col
    assert_row_ids_match_unique(rows)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (5, 0), (1, 1), (1, 12)])
def test_row_ids_degenerate_shapes(shape):
    assert_row_ids_match_unique(np.zeros(shape, dtype=np.int64))


def test_row_ids_redensify_many_wide_columns():
    """Twelve columns of span 2**21: the key passes 2**62 after three."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2**21, size=(200, 12), dtype=np.int64)
    rows[100:] = rows[:100]  # every row twice
    assert_row_ids_match_unique(rows)


def test_row_ids_full_span_columns():
    lo, hi = -(2**63), 2**63 - 1
    rows = np.array(
        [[lo, hi, 0], [hi, lo, 0], [lo, hi, 0], [2**61, -(2**61), 1], [0, 0, 0]],
        dtype=np.int64,
    )
    assert_row_ids_match_unique(rows)


# -- intra-mapper candidates ---------------------------------------------------------


@st.composite
def iteration_spaces(draw):
    depth = draw(st.integers(1, 4))
    bounds = []
    for _ in range(depth):
        lower = draw(st.integers(-6, 6))
        extent = draw(st.integers(1, 9 if depth < 4 else 5))
        bounds.append((lower, lower + extent - 1))
    return IterationSpace(bounds)


@settings(max_examples=200, deadline=None)
@given(space=iteration_spaces(), data=st.data())
def test_permutation_ranks_match_permute_iterations(space, data):
    order = data.draw(st.permutations(range(space.depth)))
    want = space.linearize(permute_iterations(space.enumerate(), order))
    assert np.array_equal(permutation_ranks(space, order), want)


@settings(max_examples=300, deadline=None)
@given(space=iteration_spaces(), data=st.data())
def test_tile_ranks_match_tile_iterations(space, data):
    """Per-loop sizes include untiled (<= 0), 1, and >= the extent."""
    sizes = data.draw(
        st.lists(st.integers(-1, 11), min_size=space.depth, max_size=space.depth)
    )
    want = space.linearize(tile_iterations(space.enumerate(), sizes, space))
    assert np.array_equal(tile_ranks(space, sizes), want)


@settings(max_examples=150, deadline=None)
@given(space=iteration_spaces(), data=st.data())
def test_tiled_candidate_ignores_permutation(space, data):
    """The mapper's tiled candidate: one size for every loop, after a
    permutation.  ``tile_ranks`` takes no permutation at all."""
    order = data.draw(st.permutations(range(space.depth)))
    tile = data.draw(st.integers(1, 10))
    permuted = permute_iterations(space.enumerate(), order)
    want = space.linearize(tile_iterations(permuted, [tile] * space.depth, space))
    assert np.array_equal(tile_ranks(space, [tile] * space.depth), want)


@settings(max_examples=150, deadline=None)
@given(space=iteration_spaces(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tile_iterations_ignores_row_order(space, seed, data):
    """The dedupe of tiled candidates across permutations relies on this."""
    sizes = data.draw(
        st.lists(st.integers(-1, 11), min_size=space.depth, max_size=space.depth)
    )
    its = space.enumerate()
    shuffled = its[np.random.default_rng(seed).permutation(len(its))]
    assert np.array_equal(
        tile_iterations(shuffled, sizes, space), tile_iterations(its, sizes, space)
    )


def test_tile_ranks_more_tiles_than_uint16():
    """90 000 tiles: a tile id narrower than 32 bits would wrap."""
    space = IterationSpace([(3, 302), (-4, 295)])
    want = space.linearize(tile_iterations(space.enumerate(), [1, 1], space))
    assert np.array_equal(tile_ranks(space, [1, 1]), want)
    want = space.linearize(tile_iterations(space.enumerate(), [1, 7], space))
    assert np.array_equal(tile_ranks(space, [1, 7]), want)


# -- group scheduling ----------------------------------------------------------------


@st.composite
def schedule_cases(draw):
    r = draw(st.sampled_from([1, 8, 70, 130]))
    size = draw(st.integers(0, 30))
    tags: list[frozenset] = []
    for _ in range(size):
        if tags and draw(st.booleans()):
            tags.append(draw(st.sampled_from(tags)))  # a duplicate tag
        else:
            tags.append(
                frozenset(draw(st.lists(st.integers(0, r - 1), max_size=6)))
            )  # may be empty
    equal = draw(st.booleans())  # equal sizes force progress often
    sizes = [4 if equal else draw(st.integers(1, 9)) for _ in range(size)]
    num_clients = draw(st.integers(1, 5))
    owners = [draw(st.integers(0, num_clients - 1)) for _ in range(size)]
    client_chunks = [[m for m in range(size) if owners[m] == c] for c in range(num_clients)]
    for chunks in client_chunks:  # input order must not matter
        if draw(st.booleans()):
            chunks.reverse()
    weights = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
    alpha, beta = draw(weights), draw(weights)
    pool, rank = [], 0
    for t, s in zip(tags, sizes):
        pool.append(IterationChunk(Tag(t, r), np.arange(rank, rank + s)))
        rank += s
    return client_chunks, pool, alpha, beta


def run_scheduler(scheduler, client_chunks, pool, alpha, beta):
    registry = MetricsRegistry()
    with use_registry(registry):
        out = scheduler(copy.deepcopy(client_chunks), pool, alpha, beta)
    return out, registry.counter("scheduling.forced").value


@settings(max_examples=300, deadline=None)
@given(schedule_cases())
def test_schedule_group_matches_set_oracle(case):
    got = run_scheduler(schedule_group, *case)
    want = run_scheduler(schedule_group_sets, *case)
    assert got == want


def test_schedule_group_forced_progress_matches_oracle():
    """Equal chunk sizes: after round one every catch-up condition holds,
    so the forced-progress branch picks, and counts, each later chunk."""
    pool = [
        IterationChunk(Tag(t, 16), np.arange(4 * k, 4 * k + 4))
        for k, t in enumerate([{1, 2}, {2, 3}, {1}, set(), {1, 2}, {5, 2}])
    ]
    case = ([[0, 2, 4], [1, 3, 5]], pool, 0.5, 0.0)
    got = run_scheduler(schedule_group, *case)
    assert got == run_scheduler(schedule_group_sets, *case)
    assert got[1] > 0


# -- level-order distribution --------------------------------------------------------


@st.composite
def hierarchy_specs(draw):
    """Equal-depth trees with mixed degrees, degree-1 chains and, at times,
    a dummy root over several storage nodes."""
    depth = draw(st.integers(1, 4))
    degree = st.sampled_from([1, 1, 2, 2, 3, 4] if depth < 4 else [1, 1, 2])

    def node(level):
        if level == 1:
            return {"capacity": 4}
        children = [node(level - 1) for _ in range(draw(degree))]
        return {"capacity": 4, "children": children}

    if draw(st.booleans()):
        return {"roots": [node(depth) for _ in range(draw(st.integers(1, 3)))]}
    return node(depth)


@st.composite
def nests(draw):
    """Small affine nests over one array: strided, skewed and modular
    subscripts, sometimes with a written reference (a dependence)."""
    depth = draw(st.integers(1, 2))
    if depth == 1:
        lo = draw(st.integers(0, 5))
        bounds = [(lo, lo + draw(st.integers(3, 300)))]
    else:
        bounds = [(0, draw(st.integers(1, 17))) for _ in range(2)]
    refs, extent = [], 1
    for k in range(draw(st.integers(1, 3))):
        coeffs = [draw(st.integers(0, 3)) for _ in range(depth)]
        const = draw(st.integers(0, 12))
        modulus = draw(st.one_of(st.none(), st.integers(1, 40)))
        top = sum(c * hi for c, (_, hi) in zip(coeffs, bounds)) + const
        extent = max(extent, modulus if modulus else top + 1)
        write = k == 0 and draw(st.booleans())
        refs.append(
            ArrayRef("A", [AffineExpr(coeffs, const, modulus=modulus)], is_write=write)
        )
    space = DataSpace([DiskArray("A", (extent,))], draw(st.sampled_from([1, 2, 4, 8])))
    return LoopNest("t", IterationSpace(bounds), refs), space


def counter_total(registry, name):
    return sum(c.value for n, _, c in registry.counters() if n == name)


def assert_same_distribution(chunk_set, hierarchy, threshold, graph):
    registry = MetricsRegistry()
    try:
        want = distribute_recursive(chunk_set, hierarchy, threshold, graph)
    except ValueError:  # a single-iteration chunk would have to split
        event("no distribution")
        with pytest.raises(ValueError), use_registry(registry):
            distribute_iterations(chunk_set, hierarchy, threshold, graph)
        return registry
    with use_registry(registry):
        got = distribute_iterations(chunk_set, hierarchy, threshold, graph)
    assert len(got.pool) == len(want.pool)
    for a, b in zip(got.pool, want.pool):
        assert a.tag == b.tag
        assert np.array_equal(a.iterations, b.iterations)
    assert got.assignment == want.assignment
    got.validate_partition()
    return registry


#: A chunk index, reduced modulo the chunk count.
NODE = st.integers(0, 400)


@settings(max_examples=120, deadline=None)
@given(
    nest=nests(),
    spec=hierarchy_specs(),
    threshold=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
    fuse=st.booleans(),
    extra_pairs=st.lists(st.tuples(NODE, NODE), max_size=6),
)
def test_distribution_matches_recursive_oracle(
    nest, spec, threshold, fuse, extra_pairs
):
    """The level-order walk with one lock-step merge per level, and the
    renumbering of split-off chunks, reproduces the recursive walk."""
    nest, space = nest
    chunk_set = form_iteration_chunks(nest, space)
    hierarchy = hierarchy_from_spec(spec)
    graph = None
    if fuse:
        graph = build_affinity_graph(chunk_set)
        apply_dependence_strategy(graph, chunk_set, nest, DependenceStrategy.FUSE)
        n = chunk_set.num_chunks
        for a, b in extra_pairs:
            if a % n != b % n:
                graph.force_together(a % n, b % n)
    registry = assert_same_distribution(chunk_set, hierarchy, threshold, graph)
    for name in ("clustering.splits", "balancing.splits"):
        if counter_total(registry, name):
            event(name)
    if graph is not None and graph.forced_pairs:
        event("forced pairs")


def skewed_chunk_set(sizes, r=32, d=1):
    """Chunks of the given sizes, chunk k touching data chunks k and k + 1
    (mod r): a few giant chunks force load balancing to split."""
    chunks, rank = [], 0
    for k, size in enumerate(sizes):
        tag = Tag({k % r, (k + 1) % r}, r)
        chunks.append(IterationChunk(tag, np.arange(rank, rank + size)))
        rank += size
    refs = [ArrayRef("A", [AffineExpr([1])])]
    nest = LoopNest("t", IterationSpace([(0, rank - 1)]), refs)
    return IterationChunkSet(nest, DataSpace([DiskArray("A", (r * d,))], d), chunks)


@pytest.mark.parametrize(
    "sizes, spec, forced, counters",
    [
        # Fewer chunks than clients: clustering splits chunks, unevenly deep.
        ([40, 3], {"roots": [{"capacity": 4, "children": [{"capacity": 2}] * 3}] * 2},
         [], ["clustering.splits"]),
        # Giant chunks: balancing splits them at several levels.
        ([200, 3, 5, 1, 90, 2, 2, 7, 300, 1, 1, 4], {"roots": [
            {"capacity": 4, "children": [{"capacity": 2}] * 2},
            {"capacity": 4, "children": [{"capacity": 2}] * 3},
            {"capacity": 4, "children": [{"capacity": 2}]},
        ]}, [(0, 5), (5, 11)], ["balancing.splits"]),
        # Splits at every level of a deep binary tree: the level-order
        # walk appends them in another order than the depth-first one.
        ([1000, 3, 5, 1, 2, 2, 7, 1, 1, 4, 6, 2], {"capacity": 8, "children": [
            {"capacity": 4, "children": [
                {"capacity": 2, "children": [{"capacity": 1}] * 2},
            ] * 2},
        ] * 2}, [], ["balancing.splits"]),
        # Both, under a degree-1 chain.
        ([64, 9, 1], {"capacity": 8, "children": [
            {"capacity": 4, "children": [{"capacity": 2}] * 4},
        ]}, [], ["clustering.splits", "balancing.splits"]),
    ],
)
def test_distribution_matches_recursive_oracle_on_splits(sizes, spec, forced, counters):
    chunk_set = skewed_chunk_set(sizes)
    graph = build_affinity_graph(chunk_set)
    for a, b in forced:
        graph.force_together(a, b)
    hierarchy = hierarchy_from_spec(spec)
    registry = assert_same_distribution(chunk_set, hierarchy, 0.1, graph)
    for name in counters:
        assert counter_total(registry, name) > 0, name
