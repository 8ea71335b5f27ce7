"""Differential tests of the mapper's hot kernels against their oracles.

Each kernel is compared with the simpler implementation it replaced:

* cluster merging (packed-popcount best-partner cache, no pairwise
  matrix) against the dense float64 ``W`` kernel in
  :mod:`tests.core.merge_oracle`;
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
from hypothesis import given, settings, strategies as st

from repro.core.chunking import IterationChunk, group_equal_rows
from repro.core.clustering import Cluster, _merge_down
from repro.core.scheduling import schedule_group
from repro.polyhedral.dependence import rows_intersect
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.transforms import (
    permutation_ranks,
    permute_iterations,
    tile_iterations,
    tile_ranks,
)
from repro.telemetry import MetricsRegistry, use_registry
from repro.util.bitset import Tag
from repro.util.rowkeys import row_ids
from tests.core.merge_oracle import merge_down_dense
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


def assert_same_merge(clusters, target, r):
    got = _merge_down(copy.deepcopy(clusters), target, r)
    want = merge_down_dense(copy.deepcopy(clusters), target, r)
    assert [c.members for c in got] == [c.members for c in want]
    assert [c.size for c in got] == [c.size for c in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.signature, b.signature)


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
