"""Differential tests of the mapper's hot kernels against their oracles.

Each kernel is compared with the simpler implementation it replaced:

* cluster merging (packed-popcount best-partner cache, no pairwise
  matrix) against the dense float64 ``W`` kernel in
  :mod:`tests.core.merge_oracle`;
* the exact dependence fallback (one integer id per index row) against
  sets of index tuples;
* chunk grouping (integer row ids) against ``np.unique(axis=0)``.

Every comparison requires identical output, not merely an equally good
one: the mapping digests depend on it.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import group_equal_rows
from repro.core.clustering import Cluster, _merge_down
from repro.polyhedral.dependence import rows_intersect
from tests.core.merge_oracle import merge_down_dense

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
        Cluster([i], counts[i].astype(np.float64), int(sizes[i]))
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
