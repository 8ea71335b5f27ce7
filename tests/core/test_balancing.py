"""Tests for cluster load balancing (Fig. 5, Stage 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balancing import TagMatrix, balance_clusters, imbalance
from repro.core.chunking import IterationChunk
from repro.core.clustering import Cluster, _make_cluster
from repro.telemetry import MetricsRegistry, use_registry
from repro.util.bitset import Tag


def build(pool_specs, cluster_assignment, r=16):
    """pool_specs: list of (chunkset, size); cluster_assignment: list of member lists."""
    pool = []
    rank = 0
    for chunks, size in pool_specs:
        pool.append(IterationChunk(Tag(chunks, r), np.arange(rank, rank + size)))
        rank += size
    tags = TagMatrix(pool, r)
    clusters = [_make_cluster(list(ms), pool, tags) for ms in cluster_assignment]
    return pool, clusters, tags


class TestImbalance:
    def test_balanced(self):
        assert imbalance([10, 10, 10]) == 0.0

    def test_relative_deviation(self):
        assert imbalance([15, 5]) == pytest.approx(0.5)

    def test_empty_and_zero(self):
        assert imbalance([]) == 0.0
        assert imbalance([0, 0]) == 0.0


class TestTagMatrix:
    def test_rows_match_tags(self):
        pool = [IterationChunk(Tag({1, 3}, 8), np.arange(4))]
        tm = TagMatrix(pool, 8)
        assert tm.row(0).tolist() == [0, 1, 0, 1, 0, 0, 0, 0]

    def test_append_grows(self):
        pool = [IterationChunk(Tag({0}, 4), np.arange(2))]
        tm = TagMatrix(pool, 4)
        for k in range(40):
            tm.append(IterationChunk(Tag({k % 4}, 4), np.arange(1)))
        assert len(tm) == 41

    def test_dots(self):
        pool = [
            IterationChunk(Tag({0, 1}, 4), np.arange(2)),
            IterationChunk(Tag({1, 2}, 4), np.arange(2, 4)),
        ]
        tm = TagMatrix(pool, 4)
        sig = np.array([1.0, 2.0, 0.0, 0.0])
        assert tm.dots([0, 1], sig).tolist() == [3.0, 2.0]

    def test_row_bounds(self):
        tm = TagMatrix([], 4)
        with pytest.raises(IndexError):
            tm.row(0)


class TestBalanceClusters:
    def test_rebalances_skewed_clusters(self):
        pool, clusters, tags = build(
            [({0}, 10), ({1}, 10), ({2}, 10), ({3}, 10)],
            [[0, 1, 2], [3]],
        )
        balance_clusters(clusters, pool, 0.10, 16, tags)
        sizes = [c.size for c in clusters]
        assert imbalance(sizes) <= 0.10 + 1e-9

    def test_giant_donor_spreads_over_many(self):
        pool, clusters, tags = build(
            [({k}, 8) for k in range(12)],
            [list(range(12))] + [[] for _ in range(3)],
        )
        # Empty clusters are not produced by clustering, but balancing
        # must cope with near-empty ones: seed them with one chunk each.
        pool2, clusters2, tags2 = build(
            [({k}, 8) for k in range(12)],
            [list(range(9)), [9], [10], [11]],
        )
        balance_clusters(clusters2, pool2, 0.10, 16, tags2)
        sizes = [c.size for c in clusters2]
        assert max(sizes) <= (sum(sizes) / 4) * 1.15

    def test_eviction_prefers_affinity(self):
        # Donor has chunks {5} and {9}; recipient already holds {9}-ish tags.
        pool, clusters, tags = build(
            [({1}, 4), ({5}, 4), ({9}, 4), ({9, 10}, 4)],
            [[0, 1, 2], [3]],
        )
        balance_clusters(clusters, pool, 0.10, 16, tags)
        # The chunk moved to the {9,10} cluster should be the {9} one.
        recipient_members = clusters[1].members
        moved = [m for m in recipient_members if m != 3]
        assert moved == [2]

    def test_splits_when_chunks_too_big(self):
        pool, clusters, tags = build(
            [({0}, 100), ({1}, 4)],
            [[0], [1]],
        )
        balance_clusters(clusters, pool, 0.10, 16, tags)
        sizes = sorted(c.size for c in clusters)
        assert imbalance(sizes) <= 0.11
        assert len(pool) > 2  # a split happened

    def test_donor_never_empties(self):
        pool, clusters, tags = build(
            [({0}, 50)],
            [[0], []],
        )
        # Single chunk, singleton donor: splitting must still leave the
        # donor non-empty.
        balance_clusters(clusters, pool, 0.10, 16, tags)
        assert all(c.size > 0 for c in clusters if c.members)

    def test_noop_when_balanced(self):
        pool, clusters, tags = build(
            [({0}, 10), ({1}, 10)],
            [[0], [1]],
        )
        before = [list(c.members) for c in clusters]
        balance_clusters(clusters, pool, 0.10, 16, tags)
        assert [list(c.members) for c in clusters] == before

    def test_single_cluster_noop(self):
        pool, clusters, tags = build([({0}, 10)], [[0]])
        balance_clusters(clusters, pool, 0.10, 16, tags)
        assert clusters[0].size == 10

    def test_out_of_sync_tag_matrix_rejected(self):
        pool, clusters, tags = build([({0}, 10), ({1}, 10)], [[0], [1]])
        pool.append(IterationChunk(Tag({2}, 16), np.arange(90, 95)))
        with pytest.raises(ValueError):
            balance_clusters(clusters, pool, 0.10, 16, tags)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=4, max_size=16),
        st.integers(2, 4),
    )
    def test_never_loses_iterations(self, sizes, k):
        pool, clusters, tags = build(
            [({i % 8}, s) for i, s in enumerate(sizes)],
            [list(range(len(sizes)))] + [[] for _ in range(k - 1)],
        )
        # Seed empties by moving one chunk each where possible.
        total_before = sum(c.size for c in clusters)
        balance_clusters(clusters, pool, 0.10, 16, tags)
        assert sum(c.size for c in clusters) == total_before
        # All chunks still uniquely owned.
        owned = [m for c in clusters for m in c.members]
        assert len(owned) == len(set(owned))


class CountingRegistry(MetricsRegistry):
    """Counts instrument look-ups by name."""

    def __init__(self):
        super().__init__()
        self.lookups: dict[str, int] = {}

    def counter(self, name, **labels):
        self.lookups[name] = self.lookups.get(name, 0) + 1
        return super().counter(name, **labels)


def test_counters_on_fixed_case():
    """Move and split totals pinned from the per-move look-up code; the
    ``balancing.moves`` counter is now looked up once per call."""
    sizes = [15, 40, 6, 900, 19, 19, 54, 48, 55, 59, 5, 9, 52, 5, 10, 11, 54, 22,
             16, 11, 28, 35, 48, 37, 59, 7, 29, 34, 41, 1, 12, 28, 4, 58, 38, 48,
             31, 36, 21, 20]
    tagsets = [
        [3], [4, 7, 13], [3, 13], [4, 12], [1, 4, 7], [2], [12], [4, 15], [9, 14],
        [5], [5, 7], [7, 15], [14], [1], [3], [2, 3], [8, 13, 14], [1, 13], [5],
        [1, 10], [1], [2], [5, 8, 10], [4, 15], [4, 9], [1, 5, 6], [3, 15], [7, 9],
        [6, 8], [15], [0, 5], [10], [2, 9], [0], [3], [0, 9], [5], [6], [13], [0],
    ]
    pool, clusters, tags = build(
        list(zip(tagsets, sizes)),
        [list(range(30)), [30, 31, 32, 33], [34, 35, 36, 37], [38, 39]],
    )
    registry = CountingRegistry()
    with use_registry(registry):
        balance_clusters(clusters, pool, 0.10, 16, tags)
    assert registry.counter("balancing.moves").value == 30
    assert registry.counter("balancing.splits").value == 1
    assert registry.lookups["balancing.moves"] == 2  # one call + the read above
    assert len(pool) == 41
    assert [c.size for c in clusters] == [497, 459, 556, 513]
    assert clusters[2].members == [34, 35, 36, 37, 40]
    for c in clusters:
        c.validate(pool)
