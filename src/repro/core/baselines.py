"""The paper's two comparison versions (§5.1).

* **Original** — "the set of iterations to be executed in parallel is
  first ordered lexicographically … and then divided into K clusters,
  where K is the number of client nodes.  Each cluster is then assigned
  to a client node."
* **Intra-processor** — the same blocked assignment, but the iteration
  *order* is first improved with single-processor data-locality
  transformations: loop permutation and iteration-space tiling, with the
  tile size chosen empirically ("we experimented with different tile
  sizes and selected the one that performs the best").  It optimises
  each client in isolation and ignores shared caches — exactly the
  paper's storage-cache-hierarchy-agnostic strawman.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.mapping import Mapping
from repro.telemetry import get_registry, phase
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.dependence import find_dependences
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.transforms import (
    legal_permutations,
    permutation_ranks,
    tile_ranks,
)

__all__ = ["OriginalMapper", "IntraProcessorMapper", "block_partition"]

#: Tile-size candidates searched by the Intra-processor mapper (0 = untiled).
DEFAULT_TILE_CANDIDATES = (0, 4, 8, 16, 32, 64)


def block_partition(ordered_ranks: np.ndarray, num_clients: int) -> dict[int, np.ndarray]:
    """Divide an execution order into K near-equal contiguous blocks."""
    if num_clients <= 0:
        raise ValueError("need at least one client")
    blocks = np.array_split(np.asarray(ordered_ranks, dtype=np.int64), num_clients)
    return {c: blocks[c] for c in range(num_clients)}


class OriginalMapper:
    """Lexicographic order, blocked over the clients."""

    name = "original"

    def map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
    ) -> Mapping:
        with phase("mapping") as total:
            ranks = np.arange(nest.num_iterations, dtype=np.int64)
            order = block_partition(ranks, hierarchy.num_clients)
            mapping = Mapping(self.name, order)
        mapping.mapping_time_s = total.elapsed
        return mapping


class IntraProcessorMapper:
    """Locality-transformed order (permutation + tiling), blocked over clients.

    The execution-order candidates are scored by the number of *chunk
    transitions* in the resulting access stream — a direct proxy for
    private-cache misses under LRU (every transition risks a miss; runs
    of equal chunks are guaranteed hits).  This reproduces "selected the
    one that performs the best" without simulating each candidate.
    """

    name = "intra"

    def __init__(self, tile_candidates: Sequence[int] = DEFAULT_TILE_CANDIDATES):
        self.tile_candidates = tuple(tile_candidates)

    def map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
    ) -> Mapping:
        with phase("mapping") as total:
            mapping = self._map(nest, data_space, hierarchy)
        mapping.mapping_time_s = total.elapsed
        return mapping

    def _map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
    ) -> Mapping:
        iterations = nest.iterations()
        touched = np.stack(
            [ref.touched_chunks(iterations, data_space) for ref in nest.references]
        )
        # One row per reference, in the narrowest dtype that holds every
        # chunk id: each candidate's cost gathers all of it.
        chunks = touched.astype(np.min_scalar_type(touched.max(initial=0)))

        deps = find_dependences(nest)
        distances = [d.distance for d in deps]
        perms = legal_permutations(nest.depth, distances) or [tuple(range(nest.depth))]
        # Tiling is legal only on a fully permutable band: every dependence
        # distance known and component-wise non-negative.
        can_tile = all(
            dist is not None and all(c >= 0 for c in dist) for dist in distances
        )
        tile_candidates = self.tile_candidates if can_tile else (0,)

        space = nest.space
        best_cost = None
        best_ranks = np.arange(space.size, dtype=np.int64)
        candidates_tried = 0
        tiles_scored: set[int] = set()
        for perm in perms:
            for tile in tile_candidates:
                if tile >= max(space.shape):
                    continue  # tile larger than every extent: same as untiled
                candidates_tried += 1
                if tile == 0:
                    candidate = permutation_ranks(space, perm)
                elif tile in tiles_scored:
                    # Tiling ignores the permutation (see tile_ranks), so
                    # this repeats a scored candidate: it cannot win the
                    # strict ``<`` below.
                    continue
                else:
                    tiles_scored.add(tile)
                    candidate = tile_ranks(space, [tile] * nest.depth)
                cost = self._transition_cost(candidate, chunks)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_ranks = candidate
        get_registry().counter("baselines.intra.candidates").inc(candidates_tried)
        order = block_partition(best_ranks, hierarchy.num_clients)
        return Mapping(self.name, order)

    @staticmethod
    def _transition_cost(ranks: np.ndarray, chunks: np.ndarray) -> int:
        """Block requests the execution order ``ranks`` issues.

        ``chunks[j, i]`` is the data chunk reference ``j`` touches at
        iteration rank ``i``.  Counts per-reference block transitions —
        exactly the number of storage-cache requests after request
        coalescing, i.e. the compulsory load the order puts on the
        private cache.
        """
        rows = np.take(chunks, ranks, axis=1)
        return int(rows.shape[0] + np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
