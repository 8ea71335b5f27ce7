"""Iteration tagging and iteration-chunk formation (paper §4.2).

Every iteration gets an *r*-bit tag (bit k set iff the iteration touches
data chunk ``π_k``); iterations with identical tags form an *iteration
chunk* ``γ_Λ``.  Formation is fully vectorised: all references evaluate
over the whole iteration matrix at once, per-iteration chunk-id rows are
canonicalised (sorted, in-row duplicates masked), and each canonical row
is reduced to one integer id (:func:`~repro.util.rowkeys.row_ids`) that
yields the grouping.

Iterations are stored as **lexicographic ranks** into the nest's
iteration space, so a chunk is just an int64 vector; the explicit
``(m, depth)`` vectors are recovered on demand (e.g. for codegen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest
from repro.util.bitset import Tag
from repro.util.rowkeys import row_ids

__all__ = [
    "IterationChunk",
    "IterationChunkSet",
    "form_iteration_chunks",
    "group_equal_rows",
]

#: In-row placeholder for a duplicated chunk id (sorts first; never a real id).
_PAD = -1


@dataclass
class IterationChunk:
    """A maximal set of iterations sharing one data-chunk access tag.

    ``iterations`` holds lexicographic ranks (ascending) into the source
    nest's iteration space.  Splitting during load balancing produces
    chunks with equal tags and disjoint iteration sets.
    """

    tag: Tag
    iterations: np.ndarray

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        if self.iterations.ndim != 1 or len(self.iterations) == 0:
            raise ValueError("an iteration chunk needs a non-empty 1-D rank vector")

    @property
    def size(self) -> int:
        """S(γ_Λ): the number of iterations in the chunk."""
        return int(len(self.iterations))

    def split(self, first_part: int) -> tuple["IterationChunk", "IterationChunk"]:
        """Split into (first ``first_part`` iterations, the rest)."""
        if not 0 < first_part < self.size:
            raise ValueError(
                f"split point {first_part} must be inside (0, {self.size})"
            )
        return (
            IterationChunk(self.tag, self.iterations[:first_part]),
            IterationChunk(self.tag, self.iterations[first_part:]),
        )

    def __repr__(self) -> str:
        return f"IterationChunk(size={self.size}, chunks={sorted(self.tag.chunks)})"


class IterationChunkSet:
    """All iteration chunks of one nest plus shared context."""

    __slots__ = ("nest", "data_space", "chunks", "ref_chunk_matrix")

    def __init__(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        chunks: Sequence[IterationChunk],
        ref_chunk_matrix: np.ndarray | None = None,
    ):
        self.nest = nest
        self.data_space = data_space
        self.chunks = list(chunks)
        #: Optional (N, R) matrix of the data chunk touched by each
        #: iteration through each reference — kept for stream generation.
        self.ref_chunk_matrix = ref_chunk_matrix

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def tag_width(self) -> int:
        return self.data_space.num_chunks

    @property
    def total_iterations(self) -> int:
        return sum(c.size for c in self.chunks)

    def __iter__(self) -> Iterator[IterationChunk]:
        return iter(self.chunks)

    def __getitem__(self, idx: int) -> IterationChunk:
        return self.chunks[idx]

    def __len__(self) -> int:
        return len(self.chunks)

    def iterations_of(self, chunk_index: int) -> np.ndarray:
        """Explicit ``(m, depth)`` iteration vectors of one chunk."""
        ranks = self.chunks[chunk_index].iterations
        return self.nest.space.delinearize(ranks)

    def signature_matrix(self) -> np.ndarray:
        """Dense (num_chunks, r) 0/1 int64 matrix of chunk tags.

        Row i is the tag vector of chunk i — the raw material for the
        clustering stage's vectorised dot products.
        """
        S = np.zeros((self.num_chunks, self.tag_width), dtype=np.int64)
        for i, chunk in enumerate(self.chunks):
            for c in chunk.tag.chunks:
                S[i, c] = 1
        return S

    def validate_partition(self) -> None:
        """Assert the chunks exactly partition the nest's iterations."""
        total = self.nest.num_iterations
        seen = np.concatenate([c.iterations for c in self.chunks]) if self.chunks else np.empty(0, np.int64)
        if len(seen) != total or len(np.unique(seen)) != total:
            raise ValueError(
                f"iteration chunks do not partition the nest: {len(seen)} ranks "
                f"({len(np.unique(seen))} unique) vs {total} iterations"
            )

    def __repr__(self) -> str:
        return (
            f"IterationChunkSet(nest={self.nest.name!r}, chunks={self.num_chunks}, "
            f"iterations={self.total_iterations}, r={self.tag_width})"
        )


def group_equal_rows(rows: np.ndarray) -> list[np.ndarray]:
    """Indices of equal rows, grouped; groups in order of first appearance.

    Each group is ascending.  Rows are compared through one integer id
    each (:func:`~repro.util.rowkeys.row_ids`), so no row-wise sort runs.
    """
    ids, num_groups = row_ids(rows)
    order = np.argsort(ids, kind="stable")
    boundaries = np.cumsum(np.bincount(ids, minlength=num_groups))[:-1]
    groups = np.split(order, boundaries)
    first = order[np.concatenate(([0], boundaries))]
    return [groups[g] for g in np.argsort(first, kind="stable")]


def form_iteration_chunks(nest: LoopNest, data_space: DataSpace) -> IterationChunkSet:
    """Group the nest's iterations into iteration chunks by tag (§4.2).

    Vectorised end to end; returns chunks ordered by first appearance in
    lexicographic iteration order (matching the paper's Fig. 8 numbering
    for the running example).
    """
    iterations = nest.iterations()
    n_iters = len(iterations)
    # (N, R): data chunk touched by each iteration through each reference.
    per_ref = [
        ref.touched_chunks(iterations, data_space) for ref in nest.references
    ]
    chunk_matrix = np.stack(per_ref, axis=1)

    # Canonicalise rows: sort ascending, then mask duplicates with the pad
    # value and re-sort so e.g. [2,1,2] and [1,2,2] both become [-1,1,2]
    # — identical *sets* must compare equal.
    rows = np.sort(chunk_matrix, axis=1)
    dup = np.zeros_like(rows, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    canon = np.where(dup, _PAD, rows)
    canon = np.sort(canon, axis=1)

    r = data_space.num_chunks
    chunks: list[IterationChunk] = []
    for ranks in group_equal_rows(canon):
        row = canon[ranks[0]]
        tag = Tag(row[row != _PAD].tolist(), r)
        chunks.append(IterationChunk(tag, ranks))

    chunk_set = IterationChunkSet(nest, data_space, chunks, chunk_matrix)
    assert chunk_set.total_iterations == n_iters
    return chunk_set
