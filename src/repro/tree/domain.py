"""SFC domain decomposition and branch-node structure (paper Fig. 3).

The parallel Barnes-Hut code partitions the space-filling curve across
``P_S`` MPI ranks, each builds its local tree, and the ranks exchange their
*branch nodes* — the minimal set of octree cells covering each rank's
contiguous key range — to assemble the globally shared top of the tree.
Fig. 5 shows that this branch exchange dominates the runtime at small
particles-per-core counts; this module reproduces the decomposition, so
branch counts and bytes are measured rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Tuple

import numpy as np

from repro.tree.morton import (
    MAX_DEPTH,
    BoundingCube,
    hilbert_encode,
    morton_encode,
    quantize,
)
from repro.utils.validation import check_array

__all__ = [
    "DomainDecomposition",
    "sfc_partition",
    "cover_key_range",
    "branch_counts",
    "partition_box_surface",
]

Curve = Literal["morton", "hilbert"]


@dataclass
class DomainDecomposition:
    """Partition of particles over ranks along a space-filling curve."""

    curve: Curve
    n_ranks: int
    cube: BoundingCube
    #: rank of each particle (original order)
    rank_of: np.ndarray
    #: particle indices sorted along the curve
    order: np.ndarray
    #: per-rank [start, end) slices into the sorted order
    rank_start: np.ndarray
    rank_end: np.ndarray
    #: full-depth keys in sorted order (placeholder stripped)
    keys_sorted: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return self.rank_end - self.rank_start

    @property
    def imbalance(self) -> float:
        """max/mean particle count over ranks (1.0 = perfect)."""
        counts = self.counts
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0


def sfc_partition(
    positions: np.ndarray,
    n_ranks: int,
    curve: Curve = "morton",
    depth: int = MAX_DEPTH,
) -> DomainDecomposition:
    """Split particles into ``n_ranks`` contiguous curve segments.

    Counts are balanced to within one particle, mirroring PEPC's weighted
    key-space partitioning in the uniform-weight case.
    """
    positions = check_array("positions", positions, shape=(None, 3), dtype=np.float64)
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    n = positions.shape[0]
    if n < n_ranks:
        raise ValueError(f"cannot split {n} particles over {n_ranks} ranks")
    cube = BoundingCube.of_points(positions)
    ijk = quantize(positions, cube, depth)
    if curve == "morton":
        keys = morton_encode(ijk, depth)
    elif curve == "hilbert":
        keys = hilbert_encode(ijk, depth)
    else:
        raise ValueError(f"unknown curve {curve!r}")
    placeholder = np.uint64(1) << np.uint64(3 * depth)
    keys = keys & (placeholder - np.uint64(1))
    order = np.argsort(keys, kind="stable").astype(np.int64)
    keys_sorted = keys[order]

    bounds = np.linspace(0, n, n_ranks + 1).astype(np.int64)
    rank_of = np.empty(n, dtype=np.int64)
    for r in range(n_ranks):
        rank_of[order[bounds[r]:bounds[r + 1]]] = r
    return DomainDecomposition(
        curve=curve,
        n_ranks=n_ranks,
        cube=cube,
        rank_of=rank_of,
        order=order,
        rank_start=bounds[:-1],
        rank_end=bounds[1:],
        keys_sorted=keys_sorted,
    )


def _cover_cells(lo: int, hi: int, depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`cover_key_range` as ascending ``(keys, levels)`` arrays.

    Computed per level, all levels at once: the aligned cells lying
    wholly inside ``[lo, hi]`` that no such cell of the level above
    contains — at most seven on either side of the parent level's run.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= (1 << (3 * depth)):
        raise ValueError(f"range [{lo}, {hi}] outside key space")
    one = np.uint64(1)
    # k = depth - level: a cell spans 8**k keys (8**21 = 2**63 fits)
    k = np.arange(depth + 1, dtype=np.uint64)
    span = one << (np.uint64(3) * k)
    # [first, end): indices of the cells wholly inside [lo, hi]
    first = (np.uint64(lo) + span - one) // span
    end = (np.uint64(hi) + one) // span
    # the parent level's run, in this level's cell indices
    up = np.zeros(depth + 1, dtype=bool)
    up[:-1] = first[1:] < end[1:]
    up_first = np.append(first[1:] << np.uint64(3), np.uint64(0))
    up_end = np.append(end[1:] << np.uint64(3), np.uint64(0))
    starts = np.concatenate([first, np.where(up, up_end, end)])
    stops = np.concatenate([np.where(up, up_first, end), end])
    counts = np.where(stops > starts, stops - starts, 0).astype(np.int64)
    run = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shift = np.tile(k, 2)[run]
    keys = (starts[run] + offset.astype(np.uint64)) * span[shift]
    order = np.argsort(keys, kind="stable")
    return keys[order], depth - shift[order].astype(np.int64)


def cover_key_range(lo: int, hi: int, depth: int = MAX_DEPTH) -> List[Tuple[int, int]]:
    """Minimal set of aligned octree cells covering keys ``[lo, hi]``.

    Returns ``(cell_start_key, level)`` pairs in ascending key order; a
    level-``l`` cell spans ``8^(depth - l)`` full-depth keys.  This is
    the branch-node set of a rank owning that contiguous curve segment.
    """
    keys, levels = _cover_cells(lo, hi, depth)
    return list(zip(keys.tolist(), levels.tolist()))


def branch_counts(decomp: DomainDecomposition, depth: int = MAX_DEPTH) -> np.ndarray:
    """Number of branch nodes each rank contributes.

    Uses the key interval actually occupied by each rank's particles (the
    PEPC convention); the total is the size of the globally shared tree's
    bottom boundary, i.e. the branch-exchange message volume.
    """
    out = np.zeros(decomp.n_ranks, dtype=np.int64)
    for r in range(decomp.n_ranks):
        s, e = decomp.rank_start[r], decomp.rank_end[r]
        if e <= s:
            continue
        lo = int(decomp.keys_sorted[s])
        hi = int(decomp.keys_sorted[e - 1])
        out[r] = len(cover_key_range(lo, hi, depth))
    return out


def partition_box_surface(
    positions: np.ndarray, decomp: DomainDecomposition
) -> float:
    """Sum of per-rank bounding-box surface areas (partition quality).

    Compact, well-localised partitions (Hilbert) have smaller total
    surface than stripy ones (Morton) — less halo traffic in a real code.
    """
    positions = np.asarray(positions, dtype=np.float64)
    total = 0.0
    for r in range(decomp.n_ranks):
        s, e = decomp.rank_start[r], decomp.rank_end[r]
        pts = positions[decomp.order[s:e]]
        if pts.shape[0] == 0:
            continue
        ext = pts.max(axis=0) - pts.min(axis=0)
        total += 2.0 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[0] * ext[2])
    return float(total)
