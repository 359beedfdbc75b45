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


def cover_key_range(lo: int, hi: int, depth: int = MAX_DEPTH) -> List[Tuple[int, int]]:
    """Minimal set of aligned octree cells covering keys ``[lo, hi]``.

    Returns ``(cell_start_key, level)`` pairs; a level-``l`` cell spans
    ``8^(depth - l)`` full-depth keys.  This is the branch-node set of a
    rank owning that contiguous curve segment.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= (1 << (3 * depth)):
        raise ValueError(f"range [{lo}, {hi}] outside key space")
    cells: List[Tuple[int, int]] = []
    pos = lo
    while pos <= hi:
        span = 1
        level = depth
        while level > 0:
            nxt = span << 3
            if pos % nxt != 0 or pos + nxt - 1 > hi:
                break
            span = nxt
            level -= 1
        cells.append((pos, level))
        pos += span
    return cells


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
