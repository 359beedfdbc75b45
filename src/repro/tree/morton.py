"""Space-filling curve keys for the hashed oct-tree (Warren & Salmon 1993).

Particles are quantised onto a ``2^depth`` grid inside a cubic bounding box
and assigned 63-bit **Morton** (Z-order) keys: bit interleaving of the
three coordinates — cheap, the classic PEPC choice.

Key layout follows PEPC: a *placeholder bit* is prepended above the
``3 * depth`` coordinate bits, so keys of different tree levels are
distinguishable and the root has key 1.  The prefix of a key at level
``l`` is obtained by shifting off ``3 * (depth - l)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import check_array

__all__ = [
    "MAX_DEPTH",
    "BoundingCube",
    "morton_encode",
    "morton_decode",
    "quantize",
    "cell_of_key",
]

#: 21 levels x 3 dimensions = 63 bits + 1 placeholder bit fits in uint64
MAX_DEPTH = 21


@dataclass(frozen=True)
class BoundingCube:
    """Cubic axis-aligned box enclosing all particles.

    ``corner`` is the low corner; ``size`` the edge length.  A small pad
    keeps boundary particles strictly inside so quantisation stays within
    ``[0, 2^depth)``.
    """

    corner: np.ndarray
    size: float

    @staticmethod
    def of_points(points: np.ndarray, pad: float = 1e-9) -> "BoundingCube":
        points = check_array("points", points, shape=(None, 3), dtype=np.float64)
        if points.shape[0] == 0:
            return BoundingCube(corner=np.zeros(3), size=1.0)
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        size = float(np.max(hi - lo))
        size = (size if size > 0 else 1.0) * (1.0 + 2.0 * pad)
        center = 0.5 * (lo + hi)
        return BoundingCube(corner=center - 0.5 * size, size=size)

    def center(self) -> np.ndarray:
        return self.corner + 0.5 * self.size


def quantize(
    points: np.ndarray, cube: BoundingCube, depth: int = MAX_DEPTH
) -> np.ndarray:
    """Map points to integer grid coords in ``[0, 2^depth)``, shape (N, 3)."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    points = check_array("points", points, shape=(None, 3), dtype=np.float64)
    scale = (1 << depth) / cube.size
    ijk = ((points - cube.corner) * scale).astype(np.int64)
    return np.clip(ijk, 0, (1 << depth) - 1).astype(np.uint64)


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so bit i lands at position 3*i."""
    x = x.astype(np.uint64)
    x &= np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact_bits(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread_bits`."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def morton_encode(ijk: np.ndarray, depth: int = MAX_DEPTH) -> np.ndarray:
    """Morton keys with placeholder bit, from integer coords (N, 3)."""
    ijk = np.asarray(ijk, dtype=np.uint64)
    key = (
        _spread_bits(ijk[:, 0])
        | (_spread_bits(ijk[:, 1]) << np.uint64(1))
        | (_spread_bits(ijk[:, 2]) << np.uint64(2))
    )
    placeholder = np.uint64(1) << np.uint64(3 * depth)
    return key | placeholder


def morton_decode(keys: np.ndarray, depth: int = MAX_DEPTH) -> np.ndarray:
    """Integer coordinates (N, 3) from Morton keys (placeholder stripped)."""
    keys = np.asarray(keys, dtype=np.uint64)
    mask = (np.uint64(1) << np.uint64(3 * depth)) - np.uint64(1)
    k = keys & mask
    return np.column_stack(
        [
            _compact_bits(k),
            _compact_bits(k >> np.uint64(1)),
            _compact_bits(k >> np.uint64(2)),
        ]
    )


def cell_of_key(
    key_at_lvl: np.ndarray,
    level: "int | np.ndarray",
    cube: BoundingCube,
    depth: int = MAX_DEPTH,
) -> Tuple[np.ndarray, np.ndarray]:
    """Geometric (center, edge length) of level-``level`` Morton cells.

    ``level`` is one int for all keys, or an int array giving each key's
    level (the edge is then an array too).
    """
    key = np.asarray(key_at_lvl, dtype=np.uint64)
    lvl = np.asarray(level, dtype=np.int64)
    bits = np.uint64(3) * lvl.astype(np.uint64)
    stripped = key & ((np.uint64(1) << bits) - np.uint64(1))
    ijk = np.column_stack(
        [
            _compact_bits(stripped),
            _compact_bits(stripped >> np.uint64(1)),
            _compact_bits(stripped >> np.uint64(2)),
        ]
    ).astype(np.float64)
    edge = cube.size / (np.int64(1) << lvl)
    centers = cube.corner[None, :] + (ijk + 0.5) * edge[..., None]
    return centers, edge
