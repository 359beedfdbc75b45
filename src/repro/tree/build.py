"""Linear oct-tree construction over Morton-sorted particles.

The classic Barnes-Hut recursion (paper Fig. 3) is realised without per-node
Python recursion: particles are sorted by Morton key once, and the tree is
built breadth-first.  At each level every overfull node is split into its
up-to-8 children with a single vectorised ``searchsorted`` over the key
prefixes, so Python-level iteration is bounded by the tree depth (<= 21),
not the particle count.

Nodes are stored in structure-of-arrays form, BFS (level-contiguous) order,
which later lets the multipole upward pass run level-by-level vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.tree.morton import (
    MAX_DEPTH,
    BoundingCube,
    cell_of_key,
    morton_encode,
    quantize,
)
from repro.utils.validation import check_array

__all__ = ["Octree", "build_octree"]


@dataclass
class Octree:
    """Linear oct-tree.

    All node arrays are indexed by node id in BFS order (root = 0).
    ``order`` maps sorted-particle slots back to original particle indices:
    ``positions_sorted = positions[order]``; node ``[start, end)`` ranges
    refer to the *sorted* ordering.
    """

    cube: BoundingCube
    depth: int
    #: permutation: sorted slot -> original particle index
    order: np.ndarray
    #: particle positions in sorted order (kept for near-field evaluation)
    positions: np.ndarray

    # node arrays (BFS order)
    node_level: np.ndarray
    node_start: np.ndarray
    node_end: np.ndarray
    node_parent: np.ndarray
    node_first_child: np.ndarray  # -1 for leaves
    node_n_children: np.ndarray
    node_center: np.ndarray  # geometric cell centers (n_nodes, 3)
    node_size: np.ndarray  # cell edge lengths
    #: first node id of each level (length = max_level + 2, cumulative)
    level_offsets: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.node_level.shape[0]

    @property
    def n_particles(self) -> int:
        return self.order.shape[0]

    @property
    def n_levels(self) -> int:
        return self.level_offsets.shape[0] - 1

    def is_leaf(self, node: int | np.ndarray) -> np.ndarray:
        return self.node_first_child[node] < 0

    def leaves(self) -> np.ndarray:
        """Node ids of all leaves."""
        return np.nonzero(self.node_first_child < 0)[0]

    def node_count(self, node: int | np.ndarray) -> np.ndarray:
        return self.node_end[node] - self.node_start[node]

    def children(self, node: int) -> np.ndarray:
        """Node ids of the children of ``node`` (empty for leaves)."""
        first = self.node_first_child[node]
        if first < 0:
            return np.empty(0, dtype=np.int64)
        return np.arange(first, first + self.node_n_children[node])

    def particles_of(self, node: int) -> np.ndarray:
        """Original indices of the particles inside ``node``."""
        return self.order[self.node_start[node]: self.node_end[node]]

    def validate(self) -> None:
        """Structural invariants; raises ValueError on violation.

        Explicit raises (not ``assert``) so the checks survive
        ``python -O`` — see repro-lint rule RPR005.
        """
        def _fail(node: int, what: str) -> None:
            raise ValueError(
                f"octree invariant violated at node {node}: {what}"
            )

        if not (self.node_start[0] == 0
                and self.node_end[0] == self.n_particles):
            _fail(0, "root must span all particles")
        for node in range(self.n_nodes):
            first = self.node_first_child[node]
            if first >= 0:
                kids = self.children(node)
                if not np.all(self.node_parent[kids] == node):
                    _fail(node, "children disagree on their parent")
                if self.node_start[kids[0]] != self.node_start[node]:
                    _fail(node, "first child must start at the node start")
                if self.node_end[kids[-1]] != self.node_end[node]:
                    _fail(node, "last child must end at the node end")
                if not np.all(
                    self.node_end[kids[:-1]] == self.node_start[kids[1:]]
                ):
                    _fail(node, "sibling particle ranges must be contiguous")
                if not np.all(
                    self.node_level[kids] == self.node_level[node] + 1
                ):
                    _fail(node, "children must sit one level deeper")


def build_octree(
    positions: np.ndarray,
    leaf_size: int = 16,
    depth: int = MAX_DEPTH,
    cube: Optional[BoundingCube] = None,
) -> Octree:
    """Build the oct-tree of a particle set.

    Parameters
    ----------
    positions : (N, 3)
        Particle positions.
    leaf_size :
        Maximum number of particles per leaf.  PEPC subdivides down to one
        particle per box; larger leaves trade tree depth for wider
        vectorised near-field batches (a better fit for NumPy).
    depth :
        Maximum subdivision depth (key resolution).
    cube :
        Optional pre-computed bounding cube (e.g. a globally agreed domain
        in the parallel setting).
    """
    positions = check_array("positions", positions, shape=(None, 3), dtype=np.float64)
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree over zero particles")
    cube = cube or BoundingCube.of_points(positions)

    keys = morton_encode(quantize(positions, cube, depth), depth)
    order = np.argsort(keys, kind="stable").astype(np.int64)
    keys_sorted = keys[order]
    pos_sorted = positions[order]

    # per-level growable node storage
    levels: List[int] = [0]
    starts: List[int] = [0]
    ends: List[int] = [n]
    parents: List[int] = [-1]
    first_child: List[int] = []
    n_children: List[int] = []
    cell_key: List[np.uint64] = [np.uint64(1)]  # level-truncated key w/ placeholder

    level_offsets = [0, 1]
    frontier = np.array([0], dtype=np.int64)  # node ids of current level

    for level in range(depth):
        counts = np.array([ends[i] - starts[i] for i in frontier])
        split_mask = counts > leaf_size
        # identical keys cannot be split further once max depth is reached
        to_split = frontier[split_mask]
        for i in frontier:
            first_child.append(-1)
            n_children.append(0)
        if to_split.size == 0:
            level_offsets.append(len(levels))
            break

        shift = np.uint64(3 * (depth - (level + 1)))
        new_frontier: List[int] = []
        for node in to_split:
            lo, hi = starts[node], ends[node]
            seg = keys_sorted[lo:hi] >> shift
            # boundaries of the 8 possible children inside this segment
            parent_key = np.uint64(cell_key[node])
            child_keys = (parent_key << np.uint64(3)) + np.arange(8, dtype=np.uint64)
            bounds = lo + np.searchsorted(seg, child_keys, side="left")
            bounds = np.append(bounds, hi)
            widths = np.diff(bounds)
            present = np.nonzero(widths > 0)[0]
            if present.size == 1 and widths[present[0]] == hi - lo and level + 1 == depth:
                continue  # degenerate: all particles share the full key
            first_child[node] = len(levels)
            n_children[node] = int(present.size)
            for ci in present:
                node_id = len(levels)
                levels.append(level + 1)
                starts.append(int(bounds[ci]))
                ends.append(int(bounds[ci + 1]))
                parents.append(int(node))
                cell_key.append(np.uint64(child_keys[ci]))
                new_frontier.append(node_id)
        if not new_frontier:
            level_offsets.append(len(levels))
            break
        frontier = np.array(new_frontier, dtype=np.int64)
        level_offsets.append(len(levels))
    else:
        # loop exhausted depth levels; close the offsets
        if level_offsets[-1] != len(levels):
            level_offsets.append(len(levels))
        for _ in range(len(levels) - len(first_child)):
            first_child.append(-1)
            n_children.append(0)

    node_level = np.array(levels, dtype=np.int64)
    # geometric cells of the nodes
    node_center, node_size = cell_of_key(
        np.array(cell_key, dtype=np.uint64), node_level, cube, depth
    )

    tree = Octree(
        cube=cube,
        depth=depth,
        order=order,
        positions=pos_sorted,
        node_level=node_level,
        node_start=np.array(starts, dtype=np.int64),
        node_end=np.array(ends, dtype=np.int64),
        node_parent=np.array(parents, dtype=np.int64),
        node_first_child=np.array(first_child, dtype=np.int64),
        node_n_children=np.array(n_children, dtype=np.int64),
        node_center=node_center,
        node_size=node_size,
        level_offsets=np.array(level_offsets, dtype=np.int64),
    )
    return tree
