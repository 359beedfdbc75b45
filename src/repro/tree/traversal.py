"""Vectorised group-collective tree traversal.

PEPC traverses the tree once per particle; in NumPy we instead traverse
once per *target group* (a tree leaf), testing the MAC against the group's
bounding sphere so the decision is valid for all of its particles.  All
groups advance through the tree simultaneously: the frontier is a flat
array of (group, node) candidate pairs, and each wave performs one
vectorised MAC test plus one vectorised child expansion.  Python-level
iteration is bounded by the tree depth, not by N.

Outputs are interaction lists:

* ``far_pairs``  — (group, node) pairs whose multipole expansion is used;
* ``near_pairs`` — (group, leaf) pairs evaluated by direct summation
  (always includes the group's own leaf).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.tree.build import Octree
from repro.tree.mac import MACVariant, mac_accept_sq

__all__ = ["InteractionLists", "dual_traversal"]


@dataclass
class InteractionLists:
    """Result of a dual traversal."""

    #: node ids of the target groups (tree leaves)
    groups: np.ndarray
    #: (F,) group indices and (F,) node ids of far (multipole) interactions
    far_group: np.ndarray
    far_node: np.ndarray
    #: (Nn,) group indices and (Nn,) leaf node ids of near interactions
    near_group: np.ndarray
    near_node: np.ndarray
    #: MAC tests performed (a work/traffic proxy for the performance model)
    mac_tests: int

    @property
    def n_groups(self) -> int:
        return self.groups.shape[0]

    def far_interaction_count(self, tree: Octree) -> int:
        """Total number of particle-cluster interactions."""
        group_sizes = tree.node_count(self.groups[self.far_group])
        return int(group_sizes.sum())

    def near_interaction_count(self, tree: Octree) -> int:
        """Total number of particle-particle near-field interactions."""
        t = tree.node_count(self.groups[self.near_group])
        s = tree.node_count(self.near_node)
        return int(np.dot(t, s))


def _expand_children(
    tree: Octree, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Children of each node, as (repeat_index, child_id) arrays."""
    first = tree.node_first_child[nodes]
    count = tree.node_n_children[nodes]
    total = int(count.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(nodes.shape[0]), count)
    offsets = np.concatenate([[0], np.cumsum(count)])[:-1]
    child = np.repeat(first, count) + (np.arange(total) - np.repeat(offsets, count))
    return rep, child


def dual_traversal(
    tree: Octree,
    theta: float,
    node_bmax: Optional[np.ndarray] = None,
    variant: MACVariant = "bh",
) -> InteractionLists:
    """Build interaction lists for all tree leaves as target groups.

    Parameters
    ----------
    tree :
        The source octree.
    theta :
        Multipole acceptance parameter (paper's ``theta``); 0 reproduces
        direct summation.
    node_bmax :
        Cluster radii per node (from the moment pass), else half the
        cell diagonal.  Required for the ``bmax`` MAC variant; the
        leaves' entries are the target groups' bounding radii.
    variant :
        MAC flavour (``"bh"`` classical, ``"bmax"`` Salmon-Warren style).
    """
    groups = tree.leaves()
    n_groups = groups.shape[0]
    if variant == "bmax" and node_bmax is None:
        raise ValueError("bmax MAC needs node_bmax from the moment pass")
    if node_bmax is None:
        # conservative fallback: half cell diagonal
        node_bmax = 0.5 * np.sqrt(3.0) * tree.node_size
    group_radius = node_bmax[groups]
    group_center = tree.node_center[groups]

    far_g: list[np.ndarray] = []
    far_n: list[np.ndarray] = []
    near_g: list[np.ndarray] = []
    near_n: list[np.ndarray] = []
    mac_tests = 0

    # frontier of candidate (group, node) pairs, starting at the root
    fg = np.arange(n_groups, dtype=np.int64)
    fn = np.zeros(n_groups, dtype=np.int64)
    while fg.size:
        mac_tests += fg.size
        diff = group_center[fg] - tree.node_center[fn]
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        accept = mac_accept_sq(
            theta,
            tree.node_size[fn],
            node_bmax[fn],
            dist_sq,
            group_radius[fg],
            variant,
        )
        if np.any(accept):
            far_g.append(fg[accept])
            far_n.append(fn[accept])
        rest_g, rest_n = fg[~accept], fn[~accept]
        leaf = tree.node_first_child[rest_n] < 0
        if np.any(leaf):
            near_g.append(rest_g[leaf])
            near_n.append(rest_n[leaf])
        open_g, open_n = rest_g[~leaf], rest_n[~leaf]
        rep, child = _expand_children(tree, open_n)
        fg, fn = open_g[rep], child

    def _cat(parts: list[np.ndarray]) -> np.ndarray:
        return (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.int64)
        )

    return InteractionLists(
        groups=groups,
        far_group=_cat(far_g),
        far_node=_cat(far_n),
        near_group=_cat(near_g),
        near_node=_cat(near_n),
        mac_tests=mac_tests,
    )
