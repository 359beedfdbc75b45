"""Multipole acceptance criteria (paper Sec. III-A, Fig. 4).

The classical Barnes-Hut MAC accepts a cluster for interaction when the
ratio of its box size ``s`` to its distance ``d`` from the target satisfies
``s/d <= theta``.  Larger ``theta`` means coarser, faster, less accurate
summation — the knob the paper turns to build PFASST's coarse propagator
(theta 0.3 fine / 0.6 coarse).

Traversal here is *group-collective*: a whole batch of nearby targets
(one source-tree leaf) is tested at once against each candidate node, using
the conservative distance ``d = |c_node - c_group| - r_group`` so that the
acceptance holds for every particle in the group.  ``theta = 0`` never
accepts, reproducing direct summation exactly.

Variants (Salmon & Warren 1994 discuss the zoo):

* ``"bh"``   — classical: ``s = cell edge length``
* ``"bmax"`` — tighter: ``s = 2 * bmax`` with ``bmax`` the true cluster
  radius about the expansion center; stricter for sparse cells, more
  permissive for full ones.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

__all__ = ["MACVariant", "mac_accept_sq"]

MACVariant = Literal["bh", "bmax"]


def mac_accept_sq(
    theta: float,
    node_size: np.ndarray,
    node_bmax: np.ndarray,
    center_dist_sq: np.ndarray,
    group_radius: np.ndarray,
    variant: MACVariant = "bh",
) -> np.ndarray:
    """Vectorised MAC decision for (group, node) candidate pairs.

    ``center_dist_sq`` holds squared group-to-node center distances and
    ``group_radius`` the target groups' bounding radii; a node's
    ``extent`` is ``node_size`` (``"bh"``) or ``2 * node_bmax``
    (``"bmax"``).  With ``d = dist - r_group`` the acceptance
    ``d > 0 and extent <= theta d`` rewrites (all quantities
    non-negative) as

        dist^2 > r_group^2   and   theta^2 dist^2 >= (extent + theta r_group)^2

    so the traversal takes no ``np.sqrt`` over its frontier.  ``theta``
    must be >= 0; zero rejects everything.  Returns the boolean mask of
    accepted pairs.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if theta == 0.0:
        return np.zeros(
            np.broadcast(node_size, center_dist_sq).shape, dtype=bool
        )
    if variant == "bh":
        extent = node_size
    elif variant == "bmax":
        extent = 2.0 * node_bmax
    else:
        raise ValueError(f"unknown MAC variant {variant!r}")
    thr = extent + theta * group_radius
    return (center_dist_sq > group_radius * group_radius) & (
        theta * theta * center_dist_sq >= thr * thr
    )
