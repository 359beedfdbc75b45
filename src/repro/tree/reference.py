"""Reference per-group tree evaluation (pre-batching implementation).

This module preserves the original evaluator loop structure — one Python
iteration per target group, with argsort + ``searchsorted`` segment
bookkeeping and per-leaf ``np.concatenate`` near-field gathers — exactly
as it shipped before the batched engine (:mod:`repro.tree.engine`)
replaced it.

It exists for two reasons:

* the equivalence test suite checks the batched engine against this path
  bit-for-bit-close (same traversal, same expansion math, different
  summation order), independently of the O(N^2) direct references;
* ``benchmarks/bench_evaluator_hotpath.py`` uses it as the baseline the
  batched engine's speedup is measured against.

It is *not* part of the production pipeline and takes its parameters
explicitly rather than via evaluator objects.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tree.build import build_octree
from repro.tree.evaluate import evaluate_vortex_far
from repro.tree.mac import MACVariant
from repro.tree.multipole import compute_vortex_moments
from repro.tree.traversal import dual_traversal
from repro.vortex.kernels import SingularKernel, SmoothingKernel
from repro.vortex.rhs import VelocityField, biot_savart_direct

__all__ = ["reference_vortex_field"]


def _group_slices(
    sorted_by: np.ndarray, n_groups: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Start/end offsets per group in an array sorted by group index."""
    starts = np.searchsorted(sorted_by, np.arange(n_groups), side="left")
    ends = np.searchsorted(sorted_by, np.arange(n_groups), side="right")
    return starts, ends


def reference_vortex_field(
    positions: np.ndarray,
    charges: np.ndarray,
    kernel: SmoothingKernel,
    sigma: float,
    theta: float = 0.3,
    order: int = 2,
    leaf_size: int = 32,
    mac_variant: MACVariant = "bh",
    gradient: bool = True,
    exclude_zero: Optional[bool] = None,
) -> VelocityField:
    """Vortex RHS by the original per-group loops (caller particle order)."""
    if exclude_zero is None:
        exclude_zero = (
            isinstance(kernel, SingularKernel) and kernel.softening == 0.0
        )
    tree = build_octree(positions, leaf_size=leaf_size)
    moments = compute_vortex_moments(tree, charges)
    lists = dual_traversal(
        tree, theta, node_bmax=moments.bmax, variant=mac_variant
    )
    charges_sorted = charges[tree.order]
    n = positions.shape[0]
    vel = np.zeros((n, 3))
    grad = np.zeros((n, 3, 3)) if gradient else None

    far_order = np.argsort(lists.far_group, kind="stable")
    far_group = lists.far_group[far_order]
    far_node = lists.far_node[far_order]
    near_order = np.argsort(lists.near_group, kind="stable")
    near_group = lists.near_group[near_order]
    near_node = lists.near_node[near_order]
    fstart, fend = _group_slices(far_group, lists.n_groups)
    nstart, nend = _group_slices(near_group, lists.n_groups)

    for gi in range(lists.n_groups):
        leaf = lists.groups[gi]
        lo, hi = tree.node_start[leaf], tree.node_end[leaf]
        nodes = far_node[fstart[gi]:fend[gi]]
        if nodes.size == 0:
            continue
        u, g = evaluate_vortex_far(
            tree.positions[lo:hi],
            moments.center[nodes],
            moments.m0[nodes],
            moments.m1[nodes],
            moments.m2[nodes],
            kernel,
            sigma,
            order=order,
            gradient=gradient,
        )
        vel[lo:hi] += u
        if gradient:
            grad[lo:hi] += g

    for gi in range(lists.n_groups):
        leaf = lists.groups[gi]
        lo, hi = tree.node_start[leaf], tree.node_end[leaf]
        src_leaves = near_node[nstart[gi]:nend[gi]]
        if src_leaves.size == 0:
            continue
        seg = [
            slice(tree.node_start[s], tree.node_end[s]) for s in src_leaves
        ]
        src_pos = np.concatenate([tree.positions[s] for s in seg])
        src_ch = np.concatenate([charges_sorted[s] for s in seg])
        field = biot_savart_direct(
            tree.positions[lo:hi],
            src_pos,
            src_ch,
            kernel,
            sigma,
            gradient=gradient,
            exclude_zero=exclude_zero,
        )
        vel[lo:hi] += field.velocity
        if gradient:
            grad[lo:hi] += field.gradient

    out_v = np.empty_like(vel)
    out_v[tree.order] = vel
    out_g = None
    if gradient:
        out_g = np.empty_like(grad)
        out_g[tree.order] = grad
    return VelocityField(out_v, out_g)
