"""Multipole moments of particle clusters (paper Sec. III-A).

For *vortex* particles the cluster carries vector charges
``alpha_p = omega_p vol_p`` and the streamfunction expansion about the
cluster center ``c`` needs, with ``d_p = x_p - c``:

    M0_i    = sum_p alpha_pi                     (monopole,   3)
    M1_ij   = sum_p alpha_pi d_pj                (dipole,     3x3)
    M2_ijk  = 1/2 sum_p alpha_pi d_pj d_pk       (quadrupole, 3x3x3 sym jk)

They are computed by one vectorised pass over the Morton-sorted particle
arrays (segment sums per leaf), followed by a level-by-level upward
translation of child moments to parent centers:

    M0^P  = sum_c M0^c
    M1^P  = sum_c M1^c + M0^c (x) s_c
    M2^P  = sum_c M2^c + sym(M1^c (x) s_c) + 1/2 M0^c (x) s_c (x) s_c

with ``s_c = center_c - center_P``.  The shift is exact: moments about any
center represent the same field.

``bmax`` (distance from the expansion center to the farthest particle of
the cluster) is also accumulated for the Salmon-Warren style MAC variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tree.build import Octree
from repro.utils.validation import check_array

__all__ = ["VortexMoments", "compute_vortex_moments"]


def _segment_sum(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sum ``values`` (N, ...) over [start, end) segments; empty -> 0."""
    if starts.size == 0:
        return np.zeros((0,) + values.shape[1:], dtype=np.float64)
    cum = np.concatenate(
        [np.zeros((1,) + values.shape[1:]), np.cumsum(values, axis=0)], axis=0
    )
    return cum[ends] - cum[starts]


def _p2m(alpha, pos, starts, ends, centers):
    """``(m0, m1, m2)`` of the charges ``alpha`` at ``pos`` summed over
    [start, end) segments, about one center per segment (P2M)."""
    s0 = _segment_sum(alpha, starts, ends)
    s1 = _segment_sum(np.einsum("ni,nj->nij", alpha, pos), starts, ends)
    s2 = _segment_sum(
        np.einsum("ni,nj,nk->nijk", alpha, pos, pos), starts, ends
    )
    # raw sums about the origin shifted to the centers c:
    # M1_ij = s1_ij - s0_i c_j,
    # M2_ijk = 1/2 (s2 - s1_ij c_k - s1_ik c_j + s0_i c_j c_k)
    m1 = s1 - np.einsum("li,lj->lij", s0, centers)
    m2 = 0.5 * (
        s2
        - np.einsum("lij,lk->lijk", s1, centers)
        - np.einsum("lik,lj->lijk", s1, centers)
        + np.einsum("li,lj,lk->lijk", s0, centers, centers)
    )
    return s0, m1, m2


def _m2m(k0, k1, k2, s):
    """Children's moments (K, ...) shifted by ``s = center_c - center_P``
    and summed into their parent's (M2M)."""
    m1 = (k1 + np.einsum("ki,kj->kij", k0, s)).sum(axis=0)
    m2 = (
        k2
        + 0.5 * np.einsum("kij,kl->kijl", k1, s)
        + 0.5 * np.einsum("kil,kj->kijl", k1, s)
        + 0.5 * np.einsum("ki,kj,kl->kijl", k0, s, s)
    ).sum(axis=0)
    return k0.sum(axis=0), m1, m2


@dataclass
class VortexMoments:
    """Per-node multipole moments for vector (vortex) charges."""

    center: np.ndarray  # (n_nodes, 3) expansion centers
    m0: np.ndarray  # (n_nodes, 3)
    m1: np.ndarray  # (n_nodes, 3, 3)  m1[n, i, j] = sum alpha_i d_j
    m2: np.ndarray  # (n_nodes, 3, 3, 3) with the 1/2 included
    bmax: np.ndarray  # (n_nodes,)
    #: total absolute charge |alpha| per node (error-bound diagnostics)
    abs_charge: np.ndarray


def _upward_pass_centers(tree: Octree) -> np.ndarray:
    """Expansion centers: the geometric cell centers (PEPC convention)."""
    return tree.node_center.copy()


def compute_vortex_moments(
    tree: Octree, charges: np.ndarray
) -> VortexMoments:
    """Moments for vector charges given in *original* particle order."""
    charges = check_array(
        "charges", charges, shape=(tree.n_particles, 3), dtype=np.float64
    )
    alpha = charges[tree.order]  # sorted order
    pos = tree.positions
    center = _upward_pass_centers(tree)
    n_nodes = tree.n_nodes

    m0 = np.zeros((n_nodes, 3))
    m1 = np.zeros((n_nodes, 3, 3))
    m2 = np.zeros((n_nodes, 3, 3, 3))
    bmax = np.zeros(n_nodes)
    abs_charge = np.zeros(n_nodes)

    # ---- leaves: direct vectorised segment sums ----------------------
    leaves = tree.leaves()
    starts, ends = tree.node_start[leaves], tree.node_end[leaves]
    m0[leaves], m1[leaves], m2[leaves] = _p2m(
        alpha, pos, starts, ends, center[leaves]
    )
    abs_charge[leaves] = _segment_sum(
        np.linalg.norm(alpha, axis=1), starts, ends
    )
    # leaf bmax: farthest particle from the leaf center
    leaf_of_slot = np.zeros(tree.n_particles, dtype=np.int64)
    leaf_ids = np.repeat(np.arange(leaves.size), (ends - starts))
    slot_index = np.concatenate(
        [np.arange(s, e) for s, e in zip(starts, ends)]
    ) if leaves.size else np.empty(0, dtype=np.int64)
    leaf_of_slot[slot_index] = leaf_ids
    dist = np.linalg.norm(pos - center[leaves][leaf_of_slot], axis=1)
    np.maximum.at(bmax, leaves[leaf_of_slot], dist)

    # ---- internal nodes: translate children upward, deepest first ----
    for lvl in range(tree.n_levels - 2, -1, -1):
        lo, hi = tree.level_offsets[lvl], tree.level_offsets[lvl + 1]
        nodes = np.arange(lo, hi)
        internal = nodes[tree.node_first_child[nodes] >= 0]
        if internal.size == 0:
            continue
        for node in internal:
            kids = tree.children(node)
            s = center[kids] - center[node]  # (K, 3)
            m0[node], m1[node], m2[node] = _m2m(
                m0[kids], m1[kids], m2[kids], s
            )
            abs_charge[node] = abs_charge[kids].sum()
            bmax[node] = np.max(
                bmax[kids] + np.linalg.norm(s, axis=1)
            )
    return VortexMoments(
        center=center, m0=m0, m1=m1, m2=m2, bmax=bmax, abs_charge=abs_charge
    )
