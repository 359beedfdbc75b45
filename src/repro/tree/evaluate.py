"""Far-field (multipole) evaluation of cluster interactions.

Implements the curl of the expanded vector streamfunction for vortex
clusters — velocity and velocity gradient through quadrupole order.  All
formulas reduce the derivative tensors of the radially symmetric Green's
function to the radial chain ``D1..D4`` (see :mod:`repro.tree.profiles`),
contracted analytically so no rank-4 tensors are ever materialised per
pair:

    u      = D1 (r x M0)
             - D2 (r x w) - D1 vec(M1)                        [dipole]
             + D3 (r x v) + 2 D2 vec(m) + D2 (r x tr)         [quadrupole]

    du/dx  = D2 (r x M0) r^T + D1 E(M0)
             - D3 (r x w) r^T - D2 [vec(M1) r^T + E(w) + r X M1]
             + D4 (r x v) r^T
             + D3 [2 vec(m) r^T + E(v) + (r x tr) r^T + 2 (r X m)]
             + D2 [2 vec2(M2) + E(tr)]

with ``r = target - center``, ``w = M1 r``, ``m_cb = M2_cbk r_k``,
``v = m r``, ``tr_c = M2_cjj``, ``vec(B)_a = eps_abc B_cb``,
``E(x)_ad = eps_adm x_m`` and ``(r X B)_ad = eps_abc r_b B_cd``.
Verified in the tests against direct summation (a point cluster matches
*exactly*; extended clusters converge with distance and order).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tree.profiles import radial_chain
from repro.vortex.kernels import SmoothingKernel

__all__ = [
    "evaluate_vortex_far",
    "evaluate_vortex_far_pairs",
]


def _vec_antisym(mat: np.ndarray) -> np.ndarray:
    """``vec(B)_a = eps_abc B_cb`` for arrays (..., 3, 3) -> (..., 3)."""
    return np.stack(
        [
            mat[..., 2, 1] - mat[..., 1, 2],
            mat[..., 0, 2] - mat[..., 2, 0],
            mat[..., 1, 0] - mat[..., 0, 1],
        ],
        axis=-1,
    )


def _cross_matrix_add(out: np.ndarray, r: np.ndarray, mat: np.ndarray) -> None:
    """Accumulate ``(r X B)_ad = eps_abc r_b B_cd`` onto ``out`` in place."""
    r1, r2, r3 = r[..., 0], r[..., 1], r[..., 2]
    out[..., 0, :] += (
        r2[..., None] * mat[..., 2, :] - r3[..., None] * mat[..., 1, :]
    )
    out[..., 1, :] += (
        r3[..., None] * mat[..., 0, :] - r1[..., None] * mat[..., 2, :]
    )
    out[..., 2, :] += (
        r1[..., None] * mat[..., 1, :] - r2[..., None] * mat[..., 0, :]
    )


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a x b`` for (..., 3) arrays, without :func:`np.cross` overhead."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _eps_add(out: np.ndarray, vec: np.ndarray) -> None:
    """Accumulate ``E(x)_ad = eps_adm x_m`` onto ``out`` (..., 3, 3)."""
    out[..., 0, 1] += vec[..., 2]
    out[..., 0, 2] -= vec[..., 1]
    out[..., 1, 0] -= vec[..., 2]
    out[..., 1, 2] += vec[..., 0]
    out[..., 2, 0] += vec[..., 1]
    out[..., 2, 1] -= vec[..., 0]


def evaluate_vortex_far_pairs(
    targets: np.ndarray,
    centers: np.ndarray,
    m0: np.ndarray,
    m1: Optional[np.ndarray],
    m2: Optional[np.ndarray],
    kernel: SmoothingKernel,
    sigma: float,
    order: int = 2,
    gradient: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-pair far-field contributions of P (particle, cluster) pairs.

    All arrays are aligned on axis 0: ``targets[p]`` interacts with the
    cluster ``(centers[p], m0[p], m1[p], m2[p])``.  Returns the *unsummed*
    velocity (P, 3) and gradient (P, 3, 3) contributions; the caller
    scatter-adds them onto the targets (segment sums in the batched
    engine).  This is the single source of truth for the expansion
    formulas; :func:`evaluate_vortex_far` wraps it on a (target, cluster)
    product grid.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    targets = np.asarray(targets, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    p = targets.shape[0]
    if p == 0:
        return (np.zeros((0, 3), dtype=np.float64),
                (np.zeros((0, 3, 3), dtype=np.float64) if gradient else None))

    r = targets - centers  # (P, 3)
    r2 = np.einsum("pi,pi->p", r, r)
    # orders needed: velocity uses D1..D(order+1); gradient D1..D(order+2)
    need = order + (2 if gradient else 1)
    chain = radial_chain(kernel, r2, sigma, need)
    d1 = chain[0]
    d2 = chain[1] if need >= 2 else None
    d3 = chain[2] if need >= 3 else None
    d4 = chain[3] if need >= 4 else None

    # Every cross product in the docstring formulas shares the same left
    # factor r, so the expansion collapses to a handful of combined
    # per-pair vectors:
    #
    #   u  = r x cu + su          cu = D1 M0 - D2 w + D3 v + D2 tr
    #                             su = -D1 vec(M1) + 2 D2 vec(m)
    #   du = (r x cg + sg) (x) r + E(cu) + r X B + 2 D2 vec2
    #                             cg = D2 M0 - D3 w + D4 v + D3 tr
    #                             sg = -D2 vec(M1) + 2 D3 vec(m)
    #                             B  = -D2 M1 + 2 D3 m
    #
    # (the E() argument of the gradient is the same combined vector cu).
    w = vec1 = m = v = vecm = None
    cu = d1[:, None] * m0
    if order >= 1:
        if m1 is None:
            raise ValueError("order >= 1 requires m1 moments")
        w = np.einsum("pcj,pj->pc", m1, r)
        vec1 = _vec_antisym(m1)  # (P, 3)
        cu -= d2[:, None] * w
    if order >= 2:
        if m2 is None:
            raise ValueError("order >= 2 requires m2 moments")
        m = np.einsum("pcbj,pj->pcb", m2, r)  # m_cb = M2_cbk r_k
        v = np.einsum("pcj,pj->pc", m, r)
        tr = np.einsum("pcjj->pc", m2)  # (P, 3)
        vecm = _vec_antisym(m)
        cu += d3[:, None] * v + d2[:, None] * tr

    u = _cross(r, cu)
    if order >= 1:
        u -= d1[:, None] * vec1
    if order >= 2:
        u += (2.0 * d2)[:, None] * vecm

    g = None
    if gradient:
        cg = d2[:, None] * m0
        if order >= 1:
            cg -= d3[:, None] * w
        if order >= 2:
            cg += d4[:, None] * v + d3[:, None] * tr
        left = _cross(r, cg)
        if order >= 1:
            left -= d2[:, None] * vec1
        if order >= 2:
            left += (2.0 * d3)[:, None] * vecm
        g = left[:, :, None] * r[:, None, :]
        _eps_add(g, cu)
        if order >= 1:
            b = (-d2)[:, None, None] * m1
            if order >= 2:
                b += (2.0 * d3)[:, None, None] * m
            _cross_matrix_add(g, r, b)
        if order >= 2:
            vec2 = np.stack(
                [
                    m2[:, 2, 1, :] - m2[:, 1, 2, :],
                    m2[:, 0, 2, :] - m2[:, 2, 0, :],
                    m2[:, 1, 0, :] - m2[:, 0, 1, :],
                ],
                axis=1,
            )  # (P, 3, 3): vec2_ad = eps_abc M2_cbd
            g += (2.0 * d2)[:, None, None] * vec2

    return u, g


def _pair_grid(
    targets: np.ndarray, centers: np.ndarray, *moments: Optional[np.ndarray]
) -> Tuple[np.ndarray, ...]:
    """Expand a (P targets) x (K clusters) product onto flat pair arrays."""
    p, k = targets.shape[0], centers.shape[0]
    flat_t = np.repeat(targets, k, axis=0)
    out = [flat_t]
    for arr in (centers,) + moments:
        if arr is None:
            out.append(None)
        else:
            tiled = np.broadcast_to(arr[None], (p,) + arr.shape)
            out.append(tiled.reshape((p * k,) + arr.shape[1:]))
    return tuple(out)


def evaluate_vortex_far(
    targets: np.ndarray,
    centers: np.ndarray,
    m0: np.ndarray,
    m1: Optional[np.ndarray],
    m2: Optional[np.ndarray],
    kernel: SmoothingKernel,
    sigma: float,
    order: int = 2,
    gradient: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Velocity (P, 3) and gradient (P, 3, 3) induced by K clusters.

    ``order``: 0 monopole, 1 +dipole, 2 +quadrupole.  ``m1``/``m2`` may be
    None for lower orders.  Thin wrapper over
    :func:`evaluate_vortex_far_pairs` on the full (target, cluster) grid.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    targets = np.asarray(targets, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    p, k = targets.shape[0], centers.shape[0]
    velocity = np.zeros((p, 3), dtype=np.float64)
    grad = np.zeros((p, 3, 3), dtype=np.float64) if gradient else None
    if p == 0 or k == 0:
        return velocity, grad
    flat_t, flat_c, f0, f1, f2 = _pair_grid(targets, centers, m0, m1, m2)
    u, g = evaluate_vortex_far_pairs(
        flat_t, flat_c, f0, f1, f2, kernel, sigma,
        order=order, gradient=gradient,
    )
    velocity = u.reshape(p, k, 3).sum(axis=1)
    if gradient:
        grad = g.reshape(p, k, 3, 3).sum(axis=1)
    return velocity, grad
