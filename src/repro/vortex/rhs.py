"""Direct O(N^2) evaluation of the vortex-method right-hand side.

For every target ``x`` the regularised Biot-Savart law and its gradient are

    u(x)      = -(1/4pi) sum_p F(r_p) (r_p x alpha_p)
    du_i/dx_k = -(1/4pi) sum_p [ G(r_p) r_pk (r_p x alpha_p)_i
                                 + F(r_p) eps_{ikm} alpha_pm ]

with ``r_p = x - x_p``, ``F(r) = q(r/sigma)/r^3`` and
``G(r) = (rho q' - 3 q)/r^5`` supplied by the smoothing kernel.  Both radial
factors are finite at ``r = 0`` for regularised kernels, so self-interaction
needs no special casing: the cross product kills the ``G`` term and the
``F eps alpha`` term is the particle's genuine self-induced rotation.

Evaluation is one block body over structure-of-arrays operands
(docs/algorithms.md, "Direct summation"): ``r`` as three (C, N) planes of
explicit differences ``x - x_p``, ``r^2`` by one reduction, the radial pair
from one :meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_rho2` call.
Both sums are linear in the charges with per-pair coefficients, so a single
GEMM over the sources contracts the three planes ``F r_j`` (velocity) and
the six planes of the symmetric ``G r_j r_k`` (gradient) with ``alpha``.
No factor of ``r`` is split into target and source parts: a coincident pair
contributes an exact zero and rounding stays at the level of a per-pair
loop, which ``tests/test_rhs_direct.py`` checks in ``longdouble``.

Targets are processed in L2-sized blocks (:data:`_BLOCK_PAIRS`) inside one
workspace allocated per call — temporaries allocated per block are handed
back to the OS and page-faulted in again.  A call whose pairs fit one block
(``N = 64``) is a single pass through the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.analysis.sanitize import boundary
from repro.utils.chunking import chunk_ranges
from repro.utils.validation import check_array, check_positive
from repro.vortex.kernels import SmoothingKernel

__all__ = [
    "VelocityField",
    "biot_savart_direct",
]

_INV_FOUR_PI = 1.0 / (4.0 * np.pi)

StretchingScheme = Literal["transpose"]


@dataclass
class VelocityField:
    """Velocity and velocity gradient sampled at target points.

    ``velocity[i]`` is ``u(x_i)``; ``gradient[i, a, b]`` is
    ``du_a/dx_b (x_i)`` (row index = velocity component).
    """

    velocity: np.ndarray
    gradient: Optional[np.ndarray] = None

    def stretching(self, vorticity: np.ndarray) -> np.ndarray:
        """Vortex stretching term ``domega/dt`` for the given vorticity,
        in the transpose scheme of paper Eq. 6:
        ``domega_i = omega_j du_j/dx_i``."""
        if self.gradient is None:
            raise ValueError("gradient was not computed; pass gradient=True")
        return np.einsum("nji,nj->ni", self.gradient, vorticity)


#: index triples (i, j, k) with eps_ijk = +1
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
#: GEMM planes of a block: 0-2 hold ``F r_j``, ``_SYM[j, k]`` is the plane
#: of the symmetric product ``G r_j r_k``
_SYM = np.array([[3, 4, 5], [4, 6, 7], [5, 7, 8]])
#: pairs per block: 2 MiB at 21 live float64 planes per pair (15 of
#: workspace, the radial pair and its scratch).  4 MiB-L2 host, N = 256 ..
#: 4096: 28-30 ns per pair at 1.5-2 MiB, 35 ns at 8 MiB, 38-50 ns at 0.5 MiB
_BLOCK_PAIRS = 2 * 2**20 // (8 * 21)


def _direct_block(work, t, s, b, kernel, sigma, exclude_zero, velocity, grad):
    """Field of all sources at the ``C`` targets of one block.

    ``t`` (3, C) and ``s`` (3, N) are position planes, ``b`` (N, 3) the
    charges times ``-1/4pi``.  ``work`` is (6, C, N) without gradient
    (``r``, three GEMM planes) and (15, C, N) with it (six more, and
    ``G r``).  Writes ``velocity`` (C, 3) and ``grad`` (C, 3, 3) or None.
    """
    _, c, n = work.shape
    gradient = grad is not None
    r, planes = work[:3], work[3:12]
    np.subtract(t[:, :, None], s[:, None, :], out=r)
    rho2 = np.einsum("icn,icn->cn", r, r)
    if exclude_zero:
        zero = rho2 == 0.0
        rho2[zero] = 1.0
    rho2 *= 1.0 / (sigma * sigma)
    f, g = kernel.f_g_from_rho2(rho2, sigma, gradient)
    if exclude_zero:
        f[zero] = 0.0
    np.multiply(r, f, out=planes[0:3])
    if gradient:
        if exclude_zero:
            g[zero] = 0.0
        gr = np.multiply(r, g, out=work[12:])
        np.multiply(gr[0], r, out=planes[3:6])
        np.multiply(gr[1], r[1:], out=planes[6:8])
        np.multiply(gr[2], r[2], out=planes[8])
    # sums[plane, c, m] = sum_p plane[c, p] b[p, m]
    sums = (planes.reshape(-1, n) @ b).reshape(-1, c, 3)
    for i, j, k in _CYCLIC:
        # (r x b)_i = r_j b_k - r_k b_j
        np.subtract(sums[j, :, k], sums[k, :, j], out=velocity[:, i])
    if not gradient:
        return
    sym = sums[_SYM]  # (3, 3, C, 3): sum_p G r_d r_j b_m at [d, j, :, m]
    fb = f @ b
    for i, j, k in _CYCLIC:
        np.subtract(sym[:, j, :, k].T, sym[:, k, :, j].T, out=grad[:, i, :])
        # eps_{idm} (sum_p F b)_m
        grad[:, i, j] += fb[:, k]
        grad[:, i, k] -= fb[:, j]


@boundary("biot_savart_direct", arrays=[
    ("targets", (None, 3)), ("sources", (None, 3)), ("charges", (None, 3)),
])
def biot_savart_direct(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    kernel: SmoothingKernel,
    sigma: float,
    gradient: bool = True,
    chunk: Optional[int] = None,
    exclude_zero: bool = False,
) -> VelocityField:
    """Direct summation of the regularised Biot-Savart law.

    Parameters
    ----------
    targets : (M, 3)
        Evaluation points.
    sources : (N, 3)
        Particle positions.
    charges : (N, 3)
        Vector charges ``alpha_p = omega_p vol_p``.
    kernel :
        Smoothing kernel providing the radial profiles.
    sigma :
        Core size.  Ignored by :class:`~repro.vortex.kernels.SingularKernel`.
    gradient :
        Also assemble the (M, 3, 3) velocity gradient.
    chunk :
        Targets per block; ``None`` sizes blocks to the L2 cache.
    exclude_zero :
        Zero out pairs at exactly zero distance.  Regularised kernels
        need no such guard; the unsoftened singular kernel does, its
        coincident pairs contribute ``inf`` otherwise.
    """
    shared = sources is targets  # self-evaluation: validate the array once
    targets = check_array("targets", targets, shape=(None, 3), dtype=np.float64)
    sources = targets if shared else check_array(
        "sources", sources, shape=(None, 3), dtype=np.float64
    )
    charges = check_array(
        "charges", charges, shape=(sources.shape[0], 3), dtype=np.float64
    )
    check_positive("sigma", sigma)

    n_targets = targets.shape[0]
    n_sources = sources.shape[0]
    if n_sources == 0 or n_targets == 0:
        return VelocityField(
            np.zeros((n_targets, 3), dtype=np.float64),
            np.zeros((n_targets, 3, 3), dtype=np.float64) if gradient else None,
        )

    if chunk is None:
        chunk = max(1, _BLOCK_PAIRS // n_sources)
    chunk = min(chunk, n_targets)
    velocity = np.empty((n_targets, 3), dtype=np.float64)
    grad = np.empty((n_targets, 3, 3), dtype=np.float64) if gradient else None
    s = np.ascontiguousarray(sources.T)
    t = s if shared else np.ascontiguousarray(targets.T)
    b = charges * -_INV_FOUR_PI
    planes = 15 if gradient else 6
    buf = np.empty(planes * chunk * n_sources, dtype=np.float64)
    for lo, hi in chunk_ranges(n_targets, chunk):
        c = hi - lo
        _direct_block(
            buf[: planes * c * n_sources].reshape(planes, c, n_sources),
            t[:, lo:hi], s, b, kernel, sigma, exclude_zero,
            velocity[lo:hi], grad[lo:hi] if gradient else None,
        )
    return VelocityField(velocity, grad)
