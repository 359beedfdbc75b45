"""Radial derivative chains for multipole expansions of regularised kernels.

The multipole expansion of the induced field needs the derivative tensors
``T_n = grad^n G(r)`` of the streamfunction Green's function.  For any
radially symmetric ``G`` these have the classic decomposition

    T1_i    = D1 r_i
    T2_ij   = D2 r_i r_j + D1 delta_ij
    T3_ijk  = D3 r_i r_j r_k + D2 (delta_ij r_k + delta_ik r_j + delta_jk r_i)
    T4_ijkl = D4 rrrr + D3 (six delta-rr terms) + D2 (three delta-delta terms)

with the radial chain ``D_{n+1}(r) = D_n'(r) / r`` and ``D1 = G'(r)/r``.

For the algebraic kernel family (paper's choice; Speck's thesis [23]) all
``D_n`` are *exact rational functions* of ``t = (r/sigma)^2``:

    D1(r) = -(1/4pi) q(rho)/r^3 = -(1/4pi sigma^3) qq(t)

and ``qq(t) = P(t) (t+1)^{-k}`` is closed under ``d/dt``, giving

    D_{n+1} = (2 / sigma^2) dD_n/dt.

So the expansion is the *regularised* kernel's own expansion — valid at any
distance, which matters here because the paper's core size
``sigma ~= 18.53 h`` is large.  For the singular kernel the same formulas
apply with ``qq(t) = t^{-3/2}``, recovering the classical ``1/r`` tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.vortex.kernels import (
    AlgebraicKernel,
    SingularKernel,
    SmoothingKernel,
)


def _int_power(base: np.ndarray, n: int, acc: np.ndarray) -> np.ndarray:
    """``acc *= base ** n`` in place for integer ``n >= 0``, by squaring
    (no float powers); returns ``acc``."""
    sq = base
    while n:
        if n & 1:
            acc *= sq
        n >>= 1
        if n:
            sq = sq * sq
    return acc

__all__ = [
    "RationalProfile",
    "radial_chain",
    "supports_multipoles",
]


@dataclass(frozen=True)
class RationalProfile:
    """A function ``c * P(t) * (t+1)^(-k)`` with polynomial ``P``.

    ``coeffs`` are low-order-first; ``k`` may be half-integer (stored as a
    :class:`~fractions.Fraction`).  Closed under differentiation in ``t``.
    """

    coeffs: Tuple[float, ...]
    k: Fraction

    def diff(self) -> "RationalProfile":
        """d/dt of the profile: ``[P'(t)(t+1) - k P(t)] (t+1)^(-k-1)``."""
        p = self.coeffs
        dp = tuple((i + 1) * p[i + 1] for i in range(len(p) - 1)) or (0.0,)
        # P'(t)*(t+1)
        a = tuple(dp) + (0.0,)
        b = (0.0,) + tuple(dp)
        num = [
            (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
            for i in range(max(len(a), len(b)))
        ]
        # minus k*P
        kf = float(self.k)
        for i in range(len(p)):
            if i >= len(num):
                num.append(0.0)
            num[i] -= kf * p[i]
        # trim trailing zeros
        while len(num) > 1 and num[-1] == 0.0:
            num.pop()
        return RationalProfile(coeffs=tuple(num), k=self.k + 1)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        acc = np.full_like(t, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * t + c
        return acc * (t + 1.0) ** (-float(self.k))


@dataclass(frozen=True)
class _PowerProfile:
    """``t^(-p)`` (used for the singular kernel), closed under d/dt."""

    scale: float
    p: Fraction

    def diff(self) -> "_PowerProfile":
        return _PowerProfile(scale=-float(self.p) * self.scale, p=self.p + 1)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return self.scale * t ** (-float(self.p))


@lru_cache(maxsize=64)
def _numerator_matrix(
    p: Tuple[float, ...], d: int, sigma: float, max_order: int
) -> np.ndarray:
    """Row i: coefficients of ``D_{i+1}``'s numerator as a polynomial in
    ``r^2`` (low order first) for the algebraic kernel ``(P, D)`` — the
    profile derivative, its constant factor and the powers of
    ``1/sigma^2`` multiplied in.  Read-only."""
    profile = RationalProfile(coeffs=p, k=Fraction(d - 2, 2))
    inv_s2 = 1.0 / (sigma * sigma)
    scale = -1.0 / (4.0 * np.pi) / sigma**3
    rows = []
    for _ in range(max_order):
        rows.append([c * scale * inv_s2**j
                     for j, c in enumerate(profile.coeffs)])
        profile = profile.diff()
        scale *= 2.0 * inv_s2
    coef = np.array(rows)
    coef.setflags(write=False)
    return coef


def supports_multipoles(kernel: SmoothingKernel) -> bool:
    """Whether exact multipole radial chains exist for this kernel."""
    return isinstance(kernel, (AlgebraicKernel, SingularKernel))


def radial_chain(
    kernel: SmoothingKernel,
    r2: np.ndarray,
    sigma: float,
    max_order: int,
    out: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[np.ndarray, ...]:
    """Evaluate ``(D1, ..., D_{max_order})`` at squared distances ``r2``.

    ``max_order`` up to 4 is needed for quadrupole velocity gradients.
    The ``1/4pi`` prefactor of the Green's function is *included*.
    ``out``, if given, holds ``max_order`` float64 arrays shaped like
    ``r2`` that receive the chain (the batched far pass writes it straight
    into its GEMM operand); they are returned.

    Raises ``NotImplementedError`` for kernels without exact chains (use
    the direct evaluator for those).
    """
    if not 1 <= max_order <= 6:
        raise ValueError(f"max_order must be in 1..6, got {max_order}")
    inv_four_pi = 1.0 / (4.0 * np.pi)
    r2 = np.asarray(r2, dtype=np.float64)

    if isinstance(kernel, AlgebraicKernel):
        # D_{i+1} = c_i N_i(t) (t+1)^{-(k0+i)} with t = r^2/sigma^2,
        # k0 = (D-2)/2 and numerators N_i of one degree (the profile is
        # closed under d/dt).  The constants c_i and the powers of
        # 1/sigma^2 ride on the numerator coefficients, so all numerators
        # come from one small GEMM over the powers of r^2, and the shared
        # denominator family from one reciprocal (and a square root for
        # odd D) stepped by one multiply per member — no Horner passes,
        # no float-exponent powers.
        coef = _numerator_matrix(tuple(kernel._P), kernel._D, sigma, max_order)
        inv_s2 = 1.0 / (sigma * sigma)
        flat = r2.reshape(-1)
        powers = np.empty((coef.shape[1], flat.size), dtype=np.float64)
        powers[0] = 1.0
        for j in range(1, powers.shape[0]):
            np.multiply(powers[j - 1], flat, out=powers[j])
        nums = np.matmul(coef, powers)
        inv = r2 * inv_s2
        inv += 1.0
        np.reciprocal(inv, out=inv)
        if kernel._D % 2:
            den = _int_power(inv, (kernel._D - 3) // 2, np.sqrt(inv))
        else:
            den = _int_power(inv, (kernel._D - 2) // 2 - 1, inv.copy())
        chain = []
        for i in range(max_order):
            d = np.empty_like(r2) if out is None else out[i]
            np.multiply(nums[i].reshape(r2.shape), den, out=d)
            chain.append(d)
            if i + 1 < max_order:
                den *= inv
        return tuple(chain)

    if isinstance(kernel, SingularKernel):
        eps2 = kernel.softening**2
        s = r2 + eps2
        # D1 = -(1/4pi) s^{-3/2}; chain via power profile in s
        profile = _PowerProfile(scale=-inv_four_pi, p=Fraction(3, 2))
        chain = []
        for _ in range(max_order):
            chain.append(profile(s))
            profile = profile.diff()
        # D_{n+1} = dD_n/ds * ds/dr / r = 2 dD_n/ds -> factor handled: the
        # chain D_{n+1} = D_n'/r with D_n(r)=g(s), s=r^2+eps^2 gives
        # D_{n+1} = 2 g'(s); _PowerProfile.diff is d/ds, so multiply 2^n.
        chain = tuple(d * (2.0**i) for i, d in enumerate(chain))
        if out is None:
            return chain
        for dst, src in zip(out, chain):
            dst[...] = src
        return tuple(out)

    raise NotImplementedError(
        f"kernel {kernel.name!r} has no exact multipole radial chain; "
        "use the direct evaluator or an algebraic kernel"
    )
