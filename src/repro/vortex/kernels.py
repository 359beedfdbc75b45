"""Regularised smoothing kernels for the vortex particle method.

The Biot-Savart integral (paper Eq. 2) is regularised by convolving the
singular kernel ``K = grad G`` with a radially symmetric smoothing function
``zeta_sigma`` of core size ``sigma`` (paper Eqs. 3-4).  All kernels here are
normalised so that the induced velocity of a particle with vector charge
``alpha = omega * vol`` is::

    u(x)      = -(1/4pi) q(r/sigma) / r^3  (x - x_p) x alpha
    grad u(x) =  assembled from F(r) = q(rho)/r^3 and
                 G(r) = (rho q'(rho) - 3 q(rho)) / r^5

where ``q(rho) = integral_0^rho 4 pi s^2 zeta(s) ds`` and ``q -> 1`` for
``rho -> inf`` (far field equals the singular kernel, which is what makes
multipole acceleration valid).

A kernel of *order m* satisfies the moment conditions ``M0 = 1`` and
``M2 = ... = M_{m-2} = 0`` where ``M_k = integral |x|^k zeta(|x|) d^3x``;
the regularisation error of the velocity field is then ``O(sigma^m)``
(Cottet & Koumoutsakos 2000).  The paper uses the *sixth-order algebraic*
kernel of Speck's thesis [23]; we derive an equivalent kernel from scratch
(closed forms below, verified against numerical quadrature in the tests).

For the algebraic family every radial profile is a rational function of
``t = rho^2``, so the combinations that appear in force evaluation,

* ``q_over_rho3(t) = q(rho)/rho^3``  (regular at the origin), and
* ``w(t) = (rho q' - 3 q)/rho^5``    (regular at the origin),

have exact polynomial-over-power closed forms with *no* removable
singularities; force loops never need small-``r`` guards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, Tuple, Type

import numpy as np

__all__ = [
    "SmoothingKernel",
    "AlgebraicKernel",
    "SecondOrderAlgebraic",
    "SixthOrderAlgebraic",
    "SingularKernel",
    "get_kernel",
    "available_kernels",
]

_FOUR_PI = 4.0 * np.pi


class SmoothingKernel(ABC):
    """Abstract radial smoothing kernel.

    Subclasses provide the dimensionless profiles; the generic methods
    :meth:`f_radial` and :meth:`g_radial` return the two radial factors the
    Biot-Savart evaluation needs, already scaled by the core size ``sigma``.
    """

    #: human-readable registry name
    name: str = "abstract"
    #: formal order of accuracy of the regularisation
    order: int = 0

    # -- dimensionless profiles -------------------------------------------
    @abstractmethod
    def q(self, rho: np.ndarray) -> np.ndarray:
        """Normalised circulation fraction inside radius ``rho``."""

    @abstractmethod
    def qprime(self, rho: np.ndarray) -> np.ndarray:
        """Derivative ``dq/drho = 4 pi rho^2 zeta(rho)``."""

    @abstractmethod
    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        """``q(rho)/rho^3`` evaluated without cancellation at rho ~ 0."""

    @abstractmethod
    def w(self, rho: np.ndarray) -> np.ndarray:
        """``(rho q'(rho) - 3 q(rho)) / rho^5``, regular at rho ~ 0."""

    def zeta(self, rho: np.ndarray) -> np.ndarray:
        """The smoothing function ``zeta(rho)`` itself (for diagnostics)."""
        rho = np.asarray(rho, dtype=np.float64)
        out = np.empty_like(rho)
        small = rho < 1e-8
        safe = np.where(small, 1.0, rho)
        out = self.qprime(safe) / (_FOUR_PI * safe**2)
        if np.any(small):
            # limit: qprime ~ 4 pi zeta(0) rho^2
            eps = 1e-4
            out = np.where(small, self.qprime(eps) / (_FOUR_PI * eps**2), out)
        return out

    # -- dimensional radial factors ---------------------------------------
    def f_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        """``F(r) = q(r/sigma)/r^3`` (the velocity radial factor)."""
        rho = np.asarray(r, dtype=np.float64) / sigma
        return self.q_over_rho3(rho) / sigma**3

    def g_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        """``G(r) = (rho q' - 3 q)/r^5`` (the gradient radial factor)."""
        rho = np.asarray(r, dtype=np.float64) / sigma
        return self.w(rho) / sigma**5

    @abstractmethod
    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """Both radial factors straight from *squared* distances.

        The batched near-field evaluator computes ``r^2`` anyway, and
        both families (algebraic and singular) evaluate their factors
        from it directly.  Returns ``(F, G)``; ``G`` is None when
        ``gradient`` is False.
        """

    def f_g_from_rho2(
        self, rho2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """``(F, G)`` from *scaled* squared distances ``rho^2 = r^2/sigma^2``.

        Entry point of the batched near field, whose distance GEMM
        produces ``rho^2`` directly — possibly a rounding error below
        zero.  ``rho2`` is consumed (overwritten in place).  The generic
        form clamps, rescales and defers to :meth:`f_g_from_r2`.
        """
        np.maximum(rho2, 0.0, out=rho2)
        rho2 *= sigma * sigma
        return self.f_g_from_r2(rho2, sigma, gradient)

    def moment(self, k: int, rmax: float = 80.0, n: int = 200_001) -> float:
        """Numerical radial moment ``M_k = int |x|^k zeta d^3x`` (tests)."""
        rho = np.linspace(0.0, rmax, n)
        integrand = rho**k * self.qprime(rho)  # 4 pi rho^{2+k} zeta
        return float(np.trapezoid(integrand, rho))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"


def _u_form(coeffs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Rewrite a polynomial in ``t`` for the variable ``u = 1/(1 + t)``.

    With ``t = (1 - u)/u`` a degree-``m`` polynomial ``C(t)`` becomes
    ``u^-m C~(u)`` where ``C~(u) = sum_k c_k (1 - u)^k u^(m-k)`` has the
    same degree.  Exact rational arithmetic; coefficients low-order first
    on both sides.
    """
    m = len(coeffs) - 1
    out = [Fraction(0)] * (m + 1)
    for k, c in enumerate(coeffs):
        # c (1 - u)^k u^(m-k): binomial expansion of (1 - u)^k
        term = Fraction(c)
        for j in range(k + 1):
            out[m - k + j] += term
            term = -term * (k - j) / (j + 1)
    return tuple(float(c) for c in out)


class AlgebraicKernel(SmoothingKernel):
    """Base class for the algebraic family ``zeta ~ P(t)/(t+1)^{D/2}``.

    Subclasses define, with ``t = rho^2``:

    * ``_A``: coefficients of ``A(t)`` where ``q'(rho) = rho^2 A(t)/(t+1)^{D/2}``
    * ``_P``: coefficients of ``P(t)`` where ``q(rho) = rho^3 P(t)/(t+1)^{(D-2)/2}``
    * ``_W``: coefficients of ``Wnum(t)`` where
      ``(rho q' - 3 q)/rho^5 = Wnum(t)/(t+1)^{D/2}``
    * ``_D``: the (odd) denominator exponent numerator.

    Coefficient arrays are low-order-first, consumed via Horner evaluation.
    """

    _A: Tuple[float, ...]
    _P: Tuple[float, ...]
    _W: Tuple[float, ...]
    _D: int

    @staticmethod
    def _horner(coeffs: Tuple[float, ...], t: np.ndarray) -> np.ndarray:
        acc = np.full_like(t, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * t + c
        return acc

    def q(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return rho**3 * self._horner(self._P, t) / (t + 1.0) ** ((self._D - 2) / 2.0)

    def qprime(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return t * self._horner(self._A, t) / (t + 1.0) ** (self._D / 2.0)

    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return self._horner(self._P, t) / (t + 1.0) ** ((self._D - 2) / 2.0)

    def w(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return self._horner(self._W, t) / (t + 1.0) ** (self._D / 2.0)

    @staticmethod
    def _int_power(base: np.ndarray, n: int) -> np.ndarray:
        """``base**n`` by squaring — ~log2(n) multiplies, no np.power."""
        acc = None
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc
            base = base * base

    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """Rational fast path: Horner numerators over ``(t+1)^{-k/2}``.

        The half-integer denominators are integer powers of
        ``1/sqrt(t+1)``; ``F`` and ``G`` share the whole power chain
        (``G``'s denominator is one factor of ``t+1`` deeper), so the
        pair costs one sqrt, one divide and a handful of multiplies —
        several times cheaper than two ``np.power`` calls with float
        exponents.
        """
        sig2 = sigma * sigma
        t = r2 * (1.0 / sig2)
        w = t + 1.0
        np.sqrt(w, out=w)
        inv = np.divide(1.0, w, out=w)
        fden = self._int_power(inv, self._D - 2)
        # fold the sigma scales into the (scalar) coefficients and run
        # Horner in place — no temporaries on the hot path
        inv_sig3 = 1.0 / (sigma * sig2)
        coeffs = self._P
        f = np.full_like(t, coeffs[-1] * inv_sig3)
        for c in coeffs[-2::-1]:
            f *= t
            f += c * inv_sig3
        f *= fden
        g = None
        if gradient:
            inv_sig5 = inv_sig3 / sig2
            coeffs = self._W
            g = np.full_like(t, coeffs[-1] * inv_sig5)
            for c in coeffs[-2::-1]:
                g *= t
                g += c * inv_sig5
            g *= fden
            g *= inv
            g *= inv
        return f, g

    #: ``_P`` / ``_W`` rewritten for ``u = 1/(1 + t)`` (see
    #: :func:`_u_form`), derived when a family member is defined
    _PU: Tuple[float, ...]
    _WU: Tuple[float, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if len(cls._W) != len(cls._P) or cls._D - 2 * len(cls._P) != 3:
            raise TypeError(
                f"{cls.__name__}: the u-form radial pair needs _P and _W "
                "of one degree m with _D - 2 m = 5"
            )
        cls._PU = _u_form(cls._P)
        cls._WU = _u_form(cls._W)

    @staticmethod
    def _scaled_horner(
        coeffs: Tuple[float, ...], scale: float, u: np.ndarray,
        tail: np.ndarray,
    ) -> np.ndarray:
        """``scale * C(u) * tail`` by in-place Horner, exact zeros skipped."""
        c = [x * scale for x in coeffs]
        if len(c) == 1:
            return tail * c[0]
        acc = u * c[-1]
        if c[-2]:
            acc += c[-2]
        for ck in c[-3::-1]:
            acc *= u
            if ck:
                acc += ck
        acc *= tail
        return acc

    def f_g_from_rho2(
        self, rho2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """The radial pair in the variable ``u = 1/(1 + rho^2)``.

        For every family member ``D - 2 m = 5`` (``m`` the degree of
        ``_P`` and ``_W``), so

            F = sigma^-3 u^(3/2) P~(u),    G = sigma^-5 u^(5/2) W~(u)

        with ``P~, W~`` from :func:`_u_form`: one reciprocal, one square
        root and two in-place Horner loops over ``u`` in (0, 1].  Every
        ``P~`` coefficient is >= 0 and every ``W~`` coefficient <= 0, so
        the loops never cancel, and ``1 + rho^2`` stays positive for a
        ``rho^2`` that the distance GEMM rounded slightly below zero — no
        clamp.  ``rho2`` is consumed (it becomes ``u``).
        """
        u = rho2
        u += 1.0
        np.reciprocal(u, out=u)
        h = np.sqrt(u)
        h *= u  # u^(3/2)
        inv_sig3 = 1.0 / (sigma * sigma * sigma)
        f = self._scaled_horner(self._PU, inv_sig3, u, h)
        g = None
        if gradient:
            g = self._scaled_horner(
                self._WU, inv_sig3 / (sigma * sigma), u, h
            )
            g *= u
        return f, g


class SecondOrderAlgebraic(AlgebraicKernel):
    """``zeta = (3/4pi)(rho^2+1)^{-5/2}`` — the classic low-order kernel."""

    name = "algebraic2"
    order = 2
    _D = 5
    _A = (3.0,)
    _P = (1.0,)
    _W = (-3.0,)


class SixthOrderAlgebraic(AlgebraicKernel):
    """Sixth-order algebraic kernel (M0 = 1, M2 = M4 = 0) — paper default.

    ``zeta = (105/256pi)(35 - 56 t + 8 t^2)/(t+1)^{13/2}`` with the exact
    antiderivative ``q = rho^3 (1225/64 + (49/4) t + (99/8) t^2 + (11/2) t^3
    + t^4)/(t+1)^{11/2}``.
    """

    name = "algebraic6"
    order = 6
    _D = 13
    _A = (3675.0 / 64.0, -735.0 / 8.0, 105.0 / 8.0)
    _P = (1225.0 / 64.0, 49.0 / 4.0, 99.0 / 8.0, 5.5, 1.0)
    _W = (-11907.0 / 64.0, -243.0 / 4.0, -429.0 / 8.0, -19.5, -3.0)


class SingularKernel(SmoothingKernel):
    """Unregularised kernel ``q = 1`` with optional Plummer softening.

    With ``softening = 0`` this is the raw Biot-Savart kernel;
    multipole far fields of every regularised kernel converge to it.  The
    "coarse-as-singular" limit is also what the tree code's multipole
    expansion actually computes for well-separated clusters.
    """

    name = "singular"
    order = 0

    def __init__(self, softening: float = 0.0) -> None:
        if softening < 0:
            raise ValueError(f"softening must be >= 0, got {softening}")
        self.softening = float(softening)

    def q(self, rho: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(rho, dtype=np.float64))

    def qprime(self, rho: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rho, dtype=np.float64))

    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        r2 = rho * rho + self.softening**2
        return 1.0 / (r2 * np.sqrt(r2))

    def w(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        r2 = rho * rho + self.softening**2
        return -3.0 / (r2 * r2 * np.sqrt(r2))

    def f_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        # sigma is irrelevant for the singular kernel; pass rho = r directly
        return self.q_over_rho3(np.asarray(r, dtype=np.float64))

    def g_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        return self.w(np.asarray(r, dtype=np.float64))

    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        s = r2 + self.softening**2
        f = 1.0 / (s * np.sqrt(s))
        g = -3.0 * f / s if gradient else None
        return f, g


_REGISTRY: Dict[str, Type[SmoothingKernel]] = {
    SecondOrderAlgebraic.name: SecondOrderAlgebraic,
    SixthOrderAlgebraic.name: SixthOrderAlgebraic,
    SingularKernel.name: SingularKernel,
}


def available_kernels() -> Tuple[str, ...]:
    """Names accepted by :func:`get_kernel`."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str, **kwargs) -> SmoothingKernel:
    """Instantiate a kernel by registry name.

    >>> get_kernel("algebraic6").order
    6
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {available_kernels()}"
        ) from None
    return cls(**kwargs)
