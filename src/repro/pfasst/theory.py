"""Theoretical cost, speedup and efficiency models (paper Eqs. 21-25).

Notation (two-level case, Eq. 24):

* ``Ks``  — serial SDC sweeps per step to reach the target accuracy
* ``Kp``  — PFASST iterations to reach the same accuracy
* ``nL``  — coarse sweeps per iteration (and per predictor stage)
* ``alpha = Upsilon_coarse / Upsilon_fine`` — cost ratio of one coarse
  sweep to one fine sweep; the paper reduces it via the multipole
  acceptance parameter: ``alpha = (M_c / M_f) / ratio_theta`` where
  ``ratio_theta`` is the measured RHS cost ratio between theta values
  (e.g. Eq. 26: ``alpha_small = 2 / (2.65 * 3)``).
* ``beta`` — per-iteration overhead relative to a fine sweep.

``S(P_T; alpha) <= (Ks/Kp) P_T`` (Eq. 25) relaxes parareal's ``P_T / K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PfasstCostModel",
    "speedup_two_level",
    "efficiency_two_level",
    "speedup_bound",
    "parareal_speedup",
    "alpha_from_measurements",
    "multi_level_speedup",
]


def alpha_from_measurements(
    m_coarse: int, m_fine: int, theta_cost_ratio: float
) -> float:
    """Coarse/fine sweep cost ratio from node counts and RHS cost ratio.

    One sweep at a level costs ``M`` substeps, each dominated by an RHS
    evaluation, so ``alpha = (M_c * c_coarse) / (M_f * c_fine)``.  The
    paper's Eq. 26 instances: ``alpha_small = 2/(2.65*3)`` and
    ``alpha_large = 2/(3.23*3)``.
    """
    if m_coarse < 1 or m_fine < 1:
        raise ValueError("node substep counts must be >= 1")
    if not (np.isfinite(theta_cost_ratio) and theta_cost_ratio > 0):
        raise ValueError(
            f"cost ratio must be finite and > 0, got {theta_cost_ratio}"
        )
    return (m_coarse / m_fine) / theta_cost_ratio


@dataclass(frozen=True)
class PfasstCostModel:
    """Cost bookkeeping of a PFASST run (Eqs. 21-23)."""

    ks: int  # serial sweeps
    kp: int  # parallel iterations
    n_sweeps: Sequence[int]  # sweeps per level per iteration, fine..coarse
    upsilon: Sequence[float]  # cost of one sweep per level, fine..coarse
    gamma: Sequence[float]  # FAS overhead per level per iteration

    def __post_init__(self) -> None:
        lengths = (len(self.n_sweeps), len(self.upsilon), len(self.gamma))
        if len(set(lengths)) != 1:
            raise ValueError(
                "per-level sequences must have equal lengths, got "
                f"n_sweeps/upsilon/gamma = {lengths}"
            )
        if self.ks < 1 or self.kp < 1:
            raise ValueError("iteration counts must be >= 1")

    def serial_cost(self, p_t: int | np.ndarray) -> float | np.ndarray:
        """Eq. 21: ``Cs = P_T Ks Upsilon_0``."""
        return p_t * self.ks * self.upsilon[0]

    def parallel_cost(self, p_t: int | np.ndarray) -> float | np.ndarray:
        """Eq. 22: ``Cp = P_T nL UpsilonL + Kp sum(n Upsilon + n Gamma)``."""
        predictor = p_t * self.n_sweeps[-1] * self.upsilon[-1]
        per_iter = sum(
            n * (u + g)
            for n, u, g in zip(self.n_sweeps, self.upsilon, self.gamma)
        )
        return predictor + self.kp * per_iter

    def speedup(self, p_t: int | np.ndarray) -> float | np.ndarray:
        """Eq. 23."""
        return self.serial_cost(p_t) / self.parallel_cost(p_t)

    def efficiency(self, p_t: int) -> float:
        return self.speedup(p_t) / p_t


def speedup_two_level(
    p_t: int | np.ndarray,
    alpha: float,
    ks: int,
    kp: int,
    n_coarse: int,
    beta: float = 0.0,
) -> np.ndarray:
    """Eq. 24: ``S = P_T Ks / (P_T nL alpha + Kp (1 + nL alpha + beta))``."""
    p = np.asarray(p_t, dtype=np.float64)
    return p * ks / (p * n_coarse * alpha + kp * (1.0 + n_coarse * alpha + beta))


def efficiency_two_level(
    p_t: int | np.ndarray,
    alpha: float,
    ks: int,
    kp: int,
    n_coarse: int,
    beta: float = 0.0,
) -> np.ndarray:
    return speedup_two_level(p_t, alpha, ks, kp, n_coarse, beta) / np.asarray(
        p_t, dtype=np.float64
    )


def speedup_bound(p_t: int | np.ndarray, ks: int, kp: int) -> np.ndarray:
    """Eq. 25: ``S <= (Ks/Kp) P_T``, independent of alpha."""
    return np.asarray(p_t, dtype=np.float64) * ks / kp


def parareal_speedup(
    p_t: int | np.ndarray, alpha: float, k: int
) -> np.ndarray:
    """Classic parareal speedup ``P_T / (P_T alpha + K (1 + alpha))``.

    Its efficiency is bounded by ``1/K`` — the strict limit the paper
    contrasts against PFASST's ``Ks/Kp``.
    """
    p = np.asarray(p_t, dtype=np.float64)
    return p / (p * alpha + k * (1.0 + alpha))


def multi_level_speedup(
    p_t: int | np.ndarray,
    ks: int,
    kp: int,
    n_sweeps: Sequence[int],
    upsilon: Sequence[float],
    gamma: Sequence[float] | None = None,
) -> np.ndarray:
    """General L-level speedup via Eq. 23, vectorised over ``p_t``.

    ``gamma`` defaults to no FAS overhead on every level.
    """
    if gamma is None:
        gamma = [0.0] * len(n_sweeps)
    model = PfasstCostModel(ks, kp, n_sweeps, upsilon, gamma)
    return model.speedup(np.asarray(p_t, dtype=np.float64))
