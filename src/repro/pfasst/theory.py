"""Theoretical speedup and efficiency models (paper Eqs. 24-26).

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

Fig. 8 (serial SDC(4) against PFASST(2, 2, P_T), the Eq. 24 curve at the
Eq. 26 alpha) is written once below, for ``repro speedup`` and both
``benchmarks/bench_fig8_*.py`` scripts.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import CommCostModel, Scheduler
from repro.pfasst.controller import PfasstConfig, PfasstResult, run_pfasst
from repro.pfasst.level import (COARSE_NODES, COARSE_SWEEPS, FINE_NODES,
                                paper_levels)
from repro.sdc import SDCStepper

__all__ = [
    "speedup_two_level",
    "efficiency_two_level",
    "speedup_bound",
    "parareal_speedup",
    "alpha_from_measurements",
    "measured_cost_ratio",
    "paper_alpha",
    "paper_speedup",
    "serial_sdc_makespan",
    "paper_pfasst_run",
]

#: computed RHS evaluations per level behind :func:`measured_cost_ratio`
COST_SAMPLES = 3

#: Fig. 8: serial SDC(Ks) against PFASST(Kp, Y, P_T), Y = ``COARSE_SWEEPS``
KS, KP = 4, 2


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


def measured_cost_ratio(fine, coarse, u0: np.ndarray) -> float:
    """Fine/coarse cost ratio of one RHS evaluation (``ratio_theta``).

    The mean over :data:`COST_SAMPLES` computed evaluations per level,
    after one unmeasured warm-up each.  Every measured evaluation gets a
    state of its own (a seeded jitter of ``u0``): a repeated state would
    be answered from the evaluators' field memo and not be timed, and a
    state shared by the levels would bill the tree build and the moments
    to whichever level went first.
    """
    rng = np.random.default_rng(0)
    for problem in (fine, coarse):
        problem.rhs(0.0, u0)  # warm-up, not measured
        problem.evaluator.reset_stats()
    for _ in range(COST_SAMPLES):
        for problem in (fine, coarse):
            problem.rhs(0.0, u0 + 1e-9 * rng.standard_normal(u0.shape))
    return fine.evaluator.mean_cost / coarse.evaluator.mean_cost


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


def paper_alpha(theta_cost_ratio: float) -> float:
    """Eq. 26 for :func:`~repro.pfasst.level.paper_levels`, from a
    fine/coarse RHS cost ratio such as :func:`measured_cost_ratio`'s."""
    return alpha_from_measurements(COARSE_NODES, FINE_NODES, theta_cost_ratio)


def paper_speedup(p_t: int | np.ndarray, alpha: float) -> np.ndarray:
    """Eq. 24 for Fig. 8's PFASST(2, 2, P_T) over SDC(4)."""
    return speedup_two_level(p_t, alpha, KS, KP, COARSE_SWEEPS)


def serial_sdc_makespan(fine, u0: np.ndarray, n_steps: int,
                        dt: float) -> float:
    """Fig. 8's baseline: virtual seconds of time-serial SDC(4) over
    ``n_steps`` steps of ``dt`` on one rank, compute measured."""
    def rank_program(comm):
        SDCStepper(fine, num_nodes=FINE_NODES, sweeps=KS).run(
            u0, 0.0, n_steps * dt, dt)
        yield comm.work(0.0)

    sched = Scheduler(1, measure_compute=True)
    sched.run(rank_program)
    return sched.makespan


def paper_pfasst_run(fine, coarse, u0: np.ndarray, n_steps: int, dt: float,
                     p_time: int, p_nodes: int, sweeper: str,
                     measure_compute: bool) -> PfasstResult:
    """Fig. 8's parallel side: PFASST(2, 2, ``p_time``) on
    :func:`~repro.pfasst.level.paper_levels` over the steps of
    :func:`serial_sdc_makespan`, with modelled message costs; under
    ``measure_compute`` its ``makespan`` is comparable to the baseline."""
    config = PfasstConfig(t0=0.0, t_end=n_steps * dt, n_steps=n_steps,
                          iterations=KP)
    return run_pfasst(config, paper_levels(fine, coarse, sweeper), u0,
                      p_time=p_time, p_nodes=p_nodes,
                      cost_model=CommCostModel(),
                      measure_compute=measure_compute)
