"""Time-serial SDC integration (the paper's ``SDC(K)`` baseline).

``SDC(K)`` performs ``K`` correction sweeps per time step on top of a
spread provisional solution; with a first-order corrector the result is
formally ``O(dt^K)`` accurate (bounded by the quadrature order).  This is
the serial reference against which PFASST speedup is measured (Eq. 21).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.sdc.quadrature import QuadratureRule, make_rule
from repro.sdc.sweeper import make_sweeper
from repro.utils.validation import check_positive, uniform_step_count
from repro.vortex.problem import ODEProblem

__all__ = ["SDCStepper", "SDCRunStats"]


@dataclass
class SDCRunStats:
    """Aggregate statistics of an SDC integration run."""

    steps: int = 0
    sweeps: int = 0
    residuals: List[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


class SDCStepper:
    """Serial SDC time stepper.

    Parameters
    ----------
    problem :
        The initial value problem.
    num_nodes :
        Number of collocation nodes per step (paper: 3 Gauss-Lobatto).
    sweeps :
        Correction sweeps per step (``K`` in ``SDC(K)``).
    node_type :
        Collocation family (default ``"lobatto"``).
    residual_tol :
        Optional early exit: stop sweeping once the collocation residual
        falls below this tolerance (positive when given).
    sweeper :
        ``"gauss-seidel"`` (the node-to-node substitution chain, default)
        or ``"diagonal"`` (the PFASST-ER Jacobi-style
        :class:`~repro.sdc.diagonal.DiagonalSDCSweeper`, whose node
        updates are mutually independent).
    """

    def __init__(
        self,
        problem: ODEProblem,
        num_nodes: int = 3,
        sweeps: int = 4,
        node_type: str = "lobatto",
        residual_tol: Optional[float] = None,
        sweeper: str = "gauss-seidel",
    ) -> None:
        if sweeps < 1:
            raise ValueError(f"need at least 1 sweep, got {sweeps}")
        if residual_tol is not None:
            check_positive("residual_tol", residual_tol)
        self.problem = problem
        self.rule: QuadratureRule = make_rule(num_nodes, node_type)
        self.sweeper = make_sweeper(problem, self.rule, sweeper)
        self.sweeps = int(sweeps)
        self.residual_tol = residual_tol
        self.stats = SDCRunStats()

    def step(self, t0: float, dt: float, u0: np.ndarray) -> np.ndarray:
        """Advance one time step ``[t0, t0 + dt]``."""
        return self._advance(t0, dt, u0, None)[0]

    def _advance(self, t0, dt, u0, f0):
        """One step from ``u0`` and its RHS ``f0`` (``None``: evaluate it);
        returns the end value and its RHS at ``t0 + dt`` (the next
        step's ``f0``)."""
        U, F = self.sweeper.initialize(t0, dt, u0, f0=f0)
        f0 = F[0]
        residual = float("inf")
        for _ in range(self.sweeps):
            U, F = self.sweeper.sweep(t0, dt, U, F, u0=u0, f0=f0)
            self.stats.sweeps += 1
            if self.residual_tol is not None:
                residual = self.sweeper.residual(dt, U, F, u0)
                if residual <= self.residual_tol:
                    break
        if self.residual_tol is None:
            residual = self.sweeper.residual(dt, U, F, u0)
        self.stats.steps += 1
        self.stats.residuals.append(residual)
        return U[-1], F[-1]

    def run(
        self,
        u0: np.ndarray,
        t0: float,
        t_end: float,
        dt: float,
        callback: Optional[Callable[[float, np.ndarray], None]] = None,
    ) -> np.ndarray:
        """Integrate over ``[t0, t_end]`` with uniform steps of size ``dt``.

        A step's last evaluation is the next step's ``f0`` (whenever the
        two times agree bit for bit), so each step after the first makes
        one call fewer.
        """
        n_steps = uniform_step_count(t0, t_end, dt)
        u = np.asarray(u0, dtype=np.float64).copy()
        if callback is not None:
            callback(t0, u)
        f, t_prev = None, None
        for k in range(n_steps):
            t = t0 + k * dt
            u, f = self._advance(t, dt, u, f if t == t_prev else None)
            t_prev = t + dt
            if callback is not None:
                callback(t + dt, u)
        return u
