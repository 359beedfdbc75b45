"""Classical time-serial integrators used as baselines.

The paper's Fig. 1 evolves the vortex sheet with a second-order Runge-Kutta
scheme, and Sec. II notes that third/fourth-order RK is the classical choice
for vortex methods.  These integrators operate on the same
:class:`~repro.vortex.problem.ODEProblem` interface as SDC/PFASST so every
driver is interchangeable in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import uniform_step_count
from repro.vortex.problem import ODEProblem

__all__ = [
    "ButcherTableau",
    "RungeKutta",
    "forward_euler",
    "rk2_midpoint",
    "rk2_heun",
    "rk3_ssp",
    "rk4_classic",
    "get_integrator",
    "available_integrators",
    "integrate",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau (strictly lower-triangular ``a``)."""

    name: str
    order: int
    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    c: Tuple[float, ...]

    def __post_init__(self) -> None:
        s = len(self.b)
        if len(self.c) != s or len(self.a) != s:
            raise ValueError(f"tableau {self.name!r} has inconsistent stage counts")
        for i, row in enumerate(self.a):
            if len(row) != s:
                raise ValueError(f"tableau {self.name!r} row {i} has wrong length")
            if any(row[j] != 0.0 for j in range(i, s)):
                raise ValueError(f"tableau {self.name!r} is not explicit")
        if abs(sum(self.b) - 1.0) > 1e-13:
            raise ValueError(f"tableau {self.name!r} weights do not sum to 1")

    @property
    def stages(self) -> int:
        return len(self.b)


class RungeKutta:
    """Explicit RK stepper over an :class:`ODEProblem`."""

    def __init__(self, tableau: ButcherTableau) -> None:
        self.tableau = tableau

    @property
    def name(self) -> str:
        return self.tableau.name

    @property
    def order(self) -> int:
        return self.tableau.order

    def step(self, problem: ODEProblem, t: float, dt: float, u: np.ndarray) -> np.ndarray:
        """Advance one step ``t -> t + dt``."""
        tab = self.tableau
        k: List[np.ndarray] = []
        for i in range(tab.stages):
            ui = u
            for j in range(i):
                aij = tab.a[i][j]
                if aij != 0.0:
                    ui = ui + dt * aij * k[j]
            k.append(problem.rhs(t + tab.c[i] * dt, ui))
        out = u.copy()
        for bi, ki in zip(tab.b, k):
            if bi != 0.0:
                out = out + dt * bi * ki
        return out

    def run(
        self,
        problem: ODEProblem,
        u0: np.ndarray,
        t0: float,
        t_end: float,
        dt: float,
        callback: Optional[Callable[[float, np.ndarray], None]] = None,
    ) -> np.ndarray:
        """Integrate from ``t0`` to ``t_end`` with uniform steps.

        ``t_end - t0`` must be an integer multiple of ``dt`` (to round-off).
        """
        return integrate(self.step, problem, u0, t0, t_end, dt, callback)


def integrate(
    step: Callable[[ODEProblem, float, float, np.ndarray], np.ndarray],
    problem: ODEProblem,
    u0: np.ndarray,
    t0: float,
    t_end: float,
    dt: float,
    callback: Optional[Callable[[float, np.ndarray], None]] = None,
) -> np.ndarray:
    """Drive any single-step method over a uniform time grid."""
    n_steps = uniform_step_count(t0, t_end, dt)
    u = u0.copy()
    t = t0
    if callback is not None:
        callback(t, u)
    for step_index in range(n_steps):
        u = step(problem, t, dt, u)
        t = t0 + (step_index + 1) * dt
        if callback is not None:
            callback(t, u)
    return u


forward_euler = ButcherTableau(
    name="euler", order=1, a=((0.0,),), b=(1.0,), c=(0.0,)
)

rk2_midpoint = ButcherTableau(
    name="rk2",
    order=2,
    a=((0.0, 0.0), (0.5, 0.0)),
    b=(0.0, 1.0),
    c=(0.0, 0.5),
)

rk2_heun = ButcherTableau(
    name="rk2_heun",
    order=2,
    a=((0.0, 0.0), (1.0, 0.0)),
    b=(0.5, 0.5),
    c=(0.0, 1.0),
)

rk3_ssp = ButcherTableau(
    name="rk3",
    order=3,
    a=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.25, 0.25, 0.0)),
    b=(1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
    c=(0.0, 1.0, 0.5),
)

rk4_classic = ButcherTableau(
    name="rk4",
    order=4,
    a=(
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.0, 0.0, 0.0),
        (0.0, 0.5, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
    ),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    c=(0.0, 0.5, 0.5, 1.0),
)

_TABLEAUS: Dict[str, ButcherTableau] = {
    t.name: t
    for t in (forward_euler, rk2_midpoint, rk2_heun, rk3_ssp, rk4_classic)
}


def available_integrators() -> Tuple[str, ...]:
    return tuple(sorted(_TABLEAUS))


def get_integrator(name: str) -> RungeKutta:
    """Look up an explicit RK integrator by name (``euler``/``rk2``/...)."""
    try:
        return RungeKutta(_TABLEAUS[name])
    except KeyError:
        raise ValueError(
            f"unknown integrator {name!r}; available: {available_integrators()}"
        ) from None
