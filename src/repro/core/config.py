"""Run configuration for the space-time parallel solver facade."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.sdc.sweeper import SWEEPERS
from repro.utils.validation import check_in, check_positive

__all__ = ["SpaceConfig", "TimeConfig", "SolverConfig"]

EvaluatorKind = Literal["direct", "tree"]
Method = Literal["euler", "rk2", "rk3", "rk4", "sdc", "pfasst"]


@dataclass(frozen=True)
class SpaceConfig:
    """Spatial (RHS evaluation) parameters.

    ``theta_coarse`` only matters for PFASST: it defines the cheaper coarse
    propagator via the multipole acceptance criterion — the paper's
    particle-based coarsening (0.3 fine / 0.6 coarse in Sec. IV-B).
    """

    evaluator: EvaluatorKind = "tree"
    kernel: str = "algebraic6"
    theta: float = 0.3
    theta_coarse: float = 0.6
    multipole_order: int = 2
    leaf_size: int = 48
    stretching: Literal["transpose", "classical"] = "transpose"

    def __post_init__(self) -> None:
        check_in("evaluator", self.evaluator, ("direct", "tree"))
        if self.theta < 0 or self.theta_coarse < 0:
            raise ValueError("theta values must be >= 0")
        check_in("multipole_order", self.multipole_order, (0, 1, 2))


@dataclass(frozen=True)
class TimeConfig:
    """Temporal integration parameters.

    ``method="pfasst"`` maps to the paper's ``PFASST(X, Y, P_T)`` with
    ``X = iterations``, ``Y = coarse_sweeps``, ``P_T = p_time``.
    ``p_nodes > 1`` adds the third grid dimension (PFASST-ER): each time
    rank becomes a group of ``p_nodes`` ranks sharding the collocation
    nodes; ``sweeper="diagonal"`` makes the sweep updates themselves
    node-parallel.
    """

    method: Method = "sdc"
    t0: float = 0.0
    t_end: float = 4.0
    dt: float = 0.5
    # SDC / PFASST fine level
    num_nodes: int = 3
    sweeps: int = 4
    node_type: str = "lobatto"
    sweeper: str = "gauss-seidel"
    # PFASST
    iterations: int = 2
    coarse_nodes: int = 2
    coarse_sweeps: int = 2
    p_time: int = 4
    p_nodes: int = 1
    residual_tol: Optional[float] = None

    def __post_init__(self) -> None:
        check_in(
            "method", self.method, ("euler", "rk2", "rk3", "rk4", "sdc", "pfasst")
        )
        check_in("sweeper", self.sweeper, SWEEPERS)
        if self.p_nodes < 1:
            raise ValueError(f"p_nodes must be >= 1, got {self.p_nodes}")
        check_positive("dt", self.dt)
        if not self.t_end > self.t0:
            raise ValueError("t_end must be > t0")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t0
        n = int(round(span / self.dt))
        if abs(n * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(
                f"(t_end - t0) = {span} is not an integer multiple of dt = {self.dt}"
            )
        return n


@dataclass(frozen=True)
class SolverConfig:
    """Complete space-time solver configuration."""

    space: SpaceConfig = field(default_factory=SpaceConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
