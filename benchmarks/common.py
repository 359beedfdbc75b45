"""Shared helpers for the paper-reproduction benchmark harness.

Every ``bench_*.py`` file reproduces one table or figure of the paper
(see DESIGN.md for the index).  Each file offers:

* ``run_experiment(scale)`` — produces the figure/table data as plain
  Python structures;
* ``test_*`` functions — pytest checks asserting the paper's qualitative
  *shape* (orders, orderings, crossovers) at a small scale, plus at least
  one ``pytest-benchmark`` timing of the underlying kernel;
* a ``main()`` CLI — prints the full table (used to fill EXPERIMENTS.md):
  ``python benchmarks/bench_xxx.py [--paper-scale]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
import pytest

from repro.obs.ledger import ComputeLedger
from repro.parallel import simmpi
from repro.sdc import SDCStepper
from repro.vortex import (
    DirectEvaluator,
    ParticleSystem,
    SheetConfig,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)

__all__ = [
    "Scale",
    "sheet_problem",
    "tree_pair",
    "counted_makespan",
    "reference_solution",
    "rel_max_position_error",
    "observed_orders",
    "format_table",
]


@dataclass(frozen=True)
class Scale:
    """Experiment scale knobs (defaults are CI-friendly).

    ``sigma_over_h``: the paper's core/spacing ratio is 18.53, which at
    paper particle counts (10k+) gives sigma ~ 0.66.  At CI particle
    counts that ratio would smooth the field into near-rigid motion and
    push all integrators to the round-off floor, so scaled runs shrink
    the ratio to keep sigma (and hence the field's roughness) at
    paper-like *absolute* values.  Paper-scale runs use 18.53.
    """

    n_particles: int
    t_end: float
    dts: Sequence[float]
    ref_dt: float
    sigma_over_h: float = 3.0


def sheet_problem(n: int, evaluator: str = "direct", theta: float = 0.3,
                  leaf_size: int = 48, sigma_over_h: float = 3.0):
    """Build the paper's model problem: spherical vortex sheet + RHS.

    Returns ``(problem, u0, sheet_config)``.
    """
    cfg = SheetConfig(n=n, sigma_over_h=sigma_over_h)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    if evaluator == "direct":
        ev = DirectEvaluator(kernel, cfg.sigma)
    elif evaluator == "tree":
        from repro.tree import TreeEvaluator

        ev = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=leaf_size)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    problem = VortexProblem(ps.volumes, ev)
    return problem, ps.state(), cfg


def tree_pair(scale):
    """Fig. 8's problem pair ``(fine, coarse, u0)``: the sheet of
    ``scale.n_particles`` on tree evaluators at ``scale.theta_fine`` and
    ``scale.theta_coarse``, the coarse one sharing the fine tree-state
    cache (one tree + moment pass per state, theta-specific traversals)."""
    fine, u0, _ = sheet_problem(
        scale.n_particles, evaluator="tree", theta=scale.theta_fine,
        leaf_size=scale.leaf_size, sigma_over_h=scale.sigma_over_h,
    )
    return fine, fine.coarsened(theta=scale.theta_coarse), u0


#: modelled seconds of one RHS evaluation in :func:`counted_makespan`
RHS_CHARGE_S = 0.01


class _RhsClock:
    """Stand-in for the scheduler's ``perf_counter``: the RHS calls made
    so far times a fixed charge."""

    def __init__(self, charge: float) -> None:
        self.calls, self.charge = 0, charge

    def __call__(self) -> float:
        return self.calls * self.charge


def counted_makespan(run: Callable[[], float]) -> float:
    """The virtual makespan ``run()`` returns, with counted instead of
    measured compute.

    The scheduler charges a rank the ``perf_counter`` time between its
    yields; here that clock advances by ``RHS_CHARGE_S`` per
    ``VortexProblem.rhs`` call (fine or coarse) and nothing else, so the
    makespan is the critical path of RHS calls plus modelled message
    costs and repeats exactly.  A shared-cache hit is a call a real rank
    would compute, so it is counted, and the cache's wall-time bill for
    it is dropped.
    """
    clock = _RhsClock(RHS_CHARGE_S)
    rhs = VortexProblem.rhs

    def counted(self, t, u):
        clock.calls += 1
        return rhs(self, t, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VortexProblem, "rhs", counted)
        mp.setattr(simmpi, "perf_counter", clock)
        mp.setattr(ComputeLedger, "bill", lambda self, seconds: None)
        return run()


def reference_solution(problem, u0, t_end: float, ref_dt: float) -> np.ndarray:
    """Paper Sec. IV-A reference: 8 sweeps of SDC on 5 Gauss-Lobatto
    nodes with a very fine step."""
    stepper = SDCStepper(problem, num_nodes=5, sweeps=8)
    return stepper.run(u0, 0.0, t_end, ref_dt)


def rel_max_position_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Relative maximum error of the particle positions (paper metric)."""
    diff = np.max(np.abs(u[0] - u_ref[0]))
    scale = np.max(np.abs(u_ref[0]))
    return float(diff / scale)


def observed_orders(dts: Sequence[float], errors: Sequence[float]) -> List[float]:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(dt_i/dt_{i+1})."""
    out = []
    for i in range(len(dts) - 1):
        out.append(
            math.log(errors[i] / errors[i + 1])
            / math.log(dts[i] / dts[i + 1])
        )
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table for benchmark CLIs."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4g}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
