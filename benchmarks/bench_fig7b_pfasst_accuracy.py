"""Fig. 7b — PFASST accuracy vs serial SDC (direct solver).

Paper: PFASST(X, Y, P_T) with X iterations, Y = 2 coarse sweeps, 3 fine +
2 coarse Gauss-Lobatto nodes, compared against SDC(3) and SDC(4).
Expected shape: one PFASST iteration tracks SDC(3); two iterations track
SDC(4); the number of time slices (8 vs 16) barely changes the error.

Scaled default: N = 150, T = 2, P_T in {4, 8} (multi-block when dt is
large).  The paper's P_T in {8, 16} is available via --paper-scale.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from common import (
    Scale,
    format_table,
    observed_orders,
    reference_solution,
    rel_max_position_error,
    sheet_problem,
)
from repro.pfasst import LevelSpec, PfasstConfig, paper_levels, run_pfasst
from repro.sdc import SDCStepper

CI_SCALE = Scale(n_particles=150, t_end=2.0, dts=(0.5, 0.25),
                 ref_dt=0.025, sigma_over_h=3.0)
PAPER_SCALE = Scale(n_particles=10_000, t_end=16.0, dts=(1.0, 0.5, 0.25),
                    ref_dt=0.01, sigma_over_h=18.53)

#: PFASST(X, Y=2, P_T) variants of Fig. 7b, scaled P_T
CI_VARIANTS: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 4), (1, 2, 8), (2, 2, 4), (2, 2, 8),
)
PAPER_VARIANTS: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 8), (1, 2, 16), (2, 2, 8), (2, 2, 16),
)


def run_experiment(
    scale: Scale = CI_SCALE,
    variants: Sequence[Tuple[int, int, int]] = CI_VARIANTS,
) -> Dict[str, List[float]]:
    """Error-vs-dt curves for SDC(3), SDC(4) and the PFASST variants."""
    problem, u0, _ = sheet_problem(scale.n_particles,
                                   sigma_over_h=scale.sigma_over_h)
    u_ref = reference_solution(problem, u0, scale.t_end, scale.ref_dt)
    curves: Dict[str, List[float]] = {}
    for sweeps in (3, 4):
        errors = []
        for dt in scale.dts:
            u = SDCStepper(problem, num_nodes=3, sweeps=sweeps).run(
                u0, 0.0, scale.t_end, dt
            )
            errors.append(rel_max_position_error(u, u_ref))
        curves[f"SDC({sweeps})"] = errors
    for x, y, p_t in variants:
        errors = []
        for dt in scale.dts:
            n_steps = int(round(scale.t_end / dt))
            if n_steps % p_t:
                errors.append(float("nan"))
                continue
            cfg = PfasstConfig(t0=0.0, t_end=scale.t_end, n_steps=n_steps,
                               iterations=x)
            specs = [
                LevelSpec(problem, num_nodes=3, sweeps=1),
                LevelSpec(problem, num_nodes=2, sweeps=y),
            ]
            res = run_pfasst(cfg, specs, u0, p_time=p_t)
            errors.append(rel_max_position_error(res.u_end, u_ref))
        curves[f"PFASST({x},{y},{p_t})"] = errors
    return curves


@pytest.fixture(scope="module")
def curves():
    return run_experiment(CI_SCALE, CI_VARIANTS)


def test_two_iterations_track_sdc4(curves):
    """Fig. 7b: PFASST(2,2,.) reaches SDC(4)-comparable accuracy."""
    for p_t in (4, 8):
        for i, dt in enumerate(CI_SCALE.dts):
            if np.isnan(curves[f"PFASST(2,2,{p_t})"][i]):
                continue
            assert curves[f"PFASST(2,2,{p_t})"][i] < 10 * curves["SDC(4)"][i]


def test_one_iteration_tracks_sdc3(curves):
    """Fig. 7b: PFASST(1,2,.) is a good approximation to SDC(3)."""
    for p_t in (4, 8):
        for i in range(len(CI_SCALE.dts)):
            val = curves[f"PFASST(1,2,{p_t})"][i]
            if np.isnan(val):
                continue
            assert val < 10 * curves["SDC(3)"][i]


def test_second_iteration_improves_accuracy(curves):
    for p_t in (4, 8):
        for i in range(len(CI_SCALE.dts)):
            one = curves[f"PFASST(1,2,{p_t})"][i]
            two = curves[f"PFASST(2,2,{p_t})"][i]
            if np.isnan(one) or np.isnan(two):
                continue
            assert two < one


def test_slice_count_insensitivity(curves):
    """Doubling P_T changes the error by at most ~an order of magnitude
    (the paper's 8 vs 16 curves nearly coincide)."""
    for x in (1, 2):
        for i in range(len(CI_SCALE.dts)):
            a = curves[f"PFASST({x},2,4)"][i]
            b = curves[f"PFASST({x},2,8)"][i]
            if np.isnan(a) or np.isnan(b):
                continue
            assert 0.05 < a / b < 20.0


def test_benchmark_pfasst_block(benchmark):
    """Timing of one PFASST(2,2,4) block on the model problem."""
    problem, u0, _ = sheet_problem(CI_SCALE.n_particles,
                                   sigma_over_h=CI_SCALE.sigma_over_h)
    cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=2)
    specs = paper_levels(problem, problem, "gauss-seidel")
    benchmark(lambda: run_pfasst(cfg, specs, u0, p_time=4))


def main(argv: List[str]) -> None:
    paper = "--paper-scale" in argv
    scale = PAPER_SCALE if paper else CI_SCALE
    variants = PAPER_VARIANTS if paper else CI_VARIANTS
    curves = run_experiment(scale, variants)
    names = list(curves)
    rows = []
    for i, dt in enumerate(scale.dts):
        rows.append([dt] + [curves[n][i] for n in names])
    print("Fig. 7b — relative max position error vs dt "
          f"(N={scale.n_particles}, T={scale.t_end})")
    print(format_table(["dt"] + names, rows))


if __name__ == "__main__":
    main(sys.argv[1:])
