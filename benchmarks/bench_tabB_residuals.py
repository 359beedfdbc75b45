"""Tab. B (inline, Sec. IV-B) — PFASST residuals with MAC coarsening.

Paper numbers: with P_T = 2 slices, PFASST(2,2) residuals after the last
iteration are 1.93e-5 / 1.90e-5 per slice when *both* levels use theta =
0.3, and 1.93e-5 / 5.22e-5 when the coarse level is relaxed to theta =
0.6; with P_T = 32 the first/last slice residuals are 6.64e-7 / 1.1e-6.
Conclusion drawn in the paper: coarsening via the MAC does not inhibit
PFASST's convergence.

This benchmark reproduces exactly that comparison on our tree code:
same-theta vs coarsened-theta residual per slice, plus a larger-P_T run.
"""

from __future__ import annotations

import sys
from typing import Dict, List

import numpy as np
import pytest

from common import format_table, sheet_problem
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst

N_CI, N_PAPER = 600, 125_000
LARGE_PT_CI, LARGE_PT_PAPER = 8, 32


def run_residuals(n: int, p_time: int, theta_coarse: float,
                  sigma_over_h: float = 4.0) -> List[float]:
    """Final-iteration residual on each time slice of one PFASST block."""
    fine_problem, u0, cfg = sheet_problem(
        n, evaluator="tree", theta=0.3, sigma_over_h=sigma_over_h
    )
    # coarse level shares the fine tree-state cache (theta-coarsening only)
    coarse_problem = fine_problem.coarsened(theta=theta_coarse)
    config = PfasstConfig(t0=0.0, t_end=0.5 * p_time, n_steps=p_time,
                          iterations=2)
    specs = paper_levels(fine_problem, coarse_problem, "gauss-seidel")
    res = run_pfasst(config, specs, u0, p_time=p_time)
    return [r[-1] for r in res.residuals]


@pytest.fixture(scope="module")
def residuals():
    return {
        "same": run_residuals(N_CI, 2, theta_coarse=0.3),
        "coarsened": run_residuals(N_CI, 2, theta_coarse=0.6),
        "large_pt": run_residuals(N_CI, LARGE_PT_CI, theta_coarse=0.6,
                                  sigma_over_h=6.0),
    }


def test_residuals_are_small(residuals):
    """PFASST(2,2,2) converges toward the SDC solution (paper: ~1e-5)."""
    for key in ("same", "coarsened"):
        assert max(residuals[key]) < 1e-3


def test_coarsening_does_not_inhibit_convergence(residuals):
    """The paper's conclusion: theta-coarsening costs at most a small
    factor in the residual (1.90e-5 -> 5.22e-5 there)."""
    same = max(residuals["same"])
    coarsened = max(residuals["coarsened"])
    assert coarsened < 50 * same


def test_first_slice_converges_deepest(residuals):
    """Paper P_T = 32 run: residual 6.64e-7 on slice 1 vs 1.1e-6 on the
    last slice — earlier slices see more effective iterations."""
    r = residuals["large_pt"]
    assert r[0] <= r[-1]


def test_large_pt_still_converges(residuals):
    assert max(residuals["large_pt"]) < 1e-2


def test_benchmark_pfasst22_two_slices(benchmark):
    fine_problem, u0, cfg = sheet_problem(N_CI, evaluator="tree",
                                          theta=0.3)
    coarse_problem = fine_problem.coarsened(theta=0.6)
    config = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=2)
    specs = paper_levels(fine_problem, coarse_problem, "gauss-seidel")
    benchmark(lambda: run_pfasst(config, specs, u0, p_time=2))


def main(argv: List[str]) -> None:
    paper = "--paper-scale" in argv
    n = N_PAPER if paper else N_CI
    large_pt = LARGE_PT_PAPER if paper else LARGE_PT_CI
    soh = 18.53 if paper else 4.0
    soh_big = 18.53 if paper else 6.0

    same = run_residuals(n, 2, 0.3, soh)
    coarsened = run_residuals(n, 2, 0.6, soh)
    print("Tab. B — PFASST(2,2,2) residuals per slice "
          f"(N={n})")
    print(format_table(
        ["slice", "theta 0.3/0.3", "theta 0.3/0.6",
         "paper 0.3/0.3", "paper 0.3/0.6"],
        [[1, same[0], coarsened[0], 1.93e-5, 1.93e-5],
         [2, same[1], coarsened[1], 1.90e-5, 5.22e-5]],
    ))
    big = run_residuals(n, large_pt, 0.6, soh_big)
    print(f"\nPFASST(2,2,{large_pt}) first/last slice residuals: "
          f"{big[0]:.3e} / {big[-1]:.3e} "
          "(paper at P_T=32: 6.64e-7 / 1.1e-6)")


if __name__ == "__main__":
    main(sys.argv[1:])
