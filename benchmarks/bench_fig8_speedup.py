"""Fig. 8 — speedup of PEPC+PFASST(2,2,P_T) over time-serial SDC(4).

Paper setup: spherical vortex sheet, dt = 0.5, tree code with theta = 0.3
(fine) / 0.6 (coarse), spatial parallelism fixed at its saturation point
(P_S = 512 nodes small / 2048 nodes large); speedup measured against
serial SDC(4) *on the same saturated spatial partition* as P_T grows to
32 (x-axis: total cores = P_T x P_S x 4).  Dashed line: theory Eq. 24
with alpha from the measured theta-cost ratio (Eq. 26).

Here the same algorithm runs on the simulated MPI: every rank executes
the *real* tree code (so per-sweep compute costs are real measured wall
time) and the scheduler's virtual clocks measure the pipeline's parallel
makespan, including modelled message costs.  The spatial dimension enters
exactly as in the paper — as a fixed multiplier on the core count and
through the measured fine/coarse evaluation-cost ratio.

Deviation note: the measured ratio between theta = 0.3 and theta = 0.6
runs of our NumPy tree code at CI particle counts is smaller than the
paper's Fortran-at-4M-particles factor (2.65-3.23), so alpha is larger
and the speedup saturates earlier; the *theory-tracks-measurement* claim
is scale-independent and is what the tests assert.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

import pytest

from common import counted_makespan, format_table, sheet_problem, tree_pair
from repro.pfasst.theory import (KP, KS, measured_cost_ratio, paper_alpha,
                                 paper_pfasst_run, paper_speedup,
                                 serial_sdc_makespan, speedup_bound)


@dataclass(frozen=True)
class SpeedupScale:
    n_particles: int
    n_steps: int
    dt: float
    p_times: Sequence[int]
    theta_fine: float = 0.3
    theta_coarse: float = 0.6
    sigma_over_h: float = 3.0
    leaf_size: int = 48
    #: modelled spatial ranks per time slice (x-axis bookkeeping only)
    p_space_nodes: int = 512
    cores_per_node: int = 4


#: scale used by the pytest checks — the smallest size at which the
#: theta cost ratio is reliably measurable above tree overheads
TEST_SCALE = SpeedupScale(n_particles=800, n_steps=4, dt=0.5,
                          p_times=(1, 4), p_space_nodes=512)
CI_SMALL = SpeedupScale(n_particles=800, n_steps=8, dt=0.5,
                        p_times=(1, 2, 4, 8), p_space_nodes=512)
CI_LARGE = SpeedupScale(n_particles=2500, n_steps=8, dt=0.5,
                        p_times=(1, 2, 4, 8), p_space_nodes=2048)
PAPER_SMALL = SpeedupScale(n_particles=125_000, n_steps=32, dt=0.5,
                           p_times=(1, 2, 4, 8, 16, 32),
                           sigma_over_h=18.53, p_space_nodes=512)
PAPER_LARGE = SpeedupScale(n_particles=4_000_000, n_steps=32, dt=0.5,
                           p_times=(1, 2, 4, 8, 16, 32),
                           sigma_over_h=18.53, p_space_nodes=2048)


def measure_serial_time(scale: SpeedupScale) -> float:
    """Virtual wall-clock of time-serial SDC(4) on one rank."""
    fine_problem, _, u0 = tree_pair(scale)
    return serial_sdc_makespan(fine_problem, u0, scale.n_steps, scale.dt)


def measure_pfasst_time(scale: SpeedupScale, p_time: int) -> float:
    """Virtual makespan of PFASST(2,2,p_time) over the same interval."""
    return paper_pfasst_run(*tree_pair(scale), scale.n_steps, scale.dt,
                            p_time, 1, "gauss-seidel",
                            measure_compute=True).makespan


def run_experiment(scale: SpeedupScale) -> Dict[str, List[float]]:
    ratio = measured_cost_ratio(*tree_pair(scale))
    alpha = paper_alpha(ratio)  # Eq. 26
    serial = measure_serial_time(scale)
    rows: Dict[str, List[float]] = {
        "p_time": [], "cores": [], "measured": [], "theory": [],
        "bound": [],
    }
    for p_t in scale.p_times:
        parallel = measure_pfasst_time(scale, p_t)
        rows["p_time"].append(p_t)
        rows["cores"].append(
            p_t * scale.p_space_nodes * scale.cores_per_node
        )
        rows["measured"].append(serial / parallel)
        rows["theory"].append(float(paper_speedup(p_t, alpha)))
        rows["bound"].append(float(speedup_bound(p_t, KS, KP)))
    rows["alpha"] = [alpha]
    rows["theta_ratio"] = [ratio]
    rows["serial_seconds"] = [serial]
    return rows


@pytest.fixture(scope="module")
def small_results():
    return run_experiment(TEST_SCALE)


def test_speedup_grows_with_time_parallelism():
    """The paper's headline: PFASST provides speedup beyond spatial
    saturation.  Compute is counted on both sides, not timed, so the
    speedups repeat exactly."""
    serial = counted_makespan(lambda: measure_serial_time(TEST_SCALE))
    measured = [
        serial / counted_makespan(lambda: measure_pfasst_time(TEST_SCALE, p))
        for p in TEST_SCALE.p_times
    ]
    assert measured[-1] > measured[0]
    assert measured[-1] > 1.0


def test_speedup_below_eq25_bound(small_results):
    for s, b in zip(small_results["measured"], small_results["bound"]):
        assert s <= b * 1.15  # small tolerance for timing noise


def test_measurement_tracks_theory(small_results):
    """Fig. 8: measured points follow S(P_T; alpha) within a factor."""
    for s, t in zip(small_results["measured"][1:],
                    small_results["theory"][1:]):
        assert 0.4 < s / t < 2.0


def test_theta_ratio_above_one(small_results):
    """Coarsening must actually be cheaper (Sec. IV-B)."""
    assert small_results["theta_ratio"][0] > 1.0


def test_benchmark_tree_rhs_fine_theta(benchmark):
    """The fine propagator's unit of work (one theta=0.3 evaluation)."""
    problem, u0, _ = sheet_problem(
        CI_SMALL.n_particles, evaluator="tree",
        theta=CI_SMALL.theta_fine, sigma_over_h=CI_SMALL.sigma_over_h,
    )
    benchmark(lambda: problem.rhs(0.0, u0))


def test_benchmark_tree_rhs_coarse_theta(benchmark):
    """The coarse propagator's unit of work (one theta=0.6 evaluation)."""
    problem, u0, _ = sheet_problem(
        CI_SMALL.n_particles, evaluator="tree",
        theta=CI_SMALL.theta_coarse, sigma_over_h=CI_SMALL.sigma_over_h,
    )
    benchmark(lambda: problem.rhs(0.0, u0))


def main(argv: List[str]) -> None:
    if "--paper-scale" in argv:
        setups = [("small", PAPER_SMALL), ("large", PAPER_LARGE)]
    else:
        setups = [("small", CI_SMALL), ("large", CI_LARGE)]
    for name, scale in setups:
        res = run_experiment(scale)
        print(f"\nFig. 8{'a' if name == 'small' else 'b'} — {name} setup "
              f"(N={scale.n_particles}, {scale.n_steps} steps, "
              f"theta {scale.theta_fine}/{scale.theta_coarse})")
        print(f"measured theta cost ratio: {res['theta_ratio'][0]:.2f} "
              f"(paper: {'2.65' if name == 'small' else '3.23'}), "
              f"alpha = {res['alpha'][0]:.3f}, serial SDC(4) = "
              f"{res['serial_seconds'][0]:.2f}s virtual")
        rows = list(zip(res["p_time"], res["cores"], res["measured"],
                        res["theory"], res["bound"]))
        print(format_table(
            ["P_T", "cores", "S measured", "S theory Eq.24",
             "bound Eq.25"], rows,
        ))


if __name__ == "__main__":
    main(sys.argv[1:])
