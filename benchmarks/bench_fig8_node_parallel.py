"""Fig. 8 extended to the third dimension — P_T x P_N speedup study.

The paper parallelizes time (PFASST) and space (PEPC) but runs the
method itself serially: within one sweep the Gauss-Seidel substitution
visits the collocation nodes one after another.  PFASST-ER replaces the
lower-triangular preconditioner with a diagonal one, making the node
updates mutually independent — a third process-grid dimension ``P_N``
on top of the paper's ``P_T x P_S``.  This benchmark reruns the Fig. 8
speedup measurement on the 3D grid: time-serial SDC(4) is the baseline,
and PFASST(2,2,P_T) runs with the Gauss-Seidel sweeper (``P_N`` can
only shard the non-sweep RHS rounds: initialization, restriction and
interpolation re-evaluations) are compared against the diagonal sweeper
(``P_N`` shards *every* evaluation round, including the sweeps that
dominate the budget).

As in ``bench_fig8_speedup.py`` every rank executes the real tree code
(``measure_compute=True``) and the scheduler's virtual clocks measure
the pipeline makespan including modelled message costs.  Honesty about
cores, following ``bench_wallclock_grid.py``: the virtual makespan is a
critical-path projection — each rank's compute is measured on the host
but the ranks are *simulated* concurrently.  Every row therefore
carries ``"projected"``: ``false`` only when the host has at least
``p_time * p_nodes`` cores, so a 1-core CI host flags every parallel
row as projected.

Results go to ``BENCH_nodeparallel.json`` at the repository root.  Run
directly (``python benchmarks/bench_fig8_node_parallel.py``);
``--smoke`` shrinks the problem and additionally asserts the byte-
identity gate (Gauss-Seidel ``p_nodes=2`` bitwise equal to
``p_nodes=1``) before writing the file — the CI node-parallel job runs
exactly that.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from common import format_table, sheet_problem
from repro.obs.ledger import ComputeLedger
from repro.parallel import CommCostModel, Scheduler, simmpi
from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
from repro.sdc import DiagonalSDCSweeper, SDCStepper, make_rule
from repro.vortex import VortexProblem

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_nodeparallel.json"

KS, KP, N_COARSE = 4, 2, 2  # SDC(4) baseline, PFASST(2,2,.)
M_FINE, M_COARSE = 3, 2  # collocation nodes per level


@dataclass(frozen=True)
class NodeScale:
    n_particles: int
    n_steps: int
    dt: float
    #: (p_time, p_nodes) grid points; p_space enters as bookkeeping only
    combos: Sequence[Tuple[int, int]]
    theta_fine: float = 0.3
    theta_coarse: float = 0.6
    sigma_over_h: float = 3.0
    leaf_size: int = 48
    p_space_nodes: int = 512
    cores_per_node: int = 4


#: scale used by the pytest checks and ``--smoke``
TEST_SCALE = NodeScale(n_particles=300, n_steps=4, dt=0.5,
                       combos=((1, 1), (2, 1), (2, 3)))
CI_SCALE = NodeScale(n_particles=800, n_steps=8, dt=0.5,
                     combos=((1, 1), (2, 1), (2, 3), (4, 1), (4, 3),
                             (8, 3)))
PAPER_SCALE = NodeScale(n_particles=125_000, n_steps=32, dt=0.5,
                        combos=((1, 1), (8, 1), (8, 3), (16, 3), (32, 3)),
                        sigma_over_h=18.53)

SWEEPERS = ("gauss-seidel", "diagonal")


def _problems(scale: NodeScale):
    fine_problem, u0, _ = sheet_problem(
        scale.n_particles, evaluator="tree", theta=scale.theta_fine,
        leaf_size=scale.leaf_size, sigma_over_h=scale.sigma_over_h,
    )
    coarse_problem = fine_problem.coarsened(theta=scale.theta_coarse)
    return fine_problem, coarse_problem, u0


def _specs(fine_problem, coarse_problem, sweeper: str):
    return [
        LevelSpec(fine_problem, num_nodes=M_FINE, sweeps=1,
                  sweeper=sweeper),
        LevelSpec(coarse_problem, num_nodes=M_COARSE, sweeps=N_COARSE,
                  sweeper=sweeper),
    ]


def measure_serial_time(scale: NodeScale) -> float:
    """Virtual wall-clock of time-serial SDC(4) on one rank."""
    fine_problem, _, u0 = _problems(scale)

    def rank_program(comm):
        stepper = SDCStepper(fine_problem, num_nodes=M_FINE, sweeps=KS)
        stepper.run(u0, 0.0, scale.n_steps * scale.dt, scale.dt)
        yield comm.work(0.0)

    sched = Scheduler(1, measure_compute=True)
    sched.run(rank_program)
    return sched.makespan


def run_grid(scale: NodeScale, sweeper: str, p_time: int, p_nodes: int,
             measure: bool = True):
    """One PFASST(2,2,p_time) run on the P_T x 1 x P_N grid."""
    fine_problem, coarse_problem, u0 = _problems(scale)
    cfg = PfasstConfig(
        t0=0.0, t_end=scale.n_steps * scale.dt, n_steps=scale.n_steps,
        iterations=KP,
    )
    return run_pfasst(
        cfg, _specs(fine_problem, coarse_problem, sweeper), u0,
        p_time=p_time, p_nodes=p_nodes,
        cost_model=CommCostModel(), measure_compute=measure,
    )


#: modelled seconds of one RHS evaluation in :func:`counted_makespan`
RHS_CHARGE_S = 0.01


class _RhsClock:
    """Stand-in for the scheduler's ``perf_counter``: the RHS calls made
    so far times a fixed charge."""

    def __init__(self, charge: float) -> None:
        self.calls, self.charge = 0, charge

    def __call__(self) -> float:
        return self.calls * self.charge


def counted_makespan(monkeypatch, sweeper: str, p_nodes: int) -> float:
    """Virtual makespan of :func:`run_grid` on ``TEST_SCALE`` (P_T = 2)
    with counted instead of measured compute.

    The scheduler charges a rank the ``perf_counter`` time between its
    yields; here that clock advances by ``RHS_CHARGE_S`` per RHS call
    and nothing else, so the makespan is the critical path of RHS calls
    plus modelled message costs and repeats exactly.  A shared-cache hit
    is a call a real rank would compute, so it is counted, and the
    cache's wall-time bill for it is dropped.
    """
    clock = _RhsClock(RHS_CHARGE_S)
    rhs = VortexProblem.rhs

    def counted(self, t, u):
        clock.calls += 1
        return rhs(self, t, u)

    monkeypatch.setattr(VortexProblem, "rhs", counted)
    monkeypatch.setattr(simmpi, "perf_counter", clock)
    monkeypatch.setattr(ComputeLedger, "bill", lambda self, seconds: None)
    return run_grid(TEST_SCALE, sweeper, 2, p_nodes).makespan


def check_bitwise_gate(scale: NodeScale) -> None:
    """Node sharding must not change a single bit of the trajectory.

    A speedup of a *different* computation is meaningless, so the same
    gate that guards ``bench_wallclock_grid.py`` guards this study:
    Gauss-Seidel on ``p_nodes=2`` must reproduce ``p_nodes=1`` exactly.
    (Timing is irrelevant here, so compute measurement stays off.)
    """
    ref = run_grid(scale, "gauss-seidel", 2, 1, measure=False)
    res = run_grid(scale, "gauss-seidel", 2, 2, measure=False)
    if not np.array_equal(res.u_end, ref.u_end):
        raise RuntimeError("byte-identity gate failed: p_nodes=2 "
                           "changed u_end")
    if res.residuals != ref.residuals:
        raise RuntimeError("byte-identity gate failed: p_nodes=2 "
                           "changed the residual history")


def run_experiment(scale: NodeScale) -> Dict:
    serial = measure_serial_time(scale)
    cores = os.cpu_count() or 1
    rows: List[Dict] = []
    for sweeper in SWEEPERS:
        for p_t, p_n in scale.combos:
            res = run_grid(scale, sweeper, p_t, p_n)
            rows.append({
                "sweeper": sweeper,
                "p_time": p_t,
                "p_nodes": p_n,
                "world": p_t * p_n,
                "cores": (p_t * p_n * scale.p_space_nodes
                          * scale.cores_per_node),
                "makespan_s": round(res.makespan, 4),
                "speedup": round(serial / res.makespan, 4),
                "residual": float(max(r[-1] for r in res.residuals)),
                "projected": cores < p_t * p_n,
            })
    return {
        "serial_seconds": serial,
        "cores_available": cores,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# pytest checks (run by pointing pytest at benchmarks/)
# ---------------------------------------------------------------------------

def test_gauss_seidel_bitwise_identical_across_p_nodes():
    check_bitwise_gate(TEST_SCALE)  # raises on violation


def test_diagonal_gains_from_node_parallelism():
    """The point of the third dimension: with the diagonal sweeper the
    virtual makespan drops when the fine level's nodes are sharded."""
    one = run_grid(TEST_SCALE, "diagonal", 2, 1).makespan
    three = run_grid(TEST_SCALE, "diagonal", 2, 3).makespan
    assert three < one * 0.9


def test_gauss_seidel_gains_little_from_node_parallelism(monkeypatch):
    """Gauss-Seidel sweeps are node-sequential — ``P_N`` shards only
    the auxiliary RHS rounds, so the makespan barely moves (and must
    not *grow* materially either).  Compute is counted, not timed: two
    timed makespans this close differ by host noise alone."""
    one = counted_makespan(monkeypatch, "gauss-seidel", 1)
    three = counted_makespan(monkeypatch, "gauss-seidel", 3)
    assert three < one * 1.1


def test_rows_carry_projection_flag():
    res = run_experiment(TEST_SCALE)
    assert len(res["rows"]) == len(SWEEPERS) * len(TEST_SCALE.combos)
    for row in res["rows"]:
        assert row["projected"] == (
            res["cores_available"] < row["world"]
        )
        assert row["speedup"] > 0
        assert row["residual"] < 1.0


def test_benchmark_diagonal_sweep(benchmark):
    """Unit of work the node dimension shards: one diagonal sweep."""
    problem, u0, _ = sheet_problem(
        TEST_SCALE.n_particles, evaluator="tree",
        theta=TEST_SCALE.theta_fine,
        sigma_over_h=TEST_SCALE.sigma_over_h,
    )
    sw = DiagonalSDCSweeper(problem, make_rule(M_FINE))
    U, F = sw.initialize(0.0, TEST_SCALE.dt, u0)
    benchmark(lambda: sw.sweep(0.0, TEST_SCALE.dt, U, F, u0=u0))


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    if "--paper-scale" in argv:
        scale = PAPER_SCALE
    elif smoke:
        scale = TEST_SCALE
    else:
        scale = CI_SCALE
    if smoke:
        check_bitwise_gate(scale)
        print("byte-identity gate passed: gauss-seidel p_nodes=2 == "
              "p_nodes=1")
    res = run_experiment(scale)
    data = {
        "benchmark": "fig8_node_parallel",
        "description": "Fig. 8-style speedup over time-serial SDC(4) on "
                       "the P_T x 1 x P_N grid, Gauss-Seidel vs "
                       "PFASST-ER diagonal sweeper, virtual makespans "
                       "with measured compute",
        "config": {
            "n_particles": scale.n_particles,
            "n_steps": scale.n_steps,
            "dt": scale.dt,
            "theta": [scale.theta_fine, scale.theta_coarse],
            "iterations": KP,
            "coarse_sweeps": N_COARSE,
            "p_space_nodes": scale.p_space_nodes,
            "smoke": smoke,
        },
        "serial_seconds": round(res["serial_seconds"], 4),
        "cores_available": res["cores_available"],
        "results": res["rows"],
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    print(f"\nserial SDC(4): {res['serial_seconds']:.2f}s virtual, "
          f"{res['cores_available']} core(s) available")
    table = [
        (r["sweeper"], r["p_time"], r["p_nodes"], r["cores"],
         r["speedup"], "yes" if r["projected"] else "no")
        for r in res["rows"]
    ]
    print(format_table(
        ["sweeper", "P_T", "P_N", "cores", "speedup", "projected"],
        table,
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
