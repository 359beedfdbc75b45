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

from common import counted_makespan, format_table, sheet_problem, tree_pair
from repro.pfasst.level import COARSE_SWEEPS, FINE_NODES
from repro.pfasst.theory import KP, paper_pfasst_run, serial_sdc_makespan
from repro.sdc import DiagonalSDCSweeper, make_rule

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_nodeparallel.json"


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


def run_grid(scale: NodeScale, sweeper: str, p_time: int, p_nodes: int,
             measure: bool = True):
    """One PFASST(2,2,p_time) run on the P_T x 1 x P_N grid."""
    return paper_pfasst_run(*tree_pair(scale), scale.n_steps, scale.dt,
                            p_time, p_nodes, sweeper, measure_compute=measure)


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
    fine_problem, _, u0 = tree_pair(scale)
    serial = serial_sdc_makespan(fine_problem, u0, scale.n_steps, scale.dt)
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


def test_gauss_seidel_gains_little_from_node_parallelism():
    """Gauss-Seidel sweeps are node-sequential — ``P_N`` shards only
    the auxiliary RHS rounds, so the makespan barely moves (and must
    not *grow* materially either).  Compute is counted, not timed: two
    timed makespans this close differ by host noise alone."""
    one, three = (
        counted_makespan(lambda: run_grid(TEST_SCALE, "gauss-seidel", 2,
                                          p_nodes).makespan)
        for p_nodes in (1, 3)
    )
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
    sw = DiagonalSDCSweeper(problem, make_rule(FINE_NODES))
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
            "coarse_sweeps": COARSE_SWEEPS,
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
