"""Fig. 5 — branch-exchange traffic of the *executed* space parallelism.

The paper's Fig. 5 shows PEPC's strong scaling on Blue Gene/P saturating
once the branch-node exchange overtakes the traversal.  This script
measures the quantities behind that curve directly from the
space-parallel evaluator (`repro.tree.parallel`): each P_S-rank world
really exchanges branch payloads over the simulated link, so branch
bytes, branch-node counts and exchange/wait spans come from counters and
virtual-time traces.  The qualitative Fig. 5 driver — total exchange
volume growing with P_S while per-rank compute shrinks — is asserted at
CI scale.  Core counts beyond P_S = 8 are not reproduced.

CLI::

    python benchmarks/bench_fig5_branch_exchange.py [--smoke]

``--smoke`` additionally runs the P_T=2 x P_S=2 PFASST grid against the
P_S=1 run and exits non-zero unless the solutions agree to 1e-12.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

import numpy as np
import pytest

from common import format_table
from repro.obs.tracer import Tracer
from repro.parallel import CommCostModel, Scheduler
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex.particles import pack_state
from repro.vortex.problem import VortexProblem

#: JUGENE-flavoured link: measured compute, modelled messages
LINK = CommCostModel(latency=3.5e-6, bandwidth=380e6, send_overhead=1e-6)

P_SWEEP = (1, 2, 4, 8)


def cloud(n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    charges = rng.normal(size=(n, 3)) * 0.1
    return positions, charges


def measure(n: int, p_space: int, theta: float = 0.3) -> Dict[str, float]:
    """One space-parallel field evaluation; returns measured Fig. 5 data."""
    positions, charges = cloud(n)
    evaluator = SpaceParallelTreeEvaluator(
        "algebraic2", sigma=0.05, theta=theta, leaf_size=16
    )

    def program(comm):
        field = yield from evaluator.field_program(
            comm, positions, charges, gradient=True
        )
        return field

    tracer = Tracer()
    sched = Scheduler(p_space, cost_model=LINK, tracer=tracer)
    sched.run(program)
    counters = sched.metrics.as_dict()["counters"]

    def span_total(name: str) -> float:
        return sum(s.t1 - s.t0 for s in tracer.spans if s.name == name)

    return {
        "p_space": p_space,
        "branch_bytes": counters.get("space.branch_bytes", 0),
        "branch_cells": sum(
            v for k, v in counters.items()
            if k.startswith("space.branch_cells")
        ),
        "makespan": max(sched.clocks),
        "exchange_s": span_total("space:branch-exchange"),
        "compute_s": span_total("space:compute"),
        "wait_s": span_total("wait:recv"),
    }


def run_experiment(
    n: int = 2000, p_list: Sequence[int] = P_SWEEP
) -> List[Dict[str, float]]:
    return [measure(n, p) for p in p_list]


def grid_equivalence(n: int = 120, seed: int = 3) -> float:
    """Max relative deviation of the P_T=2 x P_S=2 grid vs P_S=1."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    vorticity = rng.normal(size=(n, 3)) * 0.2
    volumes = np.full(n, 1.0 / n)
    u0 = pack_state(positions, vorticity)

    def specs():
        ev = SpaceParallelTreeEvaluator(
            "algebraic2", sigma=0.1, theta=0.3, leaf_size=16
        )
        fine = VortexProblem(volumes, ev)
        return [LevelSpec(fine, 3, sweeps=1),
                LevelSpec(fine.coarsened(0.6), 2, sweeps=1)]

    cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=3)
    ref = run_pfasst(cfg, specs(), u0, p_time=2, p_space=1)
    res = run_pfasst(cfg, specs(), u0, p_time=2, p_space=2)
    scale = float(np.abs(ref.u_end).max())
    return float(np.abs(res.u_end - ref.u_end).max()) / scale


# ----------------------------------------------------------------------
# pytest checks: the Fig. 5 shape from measured data
@pytest.fixture(scope="module")
def sweep():
    return run_experiment()


def test_branch_volume_grows_with_p_space(sweep):
    """More space ranks => more branch nodes and bytes on the wire in
    total — the saturation driver of Fig. 5."""
    bytes_ = [row["branch_bytes"] for row in sweep]
    cells = [row["branch_cells"] for row in sweep]
    assert bytes_[0] == 0 and cells[0] == 0  # serial path: no exchange
    assert bytes_[1] < bytes_[2] < bytes_[3]
    assert cells[1] < cells[2] < cells[3]


def test_exchange_spans_present_per_rank(sweep):
    row = measure(2000, 3)
    assert row["exchange_s"] > 0 and row["compute_s"] > 0


def test_grid_matches_serial_solution():
    assert grid_equivalence() < 1e-12


def test_benchmark_space_parallel_field(benchmark):
    benchmark(lambda: measure(2000, 2))


# ----------------------------------------------------------------------
def main(argv: List[str]) -> None:
    rows = run_experiment()
    print("Fig. 5 (measured) — branch exchange of the executed space "
          "parallelism, N = 2000")
    print(format_table(
        ["P_S", "branch bytes", "branch cells", "exchange (s)",
         "compute (s)", "wait (s)", "makespan (s)"],
        [[r["p_space"], r["branch_bytes"], r["branch_cells"],
          r["exchange_s"], r["compute_s"], r["wait_s"], r["makespan"]]
         for r in rows],
    ))
    if "--smoke" in argv:
        dev = grid_equivalence()
        ok = dev < 1e-12
        print(f"smoke: P_T=2 x P_S=2 vs P_S=1 max rel deviation = "
              f"{dev:.3e} -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
