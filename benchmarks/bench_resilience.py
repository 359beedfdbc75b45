"""Recovery overhead of fault-tolerant PFASST vs the fault-free baseline.

Runs PFASST(P_T=4) on the linear-oscillator model problem three ways —
fault-free, and with a single injected rank crash recovered by each
policy — plus a lossy-link row (drops + corruption repaired by bounded
link-layer retransmission), and repeats the crash experiment on the
P_T x P_S = 2x2 space-time grid, where the failed *space* rank is
row-resynced from its surviving peer before the time-dimension rebuild.
For every run it records the virtual-time makespan under the
paper-calibrated communication cost model, the iteration counts
(attempted vs converged), and the scheduler's resilience report, so the
JSON quantifies the claim the tests assert: warm restarts rebuild the
lost rank from its neighbour's coarse solution and therefore pay fewer
extra iterations than a cold block restart.

Results go to ``BENCH_resilience.json`` at the repository root.  Run
directly (``python benchmarks/bench_resilience.py``); the pytest entry
point is marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.parallel import CommCostModel
from repro.parallel.faults import FaultPlan, MessageFault, RankCrash
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst
from repro.vortex.problem import ODEProblem

P_TIME = 4
N_STEPS = 8  # two blocks
TOL = 1e-11
CRASH = RankCrash(rank=2, after_ops=26)  # inside V-cycle iteration 2
GRID_P_TIME, GRID_P_SPACE = 2, 2
#: world rank 3 = (t=1, s=1): a *space* rank of the 2x2 grid, hit
#: inside a V-cycle iteration (the recoverable window)
GRID_CRASH = RankCrash(rank=3, after_ops=20)
#: LogP-flavoured figures of the paper's interconnect era
MODEL = CommCostModel(latency=5e-6, bandwidth=1.2e9, send_overhead=1e-6)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


class Oscillator(ODEProblem):
    matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def _setup():
    problem = Oscillator()
    return paper_levels(problem, problem, "gauss-seidel"), np.array([1.0, 2.0])


def _config(recovery: str = "fail") -> PfasstConfig:
    # detection timeout sized to the model problem's makespan — with the
    # default (0.05 virtual seconds) the timeout wait would swamp every
    # other cost on a problem this small
    return PfasstConfig(
        t0=0.0, t_end=1.0, n_steps=N_STEPS, iterations=30,
        residual_tol=TOL, recovery=recovery, recovery_timeout=2e-4,
    )


def _row(label: str, res, baseline=None) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "label": label,
        "makespan_s": res.makespan,
        "iterations_done": res.iterations_done,
        "total_iterations": res.total_iterations,
        "recovery_iterations": res.recovery_iterations,
        "recoveries": res.recoveries,
        "fault_events": res.resilience.counts(),
        "link_recovery_cost_s": res.resilience.recovery_cost,
    }
    if baseline is not None:
        row["error_vs_fault_free"] = float(
            np.abs(res.u_end - baseline.u_end).max()
        )
        row["makespan_overhead_pct"] = (
            100.0 * (res.makespan - baseline.makespan) / baseline.makespan
        )
    return row


def measure() -> List[Dict[str, Any]]:
    specs, u0 = _setup()
    kw = dict(p_time=P_TIME, cost_model=MODEL)

    baseline = run_pfasst(_config(), specs, u0, **kw)
    rows = [_row("fault-free", baseline)]

    crash_plan = FaultPlan(crashes=(CRASH,))
    for policy in ("cold-restart", "warm-restart"):
        res = run_pfasst(
            _config(policy), specs, u0, fault_plan=crash_plan, **kw
        )
        rows.append(_row(f"crash + {policy}", res, baseline))

    # lossy link: one dropped and one corrupted neighbour message, both
    # repaired below the algorithmic layer by bounded retransmission
    lossy_plan = FaultPlan(messages=(
        MessageFault(kind="drop", source=1, dest=2,
                     tag=("lvl", 0, 0, 0, 1)),
        MessageFault(kind="corrupt", source=2, dest=3,
                     tag=("lvl", 0, 0, 1, 2)),
    ))
    res = run_pfasst(
        _config("warm-restart"), specs, u0, fault_plan=lossy_plan, **kw
    )
    rows.append(_row("lossy link + retransmit", res, baseline))

    # P_T x P_S grid: the same experiment with the crash on a *space*
    # rank — recovery row-resyncs the survivor's level state across the
    # space communicator before rejoining the time iteration
    grid_kw = dict(p_time=GRID_P_TIME, p_space=GRID_P_SPACE,
                   cost_model=MODEL)
    grid_base = run_pfasst(_config(), specs, u0, **grid_kw)
    rows.append(_row(
        f"grid {GRID_P_TIME}x{GRID_P_SPACE} fault-free", grid_base
    ))
    grid_plan = FaultPlan(crashes=(GRID_CRASH,))
    for policy in ("cold-restart", "warm-restart"):
        res = run_pfasst(
            _config(policy), specs, u0, fault_plan=grid_plan, **grid_kw
        )
        rows.append(_row(
            f"grid {GRID_P_TIME}x{GRID_P_SPACE} space-rank crash + "
            f"{policy}",
            res, grid_base,
        ))
    return rows


# ---------------------------------------------------------------------------
# pytest entry point (excluded from tier-1 by the `slow` marker)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_recovery_overhead_ordering():
    """Acceptance: both policies reconverge; warm is cheaper than cold."""
    rows = {r["label"]: r for r in measure()}
    cold = rows["crash + cold-restart"]
    warm = rows["crash + warm-restart"]
    assert cold["error_vs_fault_free"] < 100 * TOL
    assert warm["error_vs_fault_free"] < 100 * TOL
    assert warm["recovery_iterations"] < cold["recovery_iterations"]
    assert warm["makespan_overhead_pct"] < cold["makespan_overhead_pct"]
    lossy = rows["lossy link + retransmit"]
    assert lossy["error_vs_fault_free"] == 0.0  # retransmit is exact
    assert lossy["fault_events"]["retransmit"] == 2
    for policy in ("cold-restart", "warm-restart"):
        grid = rows[f"grid 2x2 space-rank crash + {policy}"]
        assert grid["error_vs_fault_free"] < 100 * TOL
        assert grid["recoveries"], "grid crash must be recovered, not missed"


def main(argv: List[str]) -> None:
    rows = measure()
    data = {
        "benchmark": "resilience",
        "description": "PFASST recovery-policy overhead vs fault-free "
                       "baseline (single rank crash at P_T=4; lossy-link "
                       "retransmission; space-rank crash on the 2x2 "
                       "space-time grid), virtual-time cost model",
        "config": {
            "p_time": P_TIME,
            "n_steps": N_STEPS,
            "residual_tol": TOL,
            "crash": {"rank": CRASH.rank, "after_ops": CRASH.after_ops},
            "grid": {
                "p_time": GRID_P_TIME,
                "p_space": GRID_P_SPACE,
                "crash": {"rank": GRID_CRASH.rank,
                          "after_ops": GRID_CRASH.after_ops},
            },
            "cost_model": {
                "latency": MODEL.latency,
                "bandwidth": MODEL.bandwidth,
                "send_overhead": MODEL.send_overhead,
            },
        },
        "results": rows,
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for r in rows:
        extra = (
            f", +{r['makespan_overhead_pct']:.1f}% makespan, "
            f"{r['recovery_iterations']} recovery iteration(s)"
            if "makespan_overhead_pct" in r else ""
        )
        print(f"  {r['label']:26s} makespan {r['makespan_s']:.6f}s{extra}")


if __name__ == "__main__":
    main(sys.argv[1:])
