"""Fault-tolerant PFASST demo — surviving a rank crash mid-run.

Injects a hard crash into time rank 2 of a PFASST(P_T=4) run of the
linear oscillator and compares the three recovery policies:

* ``fail``          — the run dies with a RankFailure diagnostic;
* ``cold-restart``  — all ranks redo the block from its predictor;
* ``warm-restart``  — the lost rank is rebuilt from its neighbour's
  coarse solution (the paper's "less accurate but usable copy") and
  iterating continues, at a fraction of the cold restart's cost.

Both recovering policies reconverge to the fault-free solution; the
printed table quantifies the extra iterations each one paid.

Run:  python examples/fault_tolerant_pfasst.py
CI smoke mode (exit non-zero unless warm restart reconverges):
      python examples/fault_tolerant_pfasst.py --smoke
"""

import sys

import numpy as np

from repro.parallel import FaultPlan, RankCrash, RankFailure
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst
from repro.vortex.problem import ODEProblem

P_TIME = 4
CRASH = RankCrash(rank=2, after_ops=26)  # lands inside V-cycle iteration 2
TOL = 1e-11


class Oscillator(ODEProblem):
    """u' = A u with lightly damped complex spectrum (-0.2 +- 2i)."""

    matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def build():
    problem = Oscillator()
    return paper_levels(problem, problem, "gauss-seidel"), np.array([1.0, 2.0])


def config(recovery: str) -> PfasstConfig:
    return PfasstConfig(
        t0=0.0, t_end=1.0, n_steps=P_TIME, iterations=30,
        residual_tol=TOL, recovery=recovery,
    )


def main(argv) -> int:
    smoke = "--smoke" in argv
    specs, u0 = build()
    baseline = run_pfasst(config("fail"), specs, u0, p_time=P_TIME)
    print(f"fault-free:     u(T) = {baseline.u_end}, "
          f"{sum(baseline.iterations_done)} iterations")

    plan = FaultPlan(crashes=(CRASH,))
    try:
        run_pfasst(config("fail"), specs, u0, p_time=P_TIME, fault_plan=plan)
    except RankFailure as exc:
        first_line = str(exc).splitlines()[0]
        print(f"\npolicy 'fail':  run dies as expected — {first_line}")

    rows = []
    for policy in ("cold-restart", "warm-restart"):
        res = run_pfasst(
            config(policy), specs, u0, p_time=P_TIME, fault_plan=plan,
            verify=True,  # injection is replay-stable: results must be
        )                 # byte-identical under the reversed service order
        err = float(np.abs(res.u_end - baseline.u_end).max())
        rows.append((policy, err, res))
        print(f"\npolicy {policy!r}: reconverged, |u - u_ff| = {err:.2e}, "
              f"{res.recovery_iterations} extra iteration(s)")
        for event in res.recoveries:
            print(f"  recovery: block {event['block']} attempt "
                  f"{event['attempt']} at iteration {event['k']} "
                  f"(failed ranks {event['failed_ranks']})")
        print("  " + res.resilience.summary().replace("\n", "\n  "))

    (cold, warm) = rows
    print(f"\nwarm restart paid {warm[2].recovery_iterations} extra "
          f"iteration(s) vs {cold[2].recovery_iterations} for cold restart")

    if smoke:
        ok = (
            warm[1] < 100 * TOL
            and cold[1] < 100 * TOL
            and warm[2].recovery_iterations < cold[2].recovery_iterations
        )
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
