"""Convergence study — verify integrator orders on the model problem.

A compact version of the paper's Sec. IV-A analysis: runs forward Euler
and Heun's RK2 (SDC on 2 Lobatto nodes with 1 and 2 sweeps), SDC(2..4)
and PFASST variants over a dt ladder against a high-order SDC reference
and prints the observed convergence orders.

Run:  python examples/convergence_study.py
"""

import math

import numpy as np

from repro import SheetConfig, spherical_vortex_sheet
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst
from repro.sdc import SDCStepper
from repro.vortex import DirectEvaluator, VortexProblem, get_kernel

N = 150
T_END = 2.0
DTS = (0.5, 0.25, 0.125)


def main() -> None:
    sheet = SheetConfig(n=N, sigma_over_h=3.0)
    particles = spherical_vortex_sheet(sheet)
    problem = VortexProblem(
        particles.volumes,
        DirectEvaluator(get_kernel("algebraic6"), sheet.sigma),
    )
    u0 = particles.state()

    print("computing SDC(8) reference solution ...")
    ref = SDCStepper(problem, num_nodes=5, sweeps=8).run(
        u0, 0.0, T_END, DTS[-1] / 5
    )

    def error(u):
        return np.max(np.abs(u[0] - ref[0])) / np.max(np.abs(ref[0]))

    def orders(errs):
        return [
            math.log(errs[i] / errs[i + 1], 2) for i in range(len(errs) - 1)
        ]

    rows = []
    for name, nodes, k in (("Euler", 2, 1), ("Heun", 2, 2), ("SDC(2)", 3, 2),
                           ("SDC(3)", 3, 3), ("SDC(4)", 3, 4)):
        errs = [
            error(SDCStepper(problem, num_nodes=nodes, sweeps=k).run(
                u0, 0.0, T_END, dt))
            for dt in DTS
        ]
        rows.append((name, errs))
    for iters in (1, 2):
        errs = []
        for dt in DTS:
            cfg = PfasstConfig(t0=0.0, t_end=T_END,
                               n_steps=int(round(T_END / dt)),
                               iterations=iters)
            specs = paper_levels(problem, problem, "gauss-seidel")
            errs.append(error(run_pfasst(cfg, specs, u0, p_time=4).u_end))
        rows.append((f"PFASST({iters},2,4)", errs))

    print(f"\n{'scheme':<14} " + " ".join(f"{dt:>10}" for dt in DTS)
          + "   orders")
    for name, errs in rows:
        order_str = ", ".join(f"{o:.2f}" for o in orders(errs))
        print(f"{name:<14} "
              + " ".join(f"{e:>10.2e}" for e in errs)
              + f"   {order_str}")


if __name__ == "__main__":
    main()
