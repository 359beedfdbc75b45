"""Quickstart — run the space-time parallel N-body solver end to end.

Builds the paper's model problem (a spherical vortex sheet discretised by
regularised vortex particles), then solves it three ways:

1. classical serial RK4 (the textbook vortex-method baseline),
2. serial SDC(4) (the paper's time-serial reference scheme),
3. PFASST(2, 2, 4) on the Barnes-Hut tree code with MAC coarsening
   (theta 0.3 fine / 0.6 coarse) — the paper's space-time parallel solver.

All three must agree on the resulting flow; PFASST additionally reports
alpha (Eq. 26) from the measured fine/coarse cost ratio that drives its
parallel speedup.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    DirectEvaluator,
    LevelSpec,
    PfasstConfig,
    SDCStepper,
    SheetConfig,
    TreeEvaluator,
    VortexProblem,
    run_pfasst,
    spherical_vortex_sheet,
)
from repro.integrators import get_integrator
from repro.pfasst import alpha_from_measurements, measured_cost_ratio
from repro.vortex.diagnostics import compute_diagnostics


def main() -> None:
    # -- the model problem (paper Sec. II) ------------------------------
    sheet = SheetConfig(n=800, sigma_over_h=3.0)
    particles = spherical_vortex_sheet(sheet)
    print(f"spherical vortex sheet: N={particles.n}, h={sheet.h:.4f}, "
          f"sigma={sheet.sigma:.4f}")
    print("initial invariants:",
          compute_diagnostics(particles).as_dict())

    t_end, dt = 2.0, 0.5
    u0 = particles.state()

    def direct():
        return VortexProblem(particles.volumes,
                             DirectEvaluator("algebraic6", sheet.sigma))

    def rk4():
        problem = direct()
        u = get_integrator("rk4").run(problem, u0, 0.0, t_end, dt)
        return u, problem, None

    def sdc():
        problem = direct()
        u = SDCStepper(problem, sweeps=4).run(u0, 0.0, t_end, dt)
        return u, problem, None

    def pfasst():
        fine = VortexProblem(particles.volumes, TreeEvaluator(
            "algebraic6", sheet.sigma, theta=0.3, leaf_size=48))
        coarse = fine.coarsened(theta=0.6)  # shares the fine tree cache
        config = PfasstConfig(t0=0.0, t_end=t_end,
                              n_steps=int(round(t_end / dt)), iterations=2)
        specs = [LevelSpec(fine, num_nodes=3, sweeps=1),
                 LevelSpec(coarse, num_nodes=2, sweeps=2)]
        u = run_pfasst(config, specs, u0, p_time=4).u_end
        return u, fine, coarse

    runs = {"RK4 (direct)": rk4, "SDC(4) (direct)": sdc,
            "PFASST(2,2,4) (tree)": pfasst}

    finals = {}
    for name, run in runs.items():
        u_end, fine, coarse = run()
        finals[name] = particles.with_state(u_end)
        line = (f"{name:<22s} fine evals: {fine.evaluator.calls:4d}  "
                f"wall in evaluator: {fine.evaluator.timer.elapsed:6.2f}s")
        if coarse is not None:
            coarse_evals = coarse.evaluator.calls
            alpha = alpha_from_measurements(
                2, 3, measured_cost_ratio(fine, coarse, u0))
            line += (f"  coarse evals: {coarse_evals:4d}  "
                     f"alpha measured: {alpha:.2f}")
        print(line)

    # -- agreement check -------------------------------------------------
    ref = finals["SDC(4) (direct)"].positions
    for name, ps in finals.items():
        err = np.max(np.abs(ps.positions - ref)) / np.max(np.abs(ref))
        print(f"relative position difference vs SDC(4): {name:<22s} "
              f"{err:.2e}")

    drift = compute_diagnostics(finals["PFASST(2,2,4) (tree)"]).as_dict()
    print("final invariants (PFASST run):", drift)


if __name__ == "__main__":
    main()
