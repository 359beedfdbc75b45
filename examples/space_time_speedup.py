"""Space-time speedup study — a miniature of the paper's Fig. 8.

Measures, under the simulated MPI's virtual clocks:

* the time-serial SDC(4) baseline on the Barnes-Hut RHS (theta = 0.3),
* PFASST(2, 2, P_T) with MAC-coarsened coarse level (theta = 0.6)
  for increasing numbers of time ranks,

and compares the measured speedup with the theoretical curve S(P_T;
alpha) of Eq. 24, where alpha comes from the *measured* fine/coarse
evaluation-cost ratio — the exact procedure of Sec. IV-B.

Run:  python examples/space_time_speedup.py
"""

import numpy as np

from repro import SheetConfig, spherical_vortex_sheet
from repro.parallel import CommCostModel, Scheduler
from repro.pfasst import (
    LevelSpec,
    PfasstConfig,
    run_pfasst,
    speedup_bound,
    speedup_two_level,
)
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import VortexProblem, get_kernel

N = 700
N_STEPS, DT = 8, 0.5
P_TIMES = (1, 2, 4, 8)
KS, KP, Y = 4, 2, 2  # SDC(4) baseline; PFASST(2, 2, .)


def main() -> None:
    sheet = SheetConfig(n=N, sigma_over_h=3.0)
    particles = spherical_vortex_sheet(sheet)
    kernel = get_kernel("algebraic6")
    fine_eval = TreeEvaluator(kernel, sheet.sigma, theta=0.3, leaf_size=48)
    # shares the fine evaluator's tree-state cache: one build + one moment
    # pass per particle configuration, two theta traversals
    coarse_eval = fine_eval.coarsened(theta=0.6)
    fine = VortexProblem(particles.volumes, fine_eval)
    coarse = fine.with_evaluator(coarse_eval)
    u0 = particles.state()

    # measure the coarsening ratio (paper: 2.65x for the small setup) on
    # computed evaluations: after a warm-up every call gets a state of
    # its own, because a repeated state is answered from the field memo
    # (and not timed) and a state shared by the levels bills the tree
    # build and the moments to whichever level went first
    rng = np.random.default_rng(0)
    for problem in (fine, coarse):
        problem.rhs(0.0, u0)
        problem.evaluator.reset_stats()
    for _ in range(3):
        for problem in (fine, coarse):
            problem.rhs(0.0, u0 + 1e-9 * rng.standard_normal(u0.shape))
    ratio = fine_eval.mean_cost / coarse_eval.mean_cost
    alpha = (2.0 / 3.0) / ratio
    print(f"theta 0.3 vs 0.6 cost ratio: {ratio:.2f}  ->  alpha = {alpha:.3f}")

    # serial baseline under the same virtual clock
    def serial_program(comm):
        stepper = SDCStepper(fine, num_nodes=3, sweeps=KS)
        stepper.run(u0, 0.0, N_STEPS * DT, DT)
        yield comm.work(0.0)

    sched = Scheduler(1, measure_compute=True)
    sched.run(serial_program)
    serial_time = sched.makespan
    print(f"serial SDC(4): {serial_time:.2f}s virtual "
          f"({N_STEPS} steps of dt={DT})")

    print(f"\n{'P_T':>4} {'makespan':>10} {'speedup':>9} "
          f"{'theory':>8} {'bound':>7}")
    for p_t in P_TIMES:
        cfg = PfasstConfig(t0=0.0, t_end=N_STEPS * DT, n_steps=N_STEPS,
                           iterations=KP)
        specs = [
            LevelSpec(fine, num_nodes=3, sweeps=1),
            LevelSpec(coarse, num_nodes=2, sweeps=Y),
        ]
        res = run_pfasst(cfg, specs, u0, p_time=p_t,
                         cost_model=CommCostModel(), measure_compute=True)
        s_meas = serial_time / res.makespan
        s_theory = float(speedup_two_level(p_t, alpha, KS, KP, Y))
        s_bound = float(speedup_bound(p_t, KS, KP))
        print(f"{p_t:>4} {res.makespan:>9.2f}s {s_meas:>9.2f} "
              f"{s_theory:>8.2f} {s_bound:>7.1f}")

    print("\nspeedup keeps growing with P_T even though the spatial "
          "solver is already saturated — the paper's core message.")


if __name__ == "__main__":
    main()
