"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print version, installed subsystems and available kernels/time steppers.
``sheet``
    Run the spherical vortex sheet with serial SDC or PFASST and print
    invariant drift (a quick end-to-end smoke run).
``speedup``
    Miniature Fig. 8: measured vs theoretical PFASST speedup.
``trace``
    Inspect, export and diff observability trace files — forwards to the
    ``repro-trace`` tool (:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sdc.sweeper import SWEEPERS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Space-time parallel N-body solver (Speck et al., SC12)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print build information")

    sheet = sub.add_parser("sheet", help="run the vortex sheet model problem")
    sheet.add_argument("-n", type=int, default=400, help="particle count")
    sheet.add_argument("--t-end", type=float, default=2.0)
    sheet.add_argument("--dt", type=float, default=0.5)
    sheet.add_argument("--method", default="sdc", choices=["sdc", "pfasst"])
    sheet.add_argument("--evaluator", default="tree",
                       choices=["direct", "tree"])
    sheet.add_argument("--theta", type=float, default=0.3)
    sheet.add_argument("--p-time", type=int, default=4,
                       help="time ranks (pfasst only)")
    sheet.add_argument("--p-nodes", type=int, default=1,
                       help="node ranks per time rank — the PFASST-ER "
                       "third grid dimension (pfasst only)")
    sheet.add_argument("--sweeper", default="gauss-seidel",
                       choices=SWEEPERS,
                       help="SDC sweep: sequential Gauss-Seidel or the "
                       "node-parallel diagonal preconditioner")
    sheet.add_argument("--sigma-over-h", type=float, default=3.0)
    sheet.add_argument("--save", type=str, default=None,
                       help="write the final state to this .npz path")

    speed = sub.add_parser("speedup", help="miniature Fig. 8 study")
    speed.add_argument("-n", type=int, default=500)
    speed.add_argument("--steps", type=int, default=4)
    speed.add_argument("--p-times", type=int, nargs="+", default=[1, 2, 4])
    speed.add_argument("--p-nodes", type=int, default=1,
                       help="node ranks per time rank (PFASST-ER)")
    speed.add_argument("--sweeper", default="gauss-seidel",
                       choices=SWEEPERS)

    trace = sub.add_parser(
        "trace", help="summarize/export/gantt/diff trace files "
        "(same as the repro-trace tool)", add_help=False,
    )
    trace.add_argument("rest", nargs=argparse.REMAINDER,
                       help="arguments forwarded to repro-trace")
    return parser


def _cmd_info() -> int:
    import repro
    from repro.sdc.nodes import available_node_types
    from repro.vortex import available_kernels

    print(f"repro {repro.__version__} — space-time parallel N-body solver")
    print(f"kernels:      {', '.join(available_kernels())}")
    print("integrators:  sdc, pfasst")
    print(f"node types:   {', '.join(available_node_types())}")
    print("subsystems:   vortex, tree, sdc, pfasst, parallel")
    return 0


def _cmd_sheet(args: argparse.Namespace) -> int:
    from repro.pfasst import (PfasstConfig, measured_cost_ratio,
                              paper_levels, run_pfasst)
    from repro.pfasst.level import FINE_NODES
    from repro.pfasst.theory import KP, KS, paper_alpha
    from repro.sdc import SDCStepper
    from repro.tree import TreeEvaluator
    from repro.utils.validation import uniform_step_count
    from repro.vortex import (DirectEvaluator, VortexProblem, get_kernel,
                              spherical_vortex_sheet)
    from repro.vortex.diagnostics import compute_diagnostics
    from repro.vortex.sheet import SheetConfig

    sheet = SheetConfig(n=args.n, sigma_over_h=args.sigma_over_h)
    ps = spherical_vortex_sheet(sheet)
    kernel = get_kernel("algebraic6")
    if args.evaluator == "tree":
        fine = VortexProblem(ps.volumes, TreeEvaluator(
            kernel, sheet.sigma, theta=args.theta, leaf_size=48))
        # shares the fine evaluator's tree-state cache
        coarse = fine.coarsened(theta=0.6)
    else:
        fine = VortexProblem(ps.volumes, DirectEvaluator(kernel, sheet.sigma))
        coarse = fine.with_evaluator(DirectEvaluator(kernel, sheet.sigma))
    u0 = ps.state()
    before = compute_diagnostics(ps).as_dict()
    if args.method == "sdc":
        stepper = SDCStepper(fine, num_nodes=FINE_NODES, sweeps=KS,
                             sweeper=args.sweeper)
        u_end = stepper.run(u0, 0.0, args.t_end, args.dt)
    else:
        n_steps = uniform_step_count(0.0, args.t_end, args.dt)
        config = PfasstConfig(t0=0.0, t_end=args.t_end, n_steps=n_steps,
                              iterations=KP)
        u_end = run_pfasst(config, paper_levels(fine, coarse, args.sweeper),
                           u0, p_time=args.p_time, p_nodes=args.p_nodes).u_end
    final = ps.with_state(u_end)
    after = compute_diagnostics(final, time=args.t_end).as_dict()
    print(f"method={args.method} evaluator={args.evaluator} N={args.n} "
          f"T={args.t_end} dt={args.dt}")
    print(f"fine RHS evaluations: {fine.evaluator.calls} "
          f"({fine.evaluator.timer.elapsed:.2f}s)")
    if args.method == "pfasst":
        # Eq. 26: (M_c / M_f) over the fine/coarse cost ratio, measured
        # on distinct states like ``repro speedup`` (resets the counts)
        ratio = measured_cost_ratio(fine, coarse, u0)
        print(f"measured alpha: {paper_alpha(ratio):.3f}")
    for key in ("total_vorticity_norm", "linear_impulse_norm", "enstrophy"):
        print(f"{key}: {before[key]:.6g} -> {after[key]:.6g}")
    if args.save:
        from repro.io import save_particles

        path = save_particles(args.save, final, time=args.t_end)
        print(f"final state written to {path}")
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from repro.pfasst.theory import (measured_cost_ratio, paper_alpha,
                                     paper_pfasst_run, paper_speedup,
                                     serial_sdc_makespan)
    from repro.tree import TreeEvaluator
    from repro.vortex import VortexProblem, get_kernel, spherical_vortex_sheet
    from repro.vortex.sheet import SheetConfig

    sheet = SheetConfig(n=args.n, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(sheet)
    kernel = get_kernel("algebraic6")
    fine = VortexProblem(
        ps.volumes, TreeEvaluator(kernel, sheet.sigma, theta=0.3)
    )
    # shares the fine evaluator's tree-state cache (one tree, two traversals)
    coarse = fine.coarsened(theta=0.6)
    u0 = ps.state()
    ratio = measured_cost_ratio(fine, coarse, u0)
    alpha = paper_alpha(ratio)
    base = serial_sdc_makespan(fine, u0, args.steps, 0.5)
    print(f"alpha = {alpha:.3f} (cost ratio {ratio:.2f}); "
          f"serial SDC(4): {base:.2f}s")
    if args.p_nodes > 1:
        print(f"node dimension: P_N = {args.p_nodes} "
              f"({args.sweeper} sweeps)")
    print(f"{'P_T':>4} {'speedup':>8} {'theory':>7}")
    for p_t in args.p_times:
        res = paper_pfasst_run(fine, coarse, u0, args.steps, 0.5, p_t,
                               args.p_nodes, args.sweeper,
                               measure_compute=True)
        theory = float(paper_speedup(p_t, alpha))
        print(f"{p_t:>4} {base / res.makespan:>8.2f} {theory:>7.2f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "sheet":
        return _cmd_sheet(args)
    if args.command == "speedup":
        # each P_T must take whole blocks of the run's steps
        bad = [p for p in args.p_times if p < 1 or args.steps % p]
        if bad:
            parser.error(f"--p-times {bad} do not divide --steps "
                         f"{args.steps}")
        return _cmd_speedup(args)
    if args.command == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(args.rest)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
