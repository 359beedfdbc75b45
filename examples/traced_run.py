"""Traced PFASST run — record, export and render a Fig. 6 schedule.

Runs PFASST(2 iterations, P_T=4) on a damped oscillator with a
:class:`repro.obs.Tracer` attached to the simulated-MPI scheduler — the
run's annotations live on the tracer, its counts in ``result.metrics`` —
then writes

* ``trace.json``        — the native repro-trace file (input to the
  ``repro-trace`` CLI: summarize / gantt / diff);
* ``trace.chrome.json`` — Chrome ``trace_event`` JSON; open it at
  https://ui.perfetto.dev to scrub the virtual timeline, one thread per
  simulated rank;
* ``schedule.svg``      — the per-rank Gantt chart (the paper's Fig. 6);

and prints the ASCII Gantt plus the run's message counters.

Run:  python examples/traced_run.py [--outdir DIR]
CI smoke mode (exit non-zero unless the trace has all ranks + sweeps):
      python examples/traced_run.py --smoke --outdir /tmp
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.obs import (
    Tracer,
    export_chrome_trace,
    render_ascii,
    render_svg,
    save_trace,
)
from repro.parallel import CommCostModel
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst
from repro.vortex.problem import ODEProblem

P_TIME = 4


class Oscillator(ODEProblem):
    """u' = A u with lightly damped complex spectrum (-0.2 +- 2i)."""

    matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def traced_run():
    """Run PFASST with tracing on; returns (result, tracer)."""
    problem = Oscillator()
    specs = paper_levels(problem, problem, "gauss-seidel")
    config = PfasstConfig(
        t0=0.0, t_end=1.0, n_steps=P_TIME, iterations=2, trace=True
    )
    tracer = Tracer(meta={"example": "traced_run", "p_time": P_TIME})
    result = run_pfasst(
        config, specs, np.array([1.0, 2.0]), p_time=P_TIME,
        cost_model=CommCostModel(), measure_compute=True, tracer=tracer,
    )
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default=".", help="output directory")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: validate the trace, no chatter")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    result, tracer = traced_run()

    trace_path = save_trace(tracer, outdir / "trace.json",
                            metrics=result.metrics)
    chrome_path = export_chrome_trace(tracer, outdir / "trace.chrome.json")
    svg_path = outdir / "schedule.svg"
    svg_path.write_text(render_svg(tracer.spans))

    ranks = {f"rank{r}" for r in range(P_TIME)}
    sweeps = {s.name for s in tracer.spans if s.name.startswith("sweep:")}
    ok = ranks.issubset(set(tracer.tracks())) and {
        "sweep:L0:k0", "sweep:L1:k0", "sweep:L0:k1", "sweep:L1:k1"
    }.issubset(sweeps)

    if args.smoke:
        print(f"traced_run smoke: {'OK' if ok else 'FAILED'} "
              f"({len(tracer.spans)} spans, {len(tracer.instants)} instants"
              f", trace at {trace_path})")
        return 0 if ok else 1

    print(f"u(T) = {result.u_end}, virtual makespan "
          f"{result.makespan * 1e3:.3f} ms\n")
    print(render_ascii(tracer.spans))
    counters = result.metrics["counters"]
    print(f"\nmessages: {counters.get('mpi.messages', 0):.0f}, "
          f"bytes: {counters.get('mpi.bytes', 0):.0f}")
    print(f"\nwrote {trace_path}, {chrome_path}, {svg_path}")
    print(f"inspect with:  repro-trace summarize {trace_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
