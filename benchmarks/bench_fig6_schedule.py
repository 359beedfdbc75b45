"""Fig. 6 — graphical depiction of the PFASST schedule.

The paper's Fig. 6 shows the initialisation staircase (rank n performs
n+1 coarse sweeps, each waiting on its left neighbour) followed by the
pipelined V-cycle iterations with fine sweeps overlapping across ranks.
This benchmark runs PFASST with schedule tracing enabled, renders the
per-rank timeline as an ASCII Gantt chart, and asserts the structural
properties the figure illustrates:

* the predictor forms a staircase (rank n's j-th sweep starts after rank
  n-1's j-th sweep has finished),
* fine sweeps of the *same* iteration overlap across ranks (pipelining —
  the whole point of the parallel-in-time construction),
* every rank performs exactly the prescribed number of sweep phases.

Run directly, the benchmark also records the schedule with a
:class:`repro.obs.Tracer` and writes ``BENCH_fig6_trace.json`` (native
repro-trace format, inspect with ``repro-trace summarize``) and
``BENCH_fig6_trace.chrome.json`` (open at https://ui.perfetto.dev) next
to the repository root.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.obs import Tracer
from repro.parallel import CommCostModel
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst
from repro.vortex.problem import ODEProblem

P_TIME = 3
ITERATIONS = 2


#: wall time each RHS evaluation spins for
RHS_SPIN_S = 5e-4


class _CostedScalar(ODEProblem):
    """Scalar ODE whose evaluations each spin for :data:`RHS_SPIN_S`.

    Virtual time bills measured compute, so a bare scalar RHS would
    leave the schedule at microsecond-scale wall-time noise; a fixed
    spin that dwarfs the noise keeps the schedule legible.
    """

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        end = time.perf_counter() + RHS_SPIN_S
        while time.perf_counter() < end:
            pass
        return -u * u + np.sin(3.0 * t)


def run_schedule(p_time: int = P_TIME, iterations: int = ITERATIONS,
                 tracer=None):
    problem = _CostedScalar()
    cfg = PfasstConfig(t0=0.0, t_end=1.0 * p_time, n_steps=p_time,
                       iterations=iterations, trace=True)
    specs = paper_levels(problem, problem, "gauss-seidel")
    res = run_pfasst(
        cfg, specs, np.array([1.0]), p_time=p_time,
        cost_model=CommCostModel(), measure_compute=True,
        tracer=tracer,
    )
    return res


def intervals_by_rank(tracer) -> Dict[int, List[Tuple[str, float, float]]]:
    """The tracer's ``phase`` spans (its folded begin/end annotation
    pairs) as (label, t0, t1) per rank, in the order they closed."""
    out: Dict[int, List[Tuple[str, float, float]]] = defaultdict(list)
    for span in tracer.spans:
        if span.cat == "phase" and span.track.startswith("rank"):
            out[int(span.track[4:])].append((span.name, span.t0, span.t1))
    return dict(out)


@pytest.fixture(scope="module")
def schedule():
    tracer = Tracer()
    run_schedule(tracer=tracer)
    return intervals_by_rank(tracer)


def test_every_rank_has_all_phases(schedule):
    for rank in range(P_TIME):
        labels = [name for name, _, _ in schedule[rank]]
        # rank n: n+1 predictor sweeps
        assert sum(1 for l in labels if l.startswith("predict")) == rank + 1
        for k in range(ITERATIONS):
            assert f"sweep:L0:k{k}" in labels
            assert f"sweep:L1:k{k}" in labels


def test_predictor_staircase(schedule):
    """Fig. 6's lower-left staircase: rank n's j-th predictor sweep
    cannot start before rank n-1's j-th sweep has finished."""
    start = {}
    end = {}
    for rank, items in schedule.items():
        for name, t0, t1 in items:
            if name.startswith("predict:"):
                j = int(name.split(":")[1])
                start[(rank, j)] = t0
                end[(rank, j)] = t1
    for rank in range(1, P_TIME):
        for j in range(1, rank + 1):
            assert start[(rank, j)] >= end[(rank - 1, j - 1)] - 1e-12


def test_fine_sweeps_pipeline_across_ranks(schedule):
    """Fig. 6's main region: same-iteration fine sweeps on different
    ranks overlap in virtual time (they only exchange boundary values)."""
    overlaps = 0
    for k in range(ITERATIONS):
        spans = []
        for rank in range(P_TIME):
            for name, t0, t1 in schedule[rank]:
                if name == f"sweep:L0:k{k}":
                    spans.append((t0, t1))
        for a in range(len(spans)):
            for b in range(a + 1, len(spans)):
                lo = max(spans[a][0], spans[b][0])
                hi = min(spans[a][1], spans[b][1])
                if hi > lo:
                    overlaps += 1
    assert overlaps > 0


def test_coarse_sweep_serialisation(schedule):
    """Coarse sweeps of one iteration are (nearly) serialised left to
    right: rank n's coarse sweep k ends after rank n-1's begins."""
    for k in range(ITERATIONS):
        prev_start = -np.inf
        for rank in range(P_TIME):
            for name, t0, t1 in schedule[rank]:
                if name == f"sweep:L1:k{k}":
                    assert t0 >= prev_start - 1e-12
                    prev_start = t0


def test_benchmark_traced_run(benchmark):
    benchmark(lambda: run_schedule(p_time=2, iterations=1))


def main(argv: List[str]) -> None:
    from repro.obs import export_chrome_trace, render_ascii, save_trace

    tracer = Tracer(meta={"benchmark": "fig6_schedule", "p_time": P_TIME,
                          "iterations": ITERATIONS})
    res = run_schedule(tracer=tracer)
    print(f"Fig. 6 — PFASST schedule, {P_TIME} time ranks, "
          f"{ITERATIONS} iterations, PFASST(2,2)")
    print(render_ascii(tracer.spans))
    print(f"\nmakespan: {res.makespan * 1e3:.2f} ms virtual")
    root = Path(__file__).resolve().parent.parent
    trace_path = save_trace(tracer, root / "BENCH_fig6_trace.json",
                            metrics=res.metrics)
    chrome_path = export_chrome_trace(
        tracer, root / "BENCH_fig6_trace.chrome.json")
    print(f"wrote {trace_path} and {chrome_path}")
    print(f"inspect with:  repro-trace summarize {trace_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
