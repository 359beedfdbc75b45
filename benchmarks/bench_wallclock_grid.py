"""Real-core wall-clock speedup of the P_T x 1 grid — executed, not modelled.

Every speedup number so far (`bench_fig8_speedup.py`,
`bench_theory_speedup.py`) comes from *virtual* clocks: the simulated-MPI
cost model replays the paper's Eq. 21-25 arithmetic.  The execution
backend (`docs/architecture.md`, "Execution backends") changes that: the
same PFASST run is executed once with every compute payload inline
(``SerialExecutor``) and once with payloads fanned out to a real
``ProcessPoolExecutor`` over shared memory, and the two wall times are
compared directly.  A byte-identity gate (same frozen results, the
`tests/test_executor.py` contract) guards the comparison — a speedup of a
*different* computation is meaningless.

Honesty about cores: CI containers often expose a single core, where a
process pool can at best break even.  The benchmark therefore always
reports ``cores_available`` and pairs the *measured* speedup with a
critical-path *projection* for the requested worker count, computed from
the recorded per-batch task wall times (LPT packing of each
ready-set batch onto W workers + the non-dispatched main-loop time).
When ``cores_available`` is at least the worker count the projection is
redundant and the result carries ``"projected": false``; when it is
smaller the projection is the honest headline and the measured number
documents the contention floor.

Results go to ``BENCH_wallclock.json`` at the repository root.  Run
directly (``python benchmarks/bench_wallclock_grid.py``); ``--smoke``
shrinks the problem and uses 2 workers (the CI process-executor job).
The pytest entry point is marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.pfasst import PfasstConfig, paper_levels, run_pfasst

from common import sheet_problem

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"

N_DEFAULT, N_SMOKE = 384, 96
P_TIME = 4
WORKERS_DEFAULT, WORKERS_SMOKE = 4, 2


class _BatchRecorder:
    """Wraps an executor's ``dispatch`` to log per-batch task wall times.

    The scheduler flushes compute batches only at event-loop stalls, so
    each recorded batch is exactly one ready-set -> dispatch -> barrier
    phase — the unit the critical-path projection packs onto workers.
    """

    def __init__(self, executor):
        self.executor = executor
        self.batches: List[List[float]] = []
        self._orig = executor.dispatch
        executor.dispatch = self._dispatch

    def _dispatch(self, batch):
        results = self._orig(batch)
        self.batches.append([r.elapsed for r in results])
        return results


def _frozen(res):
    """Backend-invariant fingerprint (same shape as tests/test_executor)."""
    return (
        freeze(res.u_end),
        tuple(freeze(v) for v in res.slice_end_values),
        tuple(tuple(r) for r in res.residuals),
        tuple(res.clocks),
        res.iterations_done,
    )


def _lpt_makespan(tasks: List[float], workers: int) -> float:
    """Longest-processing-time greedy packing of one batch onto W workers."""
    loads = [0.0] * workers
    for t in sorted(tasks, reverse=True):
        i = loads.index(min(loads))
        loads[i] += t
    return max(loads)


def _setup(n: int):
    problem, u0, _ = sheet_problem(n)
    specs = paper_levels(problem, problem, "gauss-seidel")
    config = PfasstConfig(t0=0.0, t_end=0.4, n_steps=P_TIME, iterations=3)
    return config, specs, u0


def measure(n: int = N_DEFAULT, workers: int = WORKERS_DEFAULT) -> Dict:
    """Run serial vs process once each, gate on identity, report both."""
    config, specs, u0 = _setup(n)
    cores = os.cpu_count() or 1

    t0 = time.perf_counter()
    serial = run_pfasst(
        config, specs, u0, p_time=P_TIME, executor=SerialExecutor()
    )
    serial_s = time.perf_counter() - t0

    with ProcessExecutor(max_workers=workers) as ex:
        # pre-register the same payloads run_pfasst will (register is
        # idempotent for identical objects) so pool spin-up + payload
        # shipping happen outside the timed region
        for i, spec in enumerate(specs):
            ex.register(f"level{i}", spec.problem)
        ex.start()
        t0 = time.perf_counter()
        process = run_pfasst(config, specs, u0, p_time=P_TIME, executor=ex)
        process_s = time.perf_counter() - t0

    if _frozen(process) != _frozen(serial):
        raise RuntimeError(
            "byte-identity gate failed: process backend changed the results"
        )

    # Projection inputs come from a one-worker pool: batching is
    # scheduler-side, so the batch structure is identical, and a single
    # worker runs each batch sequentially — per-task wall times are
    # contention-free even on a one-core machine.
    with ProcessExecutor(max_workers=1) as ex1:
        for i, spec in enumerate(specs):
            ex1.register(f"level{i}", spec.problem)
        recorder = _BatchRecorder(ex1)
        probe = run_pfasst(config, specs, u0, p_time=P_TIME, executor=ex1)
    if _frozen(probe) != _frozen(serial):
        raise RuntimeError("byte-identity gate failed on the probe run")

    dispatched_s = sum(sum(b) for b in recorder.batches)
    main_loop_s = max(0.0, serial_s - dispatched_s)
    projected_s = main_loop_s + sum(
        _lpt_makespan(b, workers) for b in recorder.batches
    )
    return {
        "n": n,
        "p_time": P_TIME,
        "workers": workers,
        "cores_available": cores,
        "serial_s": round(serial_s, 4),
        "process_s": round(process_s, 4),
        "measured_speedup": round(serial_s / process_s, 4),
        "dispatched_s": round(dispatched_s, 4),
        "main_loop_s": round(main_loop_s, 4),
        "batches": len(recorder.batches),
        "max_batch_width": max(len(b) for b in recorder.batches),
        "projected": cores < workers,
        "critical_path_speedup": round(serial_s / projected_s, 4),
        "byte_identical": True,
    }


# ---------------------------------------------------------------------------
# pytest entry point (excluded from tier-1 by the `slow` marker)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_smoke_identity_and_projection():
    """Acceptance: identity gate holds; projection beats 1x on width>1."""
    row = measure(n=N_SMOKE, workers=WORKERS_SMOKE)
    assert row["byte_identical"]
    assert row["max_batch_width"] > 1  # P_T=4 pipeline really overlaps
    assert row["critical_path_speedup"] > 1.0


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    n = N_SMOKE if smoke else N_DEFAULT
    workers = WORKERS_SMOKE if smoke else WORKERS_DEFAULT
    row = measure(n=n, workers=workers)
    data = {
        "benchmark": "wallclock_grid",
        "description": "executed real-core wall-clock speedup of the "
                       "P_T=4 PFASST run, serial vs process backend, "
                       "gated on byte-identical results",
        "config": {
            "evaluator": "direct",
            "kernel": "algebraic6",
            "iterations": 3,
            "smoke": smoke,
        },
        "results": [row],
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    headline = "critical_path_speedup" if row["projected"] else \
        "measured_speedup"
    print(f"N={row['n']} P_T={row['p_time']} workers={row['workers']} "
          f"cores={row['cores_available']}: serial {row['serial_s']:.2f}s, "
          f"process {row['process_s']:.2f}s, measured "
          f"{row['measured_speedup']:.2f}x, critical-path "
          f"{row['critical_path_speedup']:.2f}x "
          f"(headline: {headline}, projected={row['projected']})")


if __name__ == "__main__":
    main(sys.argv[1:])
