"""Evaluator hot path — batched engine + state cache vs the seed loops.

Times the full fine/coarse RHS pair (theta = 0.3 / 0.6, the paper's
PFASST coarsening) at N in {2048, 8192, 32768}:

* **seed**: the preserved per-group implementation
  (:mod:`repro.tree.reference`), one full build + moments + traversal +
  per-group far/near loops *per theta*;
* **batched cold**: :class:`~repro.tree.TreeEvaluator` and its
  ``coarsened(0.6)`` twin sharing one state cache — one build + one
  moment pass, two traversals, batched far/near passes;
* **batched warm**: the fine evaluation repeated at the identical state —
  every pipeline stage is a cache hit, only the far/near summation runs.

Also reports the per-phase breakdown (tree_build / moments / traverse /
layout / far_field / near_field) and the cache counters, and writes
everything to ``BENCH_evaluator.json`` at the repository root.

The hot path carries observability hooks (:mod:`repro.obs`): every row
additionally times a warm evaluation with an *active* tracer and metrics
registry and reports the relative overhead (``tracer_on_overhead_pct``,
expected single-digit percent; with the default null tracer the hooks
reduce to one attribute check per phase).  Pass ``--traced`` to also
write ``BENCH_evaluator_trace.json`` — the wall-clock phase spans of one
traced evaluation, viewable with ``repro-trace summarize``.

Every row is tagged with the kernel backend it ran on
(:mod:`repro.backends`); pass ``--backend NAME`` (repeatable) to choose
the set, defaulting to every usable backend.  Non-NumPy rows carry a
``vs_numpy_speedup`` against the NumPy row of the same size, and the
output records a ``machine`` block (CPU count, platform, library
versions) — threaded speedups are only meaningful relative to
``machine.cpu_count``.

Run directly (``python benchmarks/bench_evaluator_hotpath.py``); the
pytest entry points are marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.backends import get_backend, usable_backends
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.tree import TreeEvaluator
from repro.tree.reference import reference_vortex_field
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig

SIZES = (2048, 8192, 32768)
THETA_FINE, THETA_COARSE = 0.3, 0.6
LEAF_SIZE = 48
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_evaluator.json"


def machine_spec() -> Dict:
    """The hardware/software context a reader needs to judge the rows."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends_usable": list(usable_backends()),
    }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_size(n: int, repeats: int = 3, backend: str = "numpy",
               seed_s: Optional[float] = None) -> Dict:
    """One measurement row for ``n`` particles on one kernel backend.

    ``seed_s`` lets :func:`run_experiment` time the (backend-independent)
    seed reference once per size and share it across backend rows.
    """
    cfg = SheetConfig(n=n, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    pos, ch = ps.positions, ps.charges

    def seed_pair():
        reference_vortex_field(pos, ch, kernel, cfg.sigma,
                               theta=THETA_FINE, leaf_size=LEAF_SIZE)
        reference_vortex_field(pos, ch, kernel, cfg.sigma,
                               theta=THETA_COARSE, leaf_size=LEAF_SIZE)

    if seed_s is None:
        seed_s = _best_of(seed_pair, repeats)

    fine = TreeEvaluator(kernel, cfg.sigma, theta=THETA_FINE,
                         leaf_size=LEAF_SIZE, backend=backend)
    coarse = fine.coarsened(THETA_COARSE)

    def batched_pair_cold():
        fine.cache.clear()
        fine.field(pos, ch)
        coarse.field(pos, ch)

    cold_s = _best_of(batched_pair_cold, repeats)

    # warm: identical state, every pipeline stage cached
    fine.field(pos, ch)
    warm_fine_s = _best_of(lambda: fine.field(pos, ch), repeats)

    # same warm evaluation with tracing + metrics actually recording
    with use_tracer(Tracer()), use_metrics(MetricsRegistry()):
        traced_warm_s = _best_of(lambda: fine.field(pos, ch), repeats)

    fine.cache.clear()
    fine.phases.reset()
    t0 = time.perf_counter()
    fine.field(pos, ch)
    cold_fine_s = time.perf_counter() - t0
    phases = {k: round(v, 6) for k, v in fine.phases.as_dict().items()}

    return {
        "n": n,
        "backend": fine.backend.name,
        "seed_pair_s": round(seed_s, 6),
        "batched_pair_cold_s": round(cold_s, 6),
        "pair_speedup": round(seed_s / cold_s, 3),
        "batched_fine_cold_s": round(cold_fine_s, 6),
        "batched_fine_warm_s": round(warm_fine_s, 6),
        "traced_fine_warm_s": round(traced_warm_s, 6),
        "tracer_on_overhead_pct": round(
            (traced_warm_s / warm_fine_s - 1.0) * 100.0, 2),
        "cache_hit_speedup": round(cold_fine_s / warm_fine_s, 3),
        "phases_cold_fine": phases,
        "cache_stats": fine.cache_stats.as_dict(),
    }


def run_experiment(sizes=SIZES, backends=None) -> Dict:
    if backends is None:
        backends = list(usable_backends())
    if "numpy" in backends:  # numpy first: baseline for vs_numpy_speedup
        backends = ["numpy"] + [b for b in backends if b != "numpy"]
    rows = []
    for n in sizes:
        repeats = 3 if n <= 8192 else 1
        seed_s = None
        numpy_cold = None
        for backend in backends:
            row = bench_size(n, repeats=repeats, backend=backend,
                             seed_s=seed_s)
            seed_s = row["seed_pair_s"]
            if backend == "numpy":
                numpy_cold = row["batched_pair_cold_s"]
            elif numpy_cold is not None:
                row["vs_numpy_speedup"] = round(
                    numpy_cold / row["batched_pair_cold_s"], 3)
            rows.append(row)
    return {
        "benchmark": "evaluator_hotpath",
        "description": "fine+coarse RHS pair: batched engine + TreeState "
                       "cache vs seed per-group implementation, per "
                       "kernel backend",
        "config": {
            "theta_fine": THETA_FINE,
            "theta_coarse": THETA_COARSE,
            "leaf_size": LEAF_SIZE,
            "kernel": "algebraic6",
            "gradient": True,
            "backends": [get_backend(b).describe() for b in backends],
        },
        "machine": machine_spec(),
        "results": rows,
    }


# ---------------------------------------------------------------------------
# pytest entry points (excluded from tier-1 by the `slow` marker)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_pair_speedup_at_8k():
    """Acceptance: >= 3x over the seed path for the full theta pair."""
    row = bench_size(8192, repeats=2)
    assert row["pair_speedup"] >= 3.0


@pytest.mark.slow
def test_cache_hit_speedup():
    """A state-cache hit must skip the position-keyed pipeline stages.

    The batched engine left the cached stages (build/moments/traversal)
    a single-digit percentage of an evaluation, so the contract is
    asserted structurally — the counters must show hits and a warm call
    must not be slower than a cold one — rather than via a large timing
    ratio that the faster pipeline can no longer produce.
    """
    row = bench_size(2048, repeats=2)
    stats = row["cache_stats"]
    assert stats["build_hits"] > 0
    assert stats["moment_hits"] > 0
    assert stats["traversal_hits"] > 0
    assert row["batched_fine_warm_s"] <= 1.05 * row["batched_fine_cold_s"]


def export_phase_trace(n: int = 8192) -> Path:
    """One cold traced evaluation; writes the phase spans as a trace file."""
    from repro.obs import save_trace

    cfg = SheetConfig(n=n, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(cfg)
    fine = TreeEvaluator(get_kernel("algebraic6"), cfg.sigma,
                         theta=THETA_FINE, leaf_size=LEAF_SIZE)
    tracer = Tracer(meta={"benchmark": "evaluator_hotpath", "n": n})
    metrics = MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        fine.field(ps.positions, ps.charges)
    out = OUT_PATH.with_name("BENCH_evaluator_trace.json")
    return save_trace(tracer, out, metrics=metrics)


def _parse_backends(argv: List[str]) -> Optional[List[str]]:
    """Collect ``--backend NAME`` occurrences; None means 'all usable'."""
    names: List[str] = []
    it = iter(range(len(argv)))
    for i in it:
        if argv[i] == "--backend":
            if i + 1 >= len(argv):
                raise SystemExit("--backend requires a name "
                                 f"(one of: {', '.join(usable_backends())})")
            names.append(argv[i + 1])
            next(it, None)
        elif argv[i].startswith("--backend="):
            names.append(argv[i].split("=", 1)[1])
    for name in names:
        get_backend(name)  # fail fast with the actionable message
    return names or None


def main(argv: List[str]) -> None:
    sizes = SIZES[:2] if "--quick" in argv else SIZES
    data = run_experiment(sizes, backends=_parse_backends(argv))
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT_PATH} (cpu_count={data['machine']['cpu_count']})")
    for row in data["results"]:
        extra = (f", vs numpy {row['vs_numpy_speedup']:.2f}x"
                 if "vs_numpy_speedup" in row else "")
        print(f"N={row['n']:>6} [{row['backend']}]: "
              f"seed pair {row['seed_pair_s']:.3f}s, "
              f"batched pair {row['batched_pair_cold_s']:.3f}s "
              f"({row['pair_speedup']:.1f}x), cache-hit "
              f"{row['cache_hit_speedup']:.1f}x, tracer-on overhead "
              f"{row['tracer_on_overhead_pct']:+.1f}%{extra}")
    if "--traced" in argv:
        trace_path = export_phase_trace(sizes[-1])
        print(f"wrote {trace_path} "
              f"(inspect with:  repro-trace summarize {trace_path})")


if __name__ == "__main__":
    main(sys.argv[1:])
