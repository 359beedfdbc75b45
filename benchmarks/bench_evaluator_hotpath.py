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

The ``direct_rhs`` block times the O(N^2) baseline the tree rows are
judged against: ``VortexProblem.rhs`` over a :class:`DirectEvaluator` at
N in {64, 256, 2048} (us per call, ns per pair, error of sampled targets
against a ``longdouble`` sum).  Each sample is a fresh child process with
BLAS pinned to one thread; ``--parent-src DIR`` (the ``src/`` of a
checkout of the parent commit) measures that tree in alternation with
this one and records both sides.  ``--direct`` refreshes only this block
of an existing ``BENCH_evaluator.json``.

Run directly (``python benchmarks/bench_evaluator_hotpath.py``); the
pytest entry points are marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
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
from repro.vortex import (
    DirectEvaluator,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)
from repro.vortex.sheet import SheetConfig

SIZES = (2048, 8192, 32768)
DIRECT_SIZES = (64, 256, 2048)
#: one BLAS thread in every direct-RHS child: the GEMMs are small and the
#: comparison is per core
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
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
# direct-summation RHS rows
# ---------------------------------------------------------------------------

def _longdouble_field(kernel, sigma, pos, ch, sample):
    """Velocity and gradient at ``pos[sample]`` summed in ``longdouble``
    from the docstring formula of :mod:`repro.vortex.rhs` (algebraic
    kernels: the radial pair from their coefficient tables)."""
    ld = np.longdouble
    src, chg = pos.astype(ld), ch.astype(ld)
    vel = np.zeros((len(sample), 3), dtype=ld)
    grad = np.zeros((len(sample), 3, 3), dtype=ld)
    for row, i in enumerate(sample):
        r = src[i] - src
        t = (r * r).sum(axis=1) / ld(sigma) ** 2
        half = ld(kernel._D) / 2
        f = (sum(ld(c) * t**k for k, c in enumerate(kernel._P))
             / (t + 1) ** (half - 1) / ld(sigma) ** 3)
        g = (sum(ld(c) * t**k for k, c in enumerate(kernel._W))
             / (t + 1) ** half / ld(sigma) ** 5)
        cross = np.cross(r, chg)
        fa = (f[:, None] * chg).sum(axis=0)
        vel[row] = (f[:, None] * cross).sum(axis=0)
        grad[row] = np.einsum("p,pi,pk->ik", g, cross, r)
        grad[row] += [[0, fa[2], -fa[1]], [-fa[2], 0, fa[0]],
                      [fa[1], -fa[0], 0]]
    four_pi = 16 * np.arctan(ld(1))
    return -vel / four_pi, -grad / four_pi


def direct_child(n: int) -> Dict:
    """One sample of the direct RHS at ``n`` particles (runs in a child
    process whose ``PYTHONPATH`` selects the tree under test)."""
    cfg = SheetConfig(n=n, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    evaluator = DirectEvaluator(kernel, cfg.sigma)
    problem = VortexProblem(ps.volumes, evaluator)
    u = ps.state()
    problem.rhs(0.0, u)
    t0 = time.perf_counter()
    problem.rhs(0.0, u)
    calls = max(2, int(0.2 / (time.perf_counter() - t0)))
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(calls):
            problem.rhs(0.0, u)
        samples.append((time.perf_counter() - t0) / calls)
    sample = np.linspace(0, n - 1, min(n, 32)).astype(int)
    field = evaluator.field(ps.positions, ps.charges)
    vel, grad = _longdouble_field(kernel, cfg.sigma, ps.positions,
                                  ps.charges, sample)
    return {
        "us_per_rhs": 1e6 * statistics.median(samples),
        "velocity_rel_err": float(np.abs(field.velocity[sample] - vel).max()
                                  / np.abs(vel).max()),
        "gradient_rel_err": float(np.abs(field.gradient[sample] - grad).max()
                                  / np.abs(grad).max()),
    }


def bench_direct_rhs(sizes=DIRECT_SIZES, parent_src: Optional[str] = None,
                     rounds: int = 5) -> Dict:
    """``rounds`` child samples per size and side, sides alternating."""
    sides = {"change": str(SRC_DIR)}
    if parent_src is not None:
        sides["parent"] = str(Path(parent_src).resolve())
    rows = []
    for n in sizes:
        samples: Dict[str, List[Dict]] = {side: [] for side in sides}
        for k in range(rounds):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for side in order:
                env = dict(os.environ, PYTHONPATH=sides[side], **PINNED)
                done = subprocess.run(
                    [sys.executable, __file__, "--direct-child", str(n)],
                    env=env, check=True, capture_output=True, text=True,
                )
                samples[side].append(json.loads(done.stdout))
        row: Dict = {"n": n, "pairs": n * n}
        for side, got in samples.items():
            us = statistics.median(s["us_per_rhs"] for s in got)
            row[side] = {
                "us_per_rhs": round(us, 1),
                "ns_per_pair": round(1e3 * us / (n * n), 2),
                "us_per_rhs_samples": [round(s["us_per_rhs"], 1) for s in got],
                "velocity_rel_err": got[0]["velocity_rel_err"],
                "gradient_rel_err": got[0]["gradient_rel_err"],
            }
        if "parent" in row:
            row["speedup"] = round(
                row["parent"]["us_per_rhs"] / row["change"]["us_per_rhs"], 2)
        rows.append(row)
    return {
        "description": "VortexProblem.rhs over DirectEvaluator "
                       "(algebraic6, gradient, sigma = 3 h sheet): median "
                       "of per-child medians, one fresh child per sample, "
                       "sides alternating; errors of 32 sampled targets "
                       "against a longdouble sum",
        "blas_threads": 1,
        "rounds": rounds,
        "machine": machine_spec(),
        "rows": rows,
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


def _option(argv: List[str], name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


def main(argv: List[str]) -> None:
    if "--direct-child" in argv:
        print(json.dumps(direct_child(int(_option(argv, "--direct-child")))))
        return
    if "--direct" in argv:  # refresh the direct rows, keep the tree rows
        data = json.loads(OUT_PATH.read_text())
    else:
        sizes = SIZES[:2] if "--quick" in argv else SIZES
        data = run_experiment(sizes, backends=_parse_backends(argv))
    data["direct_rhs"] = bench_direct_rhs(
        parent_src=_option(argv, "--parent-src"))
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    direct = data["direct_rhs"]
    print(f"wrote {OUT_PATH} (cpu_count={direct['machine']['cpu_count']})")
    for row in direct["rows"]:
        sides = ", ".join(
            f"{side} {row[side]['us_per_rhs']:.0f} us "
            f"({row[side]['ns_per_pair']:.1f} ns/pair)"
            for side in ("parent", "change") if side in row
        )
        print(f"direct N={row['n']:>5}: {sides}"
              + (f", {row['speedup']:.2f}x" if "speedup" in row else ""))
    if "--direct" in argv:
        return
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
