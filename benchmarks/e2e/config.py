"""Pinned configuration of the end-to-end benchmark.

Everything a run depends on is a constant of this file: the physics,
the four workloads (full and ``--smoke`` sizes), the golden-reference
grids, the metric tables and the thread environment.  Nothing here
imports NumPy or ``repro`` so the parent process stays light and the
child's ``setup_s`` sees the whole import cost.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_DIR = HERE / "references"

#: how long one run measures unless ``--seconds`` says otherwise
#: (``run_seconds`` of BENCHMARK.json)
RUN_SECONDS = 16

#: Every child runs with BLAS pinned to one thread: the program's own
#: ``ProcessExecutor`` / ``threaded`` backend must be the only source of
#: concurrency, never more runnable threads than ``nproc``.  Sizing runs
#: on the 2-core host measured PFASST(2,2,4) at N=2000 at 13.4 s with
#: default OpenBLAS threading against 10.9 s pinned.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: pinned physics of every workload and reference
PHYSICS = {
    "sheet": "spherical",
    "placement": "fibonacci",
    "radius": 1.0,
    "kernel": "algebraic6",
    "sigma_over_h": 3.0,
    "stretching": "transpose",
}
TREE = {
    "leaf_size": 48,
    "order": 2,
    "theta_fine": 0.3,
    "theta_coarse": 0.6,
}
#: N of the warm-up RHS every child evaluates at the end of set-up
WARMUP_N = 1024

# -- golden references -------------------------------------------------
#: one entry per committed ``references/sheet_<key>.npz``: the sheet
#: solution with DirectEvaluator + high-order SDC at every multiple of
#: ``store_dt`` up to ``t_end``
REFERENCES: Dict[str, Dict[str, Any]] = {
    "n2048": {"n": 2048, "t_end": 1.0, "store_dt": 0.0625},
    "n64": {"n": 64, "t_end": 2.0, "store_dt": 1.0 / 128.0},
    # --smoke sizes of fig8-n2k / grid-proc-n2k
    "n256": {"n": 256, "t_end": 0.5, "store_dt": 0.0625},
}


def digest(obj: Any) -> str:
    """Stable short digest of a JSON-able configuration."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_digest(key: str) -> str:
    """Digest a reference file must carry to be accepted for ``key``."""
    return digest({"physics": PHYSICS, "grid": REFERENCES[key]})


# -- workloads ----------------------------------------------------------
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig8-n2k": {
        "why": "the paper's Fig. 8 point inline: serial SDC(4) then "
               "PFASST(2,2,4) on one shared tree pair; whole-run number "
               "in the near-field-dominated tree regime, cache partly warm",
        "full": {
            "n": 2048, "dt": 0.125, "steps": 4, "p_time": 4,
            "iterations": 2, "sdc_nodes": 3, "sdc_sweeps": 4,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n2048",
            # hard check-point tolerance: 2x the seed error_rel (5.95e-5)
            "tolerance": 1.2e-4,
        },
        "smoke": {
            "n": 256, "dt": 0.125, "steps": 4, "p_time": 4,
            "iterations": 2, "sdc_nodes": 3, "sdc_sweeps": 4,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n256",
            "tolerance": 4.1e-9,
        },
    },
    "tree-cold-n16k": {
        "why": "the tree code alone on seeded cold states: far field plus "
               "layout outweigh the near field, no PFASST/SDC/simmpi work, "
               "so a tree change shows undiluted and a controller change "
               "must not move it",
        "full": {
            "n": 16384, "states": 3, "jitter_over_h": 1.0e-3,
            "samples": 512,
            # 2x the seed values (1.2e-4 fine, 2.03e-3 coarse)
            "tolerance_fine": 2.4e-4, "tolerance_coarse": 4.1e-3,
        },
        "smoke": {
            "n": 1024, "states": 2, "jitter_over_h": 1.0e-3,
            "samples": 128,
            "tolerance_fine": 7.9e-5, "tolerance_coarse": 1.22e-3,
        },
    },
    "grid-proc-n2k": {
        "why": "PFASST(2,2,4) on the P_T=4 x P_S=2 grid through a 2-worker "
               "ProcessExecutor: per-shard segments, per-worker caches, "
               "branch exchange, dispatch and shared-memory staging on "
               "real cores",
        "full": {
            "n": 2048, "dt": 0.0625, "steps": 8, "p_time": 4, "p_space": 2,
            "workers": 2, "iterations": 2,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n2048",
            # 2x the seed error_rel (1.95e-5)
            "tolerance": 3.9e-5,
        },
        "smoke": {
            "n": 256, "dt": 0.0625, "steps": 4, "p_time": 4, "p_space": 2,
            "workers": 2, "iterations": 2,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n256",
            "tolerance": 1.2e-10,
        },
    },
    "ctrl-n64": {
        "why": "framework-dominated: N=64 direct sum on the P_T=4 x P_N=3 "
               "node grid with the diagonal sweeper, warm-restart protocol "
               "and vector clocks, so controller, sweeper and simmpi "
               "overheads are visible",
        "full": {
            "n": 64, "dt": 1.0 / 128.0, "steps": 256, "p_time": 4,
            "p_nodes": 3, "iterations": 3,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n64",
            # the seed error sits at round-off: 2x ERROR_FLOOR
            "tolerance": 2.0e-12,
        },
        "smoke": {
            "n": 64, "dt": 1.0 / 128.0, "steps": 8, "p_time": 4,
            "p_nodes": 3, "iterations": 3,
            "fine": [3, 1], "coarse": [2, 2], "reference": "n64",
            "tolerance": 2.0e-12,
        },
    },
}


def workload_config(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The pinned config of one workload, physics and tree included."""
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}"
        )
    cfg = dict(WORKLOADS[name]["smoke" if smoke else "full"])
    cfg["physics"] = PHYSICS
    cfg["tree"] = TREE
    return cfg


def expected_checks(name: str, cfg: Dict[str, Any]) -> int:
    """Check points one run of a workload verifies: SDC step values plus
    last-block slice end values, or two sampled-target checks per state."""
    if name == "tree-cold-n16k":
        return 2 * cfg["states"]
    if name == "fig8-n2k":
        return cfg["steps"] + cfg["p_time"]
    return cfg["p_time"]


#: ``error_rel`` saturates here: below it an error is indistinguishable
#: from round-off, and a relative bound on round-off would flag any
#: reordering of floating-point operations as a regression
ERROR_FLOOR = 1.0e-12

# -- metrics ------------------------------------------------------------
#: name -> (unit, better, bound).  The bound is how far the median may
#: worsen before a change counts as a regression, as a share of the base
#: median.  The issue's starting bounds (wall 10-15%, setup 20%, CPU 10%)
#: did not survive the A/A procedure on the baseline host, whose speed
#: moves by 20-40% over half an hour: ``baseline/bounds.json`` derives
#: these from two A/A sets and two ten-seed runs; 0.25 is the largest
#: bound BENCHMARK.json may carry.  ``ops_failed_share`` is reported by
#: every native results file; BENCHMARK.json carries it as the contract's
#: ``failed`` / ``attempted`` because a metric listed there must never
#: read 0.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_user_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "error_rel": ("rel", "lower", 0.25),
    "ops_failed_share": ("share", "lower", 0.0),
}
#: per-workload bounds tighter than the table above: the BLAS-bound
#: inline workload held within 5% in every set
BOUNDS: Dict[str, Dict[str, float]] = {
    "fig8-n2k": {"wall_s": 0.15, "cpu_user_s": 0.15},
}


def bound_of(workload: str, metric: str) -> float:
    """The bound of ``metric`` on ``workload``."""
    return BOUNDS.get(workload, {}).get(metric, END_TO_END[metric][2])


_S, _US, _CNT, _B, _RATIO = "s", "us", "count", "bytes", "ratio"
_LEVELS = ("fine", "coarse")


def _per_level(stem: str, unit: str, better: str = "lower"):
    return {f"{stem}.{lv}": (unit, better) for lv in _LEVELS}


#: name -> (unit, better).  Units ``count`` and ``bytes`` repeat exactly
#: run to run; times do not.
PER_LAYER: Dict[str, tuple] = {
    "tree.build_s": (_S, "lower"),
    "tree.moments_s": (_S, "lower"),
    **_per_level("tree.traverse_s", _S),
    **_per_level("tree.layout_s", _S),
    **_per_level("tree.far_s", _S),
    **_per_level("tree.near_s", _S),
    **_per_level("tree.mac_tests", _CNT),
    **_per_level("tree.far_pairs", _CNT),
    **_per_level("tree.near_pairs", _CNT),
    **_per_level("tree.interactions_per_particle", _CNT),
    "tree.cache.build_hit_ratio": (_RATIO, "higher"),
    "tree.cache.moment_hit_ratio": (_RATIO, "higher"),
    "tree.cache.traversal_hit_ratio": (_RATIO, "higher"),
    "tree.eval_s.fine_cold": (_S, "lower"),
    "tree.eval_s.coarse_shared": (_S, "lower"),
    "tree.eval_s.fine_warm": (_S, "lower"),
    "tree.theta_cost_ratio": (_RATIO, "higher"),
    **_per_level("tree.rel_err", "rel"),
    "tree.segment_s": (_S, "lower"),
    "tree.shard_imbalance": (_RATIO, "lower"),
    "backends.near_s.numpy": (_S, "lower"),
    "backends.near_s.threaded": (_S, "lower"),
    **_per_level("vortex.rhs_calls", _CNT),
    **_per_level("vortex.rhs_s", _S),
    "vortex.direct_rhs_us": (_US, "lower"),
    "sdc.serial_s": (_S, "lower"),
    "sdc.sweep_self_us": (_US, "lower"),
    "sdc.residual_final": ("abs", "lower"),
    "pfasst.run_s": (_S, "lower"),
    "pfasst.self_s": (_S, "lower"),
    "pfasst.makespan_s": (_S, "lower"),
    "pfasst.speedup_virtual": (_RATIO, "higher"),
    "pfasst.alpha_measured": (_RATIO, "lower"),
    "pfasst.iterations_done": (_CNT, "lower"),
    "pfasst.residual_final": ("abs", "lower"),
    "pfasst.transfer_us": (_US, "lower"),
    "pfasst.fas_us": (_US, "lower"),
    "pfasst.checkpoint_save_ms": ("ms", "lower"),
    "pfasst.checkpoint_bytes": (_B, "lower"),
    "parallel.mpi_messages": (_CNT, "lower"),
    "parallel.mpi_bytes": (_B, "lower"),
    "parallel.space_branch_bytes": (_B, "lower"),
    "parallel.node_rhs_bytes": (_B, "lower"),
    "parallel.msg_us": (_US, "lower"),
    "parallel.executor.dispatch_s": (_S, "lower"),
    "parallel.executor.task_s": (_S, "lower"),
    "parallel.executor.mainloop_s": (_S, "lower"),
    "parallel.executor.efficiency": (_RATIO, "higher"),
    "parallel.executor.shm_bytes": (_B, "lower"),
    "parallel.executor.batches": (_CNT, "lower"),
    "parallel.executor.batch_width_mean": (_CNT, "higher"),
    "obs.tracer_overhead_pct": ("%", "lower"),
    "core.import_s": (_S, "lower"),
    "harness.cpu_sys_s": (_S, "lower"),
    "harness.verify_s": (_S, "lower"),
    "harness.loadavg_start": ("load", "lower"),
    "harness.unattributed_pct": ("%", "lower"),
}
EXACT_UNITS = (_CNT, _B)

#: regime-guard thresholds (see README, "Regime guards")
GUARDS = {
    "fig8.rhs_share_min": 0.95,
    "fig8.near_share_min": 0.60,
    "ctrl.outside_rhs_share_min": 0.35,
    "grid.workers_min": 2,
    "grid.batch_width_mean_min": 2.0,
    "unattributed_pct_max": 3.0,
}
