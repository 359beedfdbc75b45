"""The committed end-to-end references match the pinned benchmark config.

``benchmarks/e2e/harness.Reference`` refuses a reference file whose
digest differs from ``config.reference_digest(key)``, but only when a
benchmark child loads it.  Reading the same digests here makes an edit
to ``PHYSICS`` / ``REFERENCES`` of ``benchmarks/e2e/config.py`` (or a
stale ``.npz``) fail in tier-1.  Read-only: the digest tests load only
the small ``meta`` member of each file; the ``ctrl-n64`` guard at the end
also reads the 256 stored states of ``sheet_n64.npz``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _load_config():
    spec = importlib.util.spec_from_file_location(
        "e2e_config_for_tier1", E2E / "config.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


config = _load_config()


def test_every_pinned_reference_has_a_file_and_nothing_else_does():
    files = {p.name for p in (E2E / "references").glob("sheet_*.npz")}
    assert files == {f"sheet_{key}.npz" for key in config.REFERENCES}


@pytest.mark.parametrize("key", sorted(config.REFERENCES))
def test_reference_carries_the_pinned_digest(key):
    path = E2E / "references" / f"sheet_{key}.npz"
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert meta["digest"] == config.reference_digest(key)
    assert meta["physics"] == config.PHYSICS
    assert meta["grid"] == config.REFERENCES[key]


# -- the ctrl-n64 hard tolerance, in tier-1 --------------------------------
#
# ``ctrl-n64`` checks direct-sum PFASST against ``sheet_n64.npz`` at
# 2e-12, round-off level for 8 steps: a direct-kernel change that loses
# a digit fails the benchmark.  The same shape at ``--smoke`` size runs
# here so that it fails in pytest first.


def _ctrl_smoke_run(**grid):
    from repro.parallel import CommCostModel
    from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
    from repro.vortex import (
        DirectEvaluator,
        SheetConfig,
        VortexProblem,
        spherical_vortex_sheet,
    )

    cfg = config.workload_config("ctrl-n64", smoke=True)
    phys = config.PHYSICS
    sheet_cfg = SheetConfig(
        n=cfg["n"], radius=phys["radius"],
        sigma_over_h=phys["sigma_over_h"], placement=phys["placement"],
    )
    sheet = spherical_vortex_sheet(sheet_cfg)
    problem = VortexProblem(
        sheet.volumes, DirectEvaluator(phys["kernel"], sheet_cfg.sigma),
        phys["stretching"],
    )
    (mf, sf), (mc, sc) = cfg["fine"], cfg["coarse"]
    specs = [
        LevelSpec(problem, num_nodes=mf, sweeps=sf, sweeper="diagonal"),
        LevelSpec(problem, num_nodes=mc, sweeps=sc, sweeper="diagonal"),
    ]
    run_config = PfasstConfig(
        t0=0.0, t_end=cfg["steps"] * cfg["dt"], n_steps=cfg["steps"],
        iterations=cfg["iterations"], recovery="warm-restart",
    )
    result = run_pfasst(
        run_config, specs, sheet.state(), p_time=cfg["p_time"],
        cost_model=CommCostModel(), **grid,
    )
    return cfg, result


@pytest.fixture(scope="module")
def ctrl_smoke():
    return _ctrl_smoke_run(p_nodes=3)


def test_ctrl_n64_smoke_meets_the_benchmark_tolerance(ctrl_smoke):
    cfg, result = ctrl_smoke
    path = E2E / "references" / f"sheet_{cfg['reference']}.npz"
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        states = data["states"]
    store_dt = meta["grid"]["store_dt"]

    def error_at(u, t):
        k = round(t / store_dt)
        assert abs(k * store_dt - t) < 1e-12
        ref = states[k - 1]
        return np.max(np.abs(u[0] - ref[0])) / np.max(np.abs(ref[0]))

    steps, p_time, dt = cfg["steps"], cfg["p_time"], cfg["dt"]
    assert len(result.slice_end_values) == p_time
    for j, value in enumerate(result.slice_end_values):
        assert error_at(value, (steps - p_time + j + 1) * dt) <= cfg["tolerance"]
    assert error_at(result.u_end, steps * dt) <= cfg["tolerance"]


def test_ctrl_n64_smoke_is_bitwise_across_node_ranks_and_executors(ctrl_smoke):
    from repro.parallel.executor import SerialExecutor

    _, sharded = ctrl_smoke
    for grid in ({"p_nodes": 1}, {"p_nodes": 3, "executor": SerialExecutor()}):
        _, other = _ctrl_smoke_run(**grid)
        assert other.u_end.tobytes() == sharded.u_end.tobytes()
        assert other.residuals == sharded.residuals
