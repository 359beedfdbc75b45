"""Kernel-backend seam: registry, selection, fallback, and equivalence.

Covers the :mod:`repro.backends` contract:

* registry and resolution order (argument > ``REPRO_BACKEND`` > numpy);
* actionable errors — unknown names list the valid ones;
* the ``threaded`` backend is *bitwise identical* to the numpy
  reference at theta = 0 and theta = 0.6, including with a forced
  multi-worker pool and tiny batch budgets (many batches in flight);
* backends pickle as their registry name, so evaluators survive
  :class:`~repro.parallel.executor.ProcessExecutor` dispatch;
* a whole PFASST run on ``threaded`` evaluators is bitwise the numpy run.
"""

import os
import pickle

import numpy as np
import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KernelBackend,
    ThreadedBackend,
    get_backend,
    usable_backends,
)
from repro.tree import TreeEvaluator
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


@pytest.fixture
def sheet():
    cfg = SheetConfig(n=600)
    return spherical_vortex_sheet(cfg), cfg, get_kernel("algebraic6")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_BACKEND_THREADS", raising=False)


class TestRegistryAndResolution:
    def test_all_three_backends_registered(self):
        """Two since the cupy backend left; the id is pinned."""
        assert usable_backends() == ("numpy", "threaded")

    def test_cpu_backends_always_usable(self):
        usable = usable_backends()
        assert "numpy" in usable
        assert "threaded" in usable

    def test_default_is_numpy(self, clean_env):
        assert get_backend() is get_backend(DEFAULT_BACKEND)
        assert get_backend().name == "numpy"

    def test_explicit_name_resolves_singleton(self):
        assert get_backend("threaded") is get_backend("threaded")
        assert get_backend("numpy").device == "cpu"

    def test_instance_passes_through(self):
        b = get_backend("numpy")
        assert get_backend(b) is b

    def test_name_is_case_and_space_insensitive(self):
        assert get_backend(" NumPy ") is get_backend("numpy")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threaded")
        assert get_backend().name == "threaded"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threaded")
        assert get_backend("numpy").name == "numpy"

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            get_backend("torch")
        msg = str(exc.value)
        assert "torch" in msg
        assert "numpy, threaded" in msg

    def test_misset_env_var_is_actionable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "gpu-please")
        with pytest.raises(ValueError) as exc:
            get_backend()
        msg = str(exc.value)
        assert ENV_VAR in msg  # names the source of the bad value
        assert "gpu-please" in msg
        assert "numpy, threaded" in msg

    def test_describe_reports_contract_fields(self):
        for name in ("numpy", "threaded"):
            info = get_backend(name).describe()
            assert info["name"] == name
            assert info["device"] == "cpu"


class TestThreadedEquivalence:
    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_bitwise_identical_to_numpy(self, sheet, theta, monkeypatch):
        """The headline contract: threaded == numpy, byte for byte.

        Forces a 4-worker pool and a tiny batch budget so many batches
        are genuinely in flight even on a 1-core CI host.
        """
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "4")
        ps, cfg, kernel = sheet
        kw = dict(theta=theta, leaf_size=16, batch_budget_bytes=200_000)
        ref = TreeEvaluator(kernel, cfg.sigma, **kw).field(
            ps.positions, ps.charges
        )
        out = TreeEvaluator(
            kernel, cfg.sigma, backend="threaded", **kw
        ).field(ps.positions, ps.charges)
        assert (out.velocity == ref.velocity).all()
        assert (out.gradient == ref.gradient).all()

    def test_velocity_only_bitwise(self, sheet, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "4")
        ps, cfg, kernel = sheet
        kw = dict(theta=0.6, leaf_size=16, batch_budget_bytes=200_000)
        ref = TreeEvaluator(kernel, cfg.sigma, **kw).field(
            ps.positions, ps.charges, gradient=False
        )
        out = TreeEvaluator(
            kernel, cfg.sigma, backend="threaded", **kw
        ).field(ps.positions, ps.charges, gradient=False)
        assert (out.velocity == ref.velocity).all()
        assert out.gradient is None and ref.gradient is None

    def test_env_selection_reaches_engine(self, sheet, monkeypatch):
        """REPRO_BACKEND alone must route the near pass (no kwargs)."""
        ps, cfg, kernel = sheet
        ref = TreeEvaluator(kernel, cfg.sigma, theta=0.6).field(
            ps.positions, ps.charges
        )
        monkeypatch.setenv(ENV_VAR, "threaded")
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "2")
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.6)
        assert ev.backend.name == "threaded"
        out = ev.field(ps.positions, ps.charges)
        assert (out.velocity == ref.velocity).all()

    @pytest.mark.parametrize(
        "cls", [TreeEvaluator, SpaceParallelTreeEvaluator]
    )
    def test_coarsened_inherits_backend(self, sheet, cls):
        ps, cfg, kernel = sheet
        fine = cls(kernel, cfg.sigma, backend="threaded")
        coarse = fine.coarsened(0.6)
        assert type(coarse) is cls
        assert coarse.backend is fine.backend

    def test_worker_count_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND_THREADS", raising=False)
        assert ThreadedBackend(max_workers=3).workers == 3
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "5")
        assert ThreadedBackend().workers == 5
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_BACKEND_THREADS"):
            ThreadedBackend().workers

    def test_batch_exception_surfaces_at_call_site(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "2")
        b = ThreadedBackend()

        def boom(batch):
            raise RuntimeError(f"batch {batch} failed")

        with pytest.raises(RuntimeError, match="batch"):
            b.map_batches(boom, [np.arange(1), np.arange(2)])


class TestExecutorSurvival:
    """Backend choice must survive a pickle across a process boundary."""

    def test_backend_pickles_to_singleton(self):
        for name in ("numpy", "threaded"):
            b = get_backend(name)
            assert pickle.loads(pickle.dumps(b)) is b

    def test_evaluator_with_backend_roundtrips(self, sheet):
        ps, cfg, kernel = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.6, backend="threaded")
        ref = ev.field(ps.positions, ps.charges)
        clone = pickle.loads(pickle.dumps(ev))
        assert clone.backend is ev.backend
        out = clone.field(ps.positions, ps.charges)
        assert (out.velocity == ref.velocity).all()

    def test_threaded_pool_is_not_pickled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "2")
        b = ThreadedBackend()
        b.map_batches(lambda _: None, [np.arange(1), np.arange(2)])
        assert b._pool is not None  # pool exists...
        state = pickle.dumps(b)  # ...but pickling reduces to the name
        assert b"ThreadPoolExecutor" not in state


class TestRunPfasstPlumbing:
    def test_backend_kwarg_rebinds_evaluators(self, sheet):
        from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
        from repro.vortex.problem import VortexProblem

        ps, cfg, kernel = sheet

        def specs(backend):
            fine, coarse = (
                VortexProblem(ps.volumes, TreeEvaluator(
                    kernel, cfg.sigma, theta=theta, leaf_size=32,
                    backend=backend,
                ))
                for theta in (0.3, 0.6)
            )
            assert fine.evaluator.backend.name == backend
            return [LevelSpec(fine, 3, 1), LevelSpec(coarse, 2, 1)]

        u0 = ps.state()
        config = PfasstConfig(t0=0.0, t_end=0.01, n_steps=2, iterations=1)
        ref = run_pfasst(config, specs("numpy"), u0, p_time=2)
        out = run_pfasst(config, specs("threaded"), u0, p_time=2)
        # threaded is bitwise identical, so the whole run must be too
        assert (out.u_end == ref.u_end).all()


class TestCustomBackend:
    def test_register_and_resolve_a_custom_backend(self):
        """docs/backends.md 'adding a backend' recipe must keep working."""
        from repro.backends import register_backend

        calls = []

        class RecordingBackend(KernelBackend):
            name = "recording-test"
            device = "cpu"

            def map_batches(self, fn, batches):
                calls.append(len(list(batches)))
                for b in batches:
                    fn(b)

        try:
            register_backend(RecordingBackend())
            b = get_backend("recording-test")
            b.map_batches(lambda _: None, [np.arange(2)] * 3)
            assert calls == [3]
        finally:
            from repro import backends as _pkg

            _pkg._REGISTRY.pop("recording-test", None)
