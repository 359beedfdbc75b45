"""Execution-backend byte-identity suite.

The executor contract (``src/repro/parallel/executor.py``) is that the
choice of backend is *invisible* to the numerics and the discrete-event
semantics: results, residual histories and virtual clocks freeze to the
same bytes whether compute payloads run inline (``SerialExecutor``) or
on real cores (``ProcessExecutor``) — under plain runs, on the space-time
grid, under ``verify=True`` replay, with a fault plan injecting a crash,
with a tracer attached, and in the degenerate one-worker pool.
"""

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.obs.tracer import Tracer
from repro.parallel.executor import (
    ComputeTask,
    Compute,
    DispatchContext,
    PayloadPicklingError,
    ProcessExecutor,
    SerialExecutor,
)
from repro.parallel.faults import FaultPlan, RankCrash
from repro.parallel.simmpi import Scheduler
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex.particles import pack_state
from repro.vortex.problem import ODEProblem, VortexProblem


def _specs(problem):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1),
        LevelSpec(problem, num_nodes=2, sweeps=2),
    ]


def _config(**kw):
    kw.setdefault("t0", 0.0)
    kw.setdefault("t_end", 0.4)
    kw.setdefault("n_steps", 4)
    kw.setdefault("iterations", 3)
    return PfasstConfig(**kw)


def _frozen(res):
    """Backend-invariant fingerprint: numerics + virtual clocks.

    Deliberately excludes ``evaluator_stats`` (driver-side RHS call
    counters read ~0 when the calls run in workers) and wall-clock
    artefacts.
    """
    return (
        freeze(res.u_end),
        tuple(freeze(v) for v in res.slice_end_values),
        tuple(tuple(r) for r in res.residuals),
        tuple(res.clocks),
        res.iterations_done,
    )


class _UnpicklableMember:
    """Registered payload carrying a lambda — rejected at pool start."""

    def __init__(self):
        self.hook = lambda: None  # unpicklable member

    def rhs(self, t, u):
        return u


class _Exploding:
    """Payload whose method raises — checks worker exception transport."""

    def rhs(self, t, u):
        raise ValueError("boom at t=%r" % t)


def _grid_problem():
    rng = np.random.default_rng(7)
    n = 96
    u0 = pack_state(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    volumes = np.full(n, 1.0 / n)
    evaluator = SpaceParallelTreeEvaluator(
        "algebraic2", 0.3, theta=0.5, leaf_size=16
    )
    problem = VortexProblem(volumes, evaluator)
    return problem, u0


class TestSerialBackend:
    def test_matches_no_executor(self, linear_problem):
        """SerialExecutor is byte-identical to dispatch disabled."""
        u0 = np.array([1.0, 2.0])
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=4)
        res = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=4,
            executor=SerialExecutor(),
        )
        assert _frozen(res) == _frozen(base)

    def test_dispatch_counters_recorded(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        res = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=4,
            executor=SerialExecutor(),
        )
        counters = res.metrics["counters"]
        assert counters["executor.dispatches{backend=serial}"] > 0

    def test_compute_without_executor_raises(self):
        def prog(comm):
            yield Compute(ComputeTask("p", "rhs", args=(0.0,)))

        with pytest.raises(TypeError, match="Compute"):
            Scheduler(1).run(prog)


class TestProcessIdentity:
    """Frozen-bytes Process-vs-Serial across every scheduler feature."""

    def _pair(self, specs, u0, executor_kw=None, **kw):
        serial = run_pfasst(specs=specs, u0=u0, executor=SerialExecutor(), **kw)
        with ProcessExecutor(**(executor_kw or {"max_workers": 2})) as ex:
            process = run_pfasst(specs=specs, u0=u0, executor=ex, **kw)
        return serial, process

    def test_time_parallel_pt4(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        serial, process = self._pair(
            _specs(linear_problem), u0, config=_config(), p_time=4
        )
        assert _frozen(process) == _frozen(serial)

    def test_space_time_grid(self):
        problem, u0 = _grid_problem()
        serial, process = self._pair(
            _specs(problem), u0,
            config=_config(t_end=0.04, n_steps=2, iterations=2),
            p_time=2, p_space=2,
        )
        assert _frozen(process) == _frozen(serial)
        counters = process.metrics["counters"]
        # the far/near tree segments really crossed the process boundary
        assert any(
            k.startswith("executor.dispatches{") and "field_segment" in k
            for k in counters
        )
        assert counters["executor.shm_bytes"] > 0

    def test_under_verify_replay(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        serial, process = self._pair(
            _specs(linear_problem), u0, config=_config(), p_time=4,
            verify=True,
        )
        assert _frozen(process) == _frozen(serial)

    def test_with_fault_plan(self, linear_problem):
        """A crash + warm restart recovers identically on both backends."""
        u0 = np.array([1.0, 2.0])
        plan = FaultPlan(crashes=(RankCrash(rank=2, after_ops=40),))
        serial, process = self._pair(
            _specs(linear_problem), u0,
            config=_config(
                t_end=1.0, iterations=30, residual_tol=1e-11,
                recovery="warm-restart",
            ),
            p_time=4, fault_plan=plan,
        )
        assert serial.recoveries and process.recoveries
        assert serial.recoveries == process.recoveries
        assert _frozen(process) == _frozen(serial)

    def test_with_tracer(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        tracers = {}
        results = {}
        for name, ex in (
            ("serial", SerialExecutor()),
            ("process", ProcessExecutor(max_workers=2)),
        ):
            tracers[name] = Tracer()
            with ex:
                results[name] = run_pfasst(
                    _config(trace=True), _specs(linear_problem), u0,
                    p_time=4, executor=ex, tracer=tracers[name],
                )
        assert _frozen(results["process"]) == _frozen(results["serial"])

        def vspans(tr):
            return [
                (s.name, s.track, s.t0, s.t1)
                for s in tr.spans if s.clock == "virtual"
            ]

        # virtual-time schedule identical (recording order is an artifact
        # of the service interleaving); wall spans land on worker tracks
        assert sorted(vspans(tracers["process"])) == sorted(
            vspans(tracers["serial"])
        )
        worker_tracks = {
            s.track for s in tracers["process"].spans
            if s.track.startswith("worker")
        }
        assert worker_tracks  # at least one worker recorded wall spans

    def test_max_workers_one(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        serial, process = self._pair(
            _specs(linear_problem), u0, config=_config(), p_time=4,
            executor_kw={"max_workers": 1},
        )
        assert _frozen(process) == _frozen(serial)


class TestMetricsContract:
    def test_counter_totals_match_serial(self):
        """All counters except executor diagnostics, cache-placement
        splits, the scheduler's switch-in / stall counts and the work a
        cache hit skips are exactly equal; cache hits+misses totals
        always are."""
        problem, u0 = _grid_problem()
        kw = dict(
            config=_config(t_end=0.04, n_steps=2, iterations=2),
            p_time=2, p_space=2,
        )
        serial = run_pfasst(
            specs=_specs(problem), u0=u0, executor=SerialExecutor(), **kw
        )
        with ProcessExecutor(max_workers=2) as ex:
            process = run_pfasst(specs=_specs(problem), u0=u0, executor=ex, **kw)

        # executed-work counters: a memoised evaluation runs no batch,
        # and which evaluations a worker has seen depends on placement
        executed = ("tree.far.batches", "tree.near.batches",
                    "tree.near.padded_pairs")
        # a dispatching backend parks ranks at the barrier, so they are
        # switched in (and the loop stalls) more often; the operations
        # they yield (sched.ops) are the same
        placement = ("executor.", "tree.cache.", "sched.resumes",
                     "sched.stalls")

        def comparable(res):
            return {
                k: v for k, v in res.metrics["counters"].items()
                if not k.startswith(placement) and k not in executed
            }

        assert comparable(process) == comparable(serial)
        for name in ("tree.evaluations", "tree.mac_tests",
                     "tree.far_pairs", "tree.near_pairs", "sched.ops"):
            assert name in comparable(serial)

        def cache_total(res, kind):
            return sum(
                v for k, v in res.metrics["counters"].items()
                if k.startswith("tree.cache.") and k.endswith(kind)
            )

        # hit/miss *split* depends on worker placement, the totals do not
        total_s = cache_total(serial, "hits") + cache_total(serial, "misses")
        total_p = cache_total(process, "hits") + cache_total(process, "misses")
        assert total_p == total_s

    def test_registry_merge_accepts_registry_and_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        a = MetricsRegistry()
        a.counter("x", rank=0).inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h").observe(3.0)
        b = MetricsRegistry()
        b.counter("x", rank=0).inc(3)
        b.gauge("g").set(2.0)
        b.histogram("h").observe(5.0)

        merged = MetricsRegistry()
        merged.merge(a)
        merged.merge(b.as_dict())  # snapshot form, as workers return it
        out = merged.as_dict()
        assert out["counters"]["x{rank=0}"] == 5
        assert out["gauges"]["g"] == 2.0
        assert out["histograms"]["h"]["count"] == 2
        assert out["histograms"]["h"]["total"] == 8.0


class TestPicklingErrors:
    def test_unpicklable_payload_rejected_at_start(self):
        ex = ProcessExecutor(max_workers=1)
        ex.register("bad", _UnpicklableMember())
        with pytest.raises(PayloadPicklingError, match="bad"):
            ex.start()
        ex.close()

    def test_unpicklable_message_payload_names_rank_and_tag(self):
        """Under a process backend the 64-byte UserWarning fallback
        becomes a structured error naming the offending send."""

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "edge", lambda: None)
            else:
                yield comm.recv(0, "edge")

        with ProcessExecutor(max_workers=1) as ex:
            sched = Scheduler(2, executor=ex)
            with pytest.raises(PayloadPicklingError) as info:
                sched.run(prog)
        assert info.value.rank == 0
        assert info.value.dest == 1
        assert info.value.tag == "edge"
        assert "rank 0" in str(info.value)
        assert "edge" in str(info.value)

    def test_worker_exception_rethrown_into_program(self):
        def prog(comm, dispatch):
            with pytest.raises(ValueError, match="boom"):
                yield Compute(
                    ComputeTask("p", "rhs", args=(1.5,), arrays=(np.ones(3),))
                )
            return "survived"

        for ex in (SerialExecutor(), ProcessExecutor(max_workers=1)):
            with ex:
                ctx = DispatchContext(ex)
                ctx.register("p", _Exploding())
                out = Scheduler(1, executor=ex).run(prog, args=(ctx,))
            assert out == ["survived"]


class TestDispatchContext:
    def test_key_of_identity_matching(self):
        ex = SerialExecutor()
        ctx = DispatchContext(ex)
        obj = object()
        ctx.register("k", obj)
        assert ctx.key_of(obj) == "k"
        assert ctx.key_of(object()) is None

    def test_register_conflicting_object_rejected(self):
        ex = SerialExecutor()
        ex.register("k", object())
        with pytest.raises(ValueError, match="already registered"):
            ex.register("k", object())


class _LinearTwin(ODEProblem):
    """Serial-side problem numerically identical to :class:`_KillOnce`."""

    matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t, u):
        return self.matrix @ u


class _KillOnce(ODEProblem):
    """Payload whose first ``rhs`` call in the pool hard-kills its worker.

    The sentinel file lives on disk, so the state survives the pool
    respawn: the re-dispatched batch computes normally.  ``open(x)`` is
    atomic-create, so exactly the first worker to arrive dies even when
    several race.
    """

    matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def rhs(self, t, u):
        import os

        try:
            with open(self.sentinel, "x"):
                pass
        except FileExistsError:
            return self.matrix @ u
        os._exit(1)  # simulated worker death (SIGKILL analogue)


class _AlwaysDies(ODEProblem):
    """Payload that kills its worker on every call — retries exhaust."""

    def rhs(self, t, u):
        import os

        os._exit(1)


class TestWorkerLossResilience:
    """A killed pool worker is respawned; the run completes with the
    same numerics as the serial backend."""

    def test_worker_death_recovered_and_numerics_match(self, tmp_path):
        u0 = np.array([1.0, 2.0])
        serial = run_pfasst(
            _config(), _specs(_LinearTwin()), u0, p_time=2,
            executor=SerialExecutor(),
        )
        prob = _KillOnce(tmp_path / "killed-once")
        with ProcessExecutor(max_workers=2) as ex:
            res = run_pfasst(
                _config(), _specs(prob), u0, p_time=2, executor=ex,
            )
        assert _frozen(res) == _frozen(serial)
        counters = res.metrics["counters"]
        assert counters["executor.pool_restarts"] >= 1
        assert counters["executor.redispatched_tasks"] >= 1
        kinds = [e.kind for e in res.resilience.recovered]
        assert "pool-respawn" in kinds
        detail = next(
            e.detail for e in res.resilience.recovered
            if e.kind == "pool-respawn"
        )
        assert "re-dispatched" in detail

    def test_retries_exhausted_raises(self, tmp_path):
        """max_retries=0 turns the first worker death fatal."""
        u0 = np.array([1.0, 2.0])
        with ProcessExecutor(max_workers=1, max_retries=0) as ex:
            with pytest.raises(RuntimeError, match="worker death"):
                run_pfasst(
                    _config(), _specs(_AlwaysDies()), u0, p_time=2,
                    executor=ex,
                )

    def test_retry_parameters_validated(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessExecutor(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ProcessExecutor(retry_backoff=-0.1)

    def test_no_restart_leaves_counters_unset(self, linear_problem):
        """Fault-free process runs carry no executor.pool_restarts key —
        the metrics contract with SerialExecutor stays exact."""
        u0 = np.array([1.0, 2.0])
        with ProcessExecutor(max_workers=2) as ex:
            res = run_pfasst(
                _config(), _specs(linear_problem), u0, p_time=2,
                executor=ex,
            )
        assert "executor.pool_restarts" not in res.metrics["counters"]
