"""Rank-affine placement of the process backend.

The scheduler stamps every dispatched task with the world rank that
yielded it, and :class:`~repro.parallel.executor.ProcessExecutor` runs
rank ``r`` on worker ``r mod W``.  A rank's fine and coarse evaluations
then share one worker's tree cache, as they share the one cache inline,
so the cache counters of a run are a property of the program: equal from
run to run and, for the field memo, equal to the inline run's.
"""

import os

import numpy as np
import pytest

from repro.parallel.executor import (
    Compute,
    ComputeTask,
    ProcessExecutor,
    SerialExecutor,
)
from repro.parallel.simmpi import Scheduler
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex.particles import pack_state
from repro.vortex.problem import VortexProblem


class _Pid:
    """Payload reporting the process it runs in."""

    def pid(self, x):
        return os.getpid()


class _RecordingSerial(SerialExecutor):
    """Serial backend that keeps every task it runs."""

    def __init__(self):
        super().__init__()
        self.tasks = []

    def execute(self, task):
        self.tasks.append(task)
        return super().execute(task)


def _grid_run(executor):
    rng = np.random.default_rng(7)
    n = 96
    u0 = pack_state(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    evaluator = SpaceParallelTreeEvaluator(
        "algebraic2", 0.3, theta=0.5, leaf_size=16
    )
    fine = VortexProblem(np.full(n, 1.0 / n), evaluator)
    specs = [
        LevelSpec(fine, num_nodes=3, sweeps=1),
        LevelSpec(fine.coarsened(0.8), num_nodes=2, sweeps=2),
    ]
    config = PfasstConfig(t0=0.0, t_end=0.04, n_steps=2, iterations=2)
    return run_pfasst(config, specs, u0, p_time=2, p_space=2,
                      executor=executor)


def _cache_counters(res):
    return {
        k: v for k, v in res.metrics["counters"].items()
        if k.startswith("tree.cache.") and k.endswith(("hits", "misses"))
    }


class TestPlacement:
    @pytest.mark.parametrize("measure_compute", [False, True])
    def test_scheduler_stamps_the_yielding_rank(self, measure_compute):
        def prog(comm):
            return (yield Compute(ComputeTask("p", "pid",
                                              arrays=(np.ones(1),))))

        ex = _RecordingSerial()
        ex.register("p", _Pid())
        Scheduler(3, measure_compute=measure_compute, executor=ex).run(prog)
        assert sorted(task.rank for task in ex.tasks) == [0, 1, 2]

    def test_worker_ids_are_pool_indices(self):
        """Rank r runs on worker r mod W, a task without a rank on its
        batch index mod W; one process per worker id."""
        w = 3
        with ProcessExecutor(max_workers=w) as ex:
            ex.register("p", _Pid())
            ranked = [ComputeTask("p", "pid", arrays=(np.ones(1),), rank=r)
                      for r in (5, 0, 4, 1, 3, 2, 7)]
            got = ex.dispatch(ranked)
            assert [res.worker for res in got] == [2, 0, 1, 1, 0, 2, 1]
            pid_of = {}
            for res in got:
                assert pid_of.setdefault(res.worker, res.value) == res.value
            assert len(set(pid_of.values())) == w
            assert os.getpid() not in pid_of.values()
            plain = ex.dispatch([ComputeTask("p", "pid", arrays=(np.ones(1),))
                                 for _ in range(4)])
            assert [res.worker for res in plain] == [0, 1, 2, 0]
            assert [res.value for res in plain] == [
                pid_of[res.worker] for res in plain
            ]

    def test_cache_counters_repeat_and_field_hits_match_inline(self):
        with ProcessExecutor(max_workers=2) as ex:
            first = _grid_run(ex)
        with ProcessExecutor(max_workers=2) as ex:
            second = _grid_run(ex)
        serial = _grid_run(SerialExecutor())
        assert _cache_counters(first) == _cache_counters(second)
        hits = "tree.cache.field.hits"
        assert first.metrics["counters"][hits] > 0
        assert (first.metrics["counters"][hits]
                == serial.metrics["counters"][hits])
        np.testing.assert_array_equal(first.u_end, serial.u_end)
