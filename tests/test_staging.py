"""Shared-memory staging of the process backend: stage once.

:class:`~repro.parallel.executor.ProcessExecutor` keeps one input block
per (batch position, array slot) for its whole life, and each worker
maps a block once.  A batch holds at most one task per rank, so a run
creates at most ``2 x ranks`` blocks (a task carries one or two arrays),
a second run on the same executor none, and
:meth:`~repro.parallel.executor.ProcessExecutor.close` leaves none
behind.  Since the next dispatch rewrites the blocks, a dispatch returns
only after every task it submitted, and under ``REPRO_SANITIZE=1`` a task
that keeps a view of its inputs fails.
"""

import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.parallel.executor import (
    ComputeTask,
    PayloadPicklingError,
    ProcessExecutor,
    SerialExecutor,
)
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex.particles import pack_state
from repro.vortex.problem import VortexProblem

P_TIME, P_SPACE = 2, 2


class _Sum:
    def total(self, x, delay=0.0):
        time.sleep(delay)
        return float(x.sum())

    def keep(self, x):
        self.kept = x[1:]  # a view of the shared-memory input
        return float(x.sum())


@pytest.fixture
def created(monkeypatch):
    """Names of the shared-memory blocks this process creates."""
    names = []
    real = shared_memory.SharedMemory

    class Counting(real):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Counting)
    return names


def _gone(name):
    try:
        shared_memory.SharedMemory(name=name).close()
    except FileNotFoundError:
        return True
    return False


def _grid():
    """A PFASST run on the P_T x P_S grid, repeatable on one executor."""
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
    return lambda executor: run_pfasst(
        config, specs, u0, p_time=P_TIME, p_space=P_SPACE, executor=executor
    )


def test_grid_run_stages_once_per_rank_and_close_unlinks(created):
    ranks = P_TIME * P_SPACE
    run = _grid()
    with ProcessExecutor(max_workers=2) as ex:
        first = run(ex)
        per_run = len(created)
        assert 0 < per_run <= 2 * ranks
        second = run(ex)
        assert len(created) == per_run  # the second run reuses them all
        live = list(created)
        assert not any(_gone(name) for name in live)
    assert all(_gone(name) for name in live)
    serial = _grid()(SerialExecutor())
    np.testing.assert_array_equal(first.u_end, serial.u_end)
    np.testing.assert_array_equal(second.u_end, serial.u_end)


def test_growth_replaces_a_block_and_closes_the_rest(created):
    with ProcessExecutor(max_workers=1) as ex:
        ex.register("s", _Sum())
        for n, rank in ((4, 0), (4, 3), (9, None), (3, 0)):
            x = np.arange(float(n))
            got = ex.dispatch([ComputeTask("s", "total", arrays=(x,),
                                           rank=rank)])
            assert got[0].value == x.sum()
        assert len(created) == 2  # first use, then growth to 9
        assert _gone(created[0]) and not _gone(created[1])
    assert all(_gone(name) for name in created)


def test_a_ranks_second_task_in_a_batch_keeps_its_own_inputs():
    with ProcessExecutor(max_workers=2) as ex:
        ex.register("s", _Sum())
        batch = [ComputeTask("s", "total", arrays=(np.full(3, v),), rank=1)
                 for v in (1.0, 2.0, 5.0)]
        assert [r.value for r in ex.dispatch(batch)] == [3.0, 6.0, 15.0]


def test_a_failed_staging_waits_for_the_tasks_already_submitted():
    lock = threading.Lock()
    with ProcessExecutor(max_workers=2) as ex:
        ex.register("s", _Sum())
        slow = ComputeTask("s", "total", args=(), arrays=(np.ones(3),),
                           tail=(0.5,), rank=0)
        bad = ComputeTask("s", "total", args=(lock,), rank=1)
        t0 = time.perf_counter()
        with pytest.raises(PayloadPicklingError):
            ex.dispatch([slow, bad])
        assert time.perf_counter() - t0 >= 0.5


def test_sanitizer_fails_a_task_that_keeps_a_view(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    x = np.arange(4.0)
    with ProcessExecutor(max_workers=1) as ex:
        ex.register("s", _Sum())
        fine, kept = ex.dispatch([ComputeTask("s", "total", arrays=(x,)),
                                  ComputeTask("s", "keep", arrays=(x,))])
        assert fine.error is None and fine.value == 6.0
        # looked up now: tests/test_sanitize.py reloads the module
        assert isinstance(kept.error, sanitize.SanitizeError)
        assert "s.keep kept a view" in str(kept.error)
