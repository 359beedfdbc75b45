"""Regression tests: collectives recover dropped messages via retransmit.

Before the fix, ``reduce`` / ``allreduce`` / ``scatter``
ignored the link-layer ``timeout`` / ``retries`` / ``backoff`` knobs, so
a single dropped message on any collective leg deadlocked the whole
world — in particular PFASST's failure-detection allreduce, whose entire
job is to survive faults.  These tests pin the before-shape (deadlock
without a timeout) and the after-shape (silent shadow retransmit).
"""

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.parallel import DeadlockError, Scheduler
from repro.parallel.collectives import (
    allgather,
    allreduce,
    bcast,
    reduce,
    scatter,
)
from repro.parallel.faults import FaultPlan, MessageFault
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec

#: drop the first message on every (src, dest, tag) channel
DROP_FIRST = FaultPlan(messages=(MessageFault(kind="drop", occurrences=(0,)),))


@pytest.fixture
def u0():
    return np.array([1.0, 2.0])

LINK = dict(timeout=0.1, retries=1, backoff=0.01)


def _programs(link=LINK):
    def p_reduce(comm):
        total = yield from reduce(comm, comm.rank + 1,
                                  op=lambda a, b: a + b, root=0, **link)
        return total

    def p_allreduce(comm):
        total = yield from allreduce(comm, comm.rank + 1,
                                     op=lambda a, b: a + b, **link)
        return total

    def p_bcast(comm):
        return (yield from bcast(comm, comm.rank * 7 + 5, root=0, **link))

    def p_scatter(comm):
        values = list(range(10, 10 + comm.size)) if comm.rank == 0 else None
        return (yield from scatter(comm, values, root=0, **link))

    def p_allgather(comm):
        return (yield from allgather(comm, comm.rank * 3, **link))

    n = 4
    return {
        "reduce": (p_reduce, [sum(range(1, n + 1))] + [None] * (n - 1)),
        "allreduce": (p_allreduce, [sum(range(1, n + 1))] * n),
        "bcast": (p_bcast, [5] * n),
        "scatter": (p_scatter, [10 + r for r in range(n)]),
        "allgather": (p_allgather, [[3 * r for r in range(n)]] * n),
    }


class TestDropRecovery:
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_drop_recovered_by_shadow_retransmit(self, name):
        program, expected = _programs()[name]
        sched = Scheduler(4, fault_plan=DROP_FIRST)
        assert sched.run(program) == expected
        assert sched.metrics.counter("mpi.retransmissions").value >= 1
        counts = sched.resilience.counts()
        assert counts["drop"] >= 1 and counts["retransmit"] >= 1

    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_drop_without_timeout_deadlocks(self, name):
        """The pre-fix shape: no link-layer budget, any drop hangs."""
        program, _ = _programs(link={})[name]
        with pytest.raises(DeadlockError):
            Scheduler(4, fault_plan=DROP_FIRST).run(program)

    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_drop_recovery_is_replay_stable(self, name):
        program, expected = _programs()[name]
        sched = Scheduler(4, fault_plan=DROP_FIRST, verify=True)
        assert sched.run(program) == expected


def _config(**kw):
    kw.setdefault("t0", 0.0)
    kw.setdefault("t_end", 1.0)
    kw.setdefault("n_steps", 2)
    kw.setdefault("iterations", 8)
    kw.setdefault("residual_tol", 1e-11)
    return PfasstConfig(**kw)


def _specs(problem):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1),
        LevelSpec(problem, num_nodes=2, sweeps=2),
    ]


#: first ftsync allreduce of block 0, attempt 0, iteration 0: the reduce
#: leg's wire tag at p_time=2 is ((tag, "r"), mask=1), carried rank 1->0
FTSYNC_REDUCE_LEG = ((("ftsync", 0, 0, 0), "r"), 1)


class TestPfasstDetectionAllreduce:
    """The ISSUE's headline bug: a drop on the failure-detection
    allreduce's reduce leg used to hang the run; the threaded link
    budget now repairs it below the algorithmic layer."""

    def test_drop_on_ftsync_reduce_leg_recovers(self, linear_problem, u0):
        base = run_pfasst(
            _config(recovery="warm-restart"), _specs(linear_problem),
            u0, p_time=2,
        )
        plan = FaultPlan(messages=(
            MessageFault(kind="drop", source=1, dest=0,
                         tag=FTSYNC_REDUCE_LEG),
        ))
        res = run_pfasst(
            _config(recovery="warm-restart"), _specs(linear_problem),
            u0, p_time=2, fault_plan=plan, verify=True,
        )
        assert freeze(res.u_end) == freeze(base.u_end)
        assert freeze(res.residuals) == freeze(base.residuals)
        counts = res.resilience.counts()
        assert counts["drop"] == 1
        assert counts["retransmit"] == 1
        assert res.recoveries == []  # repaired below the algorithmic layer

    def test_exhausted_budget_surfaces_protocol_failure(
        self, linear_problem, u0
    ):
        """With a zero retransmit budget the drop cannot be repaired;
        detection must convert the would-be hang into a diagnosis."""
        plan = FaultPlan(messages=(
            MessageFault(kind="drop", source=1, dest=0,
                         tag=FTSYNC_REDUCE_LEG),
        ))
        with pytest.raises(RuntimeError, match="protocol"):
            run_pfasst(
                _config(recovery="warm-restart", recovery_retries=0),
                _specs(linear_problem), u0, p_time=2, fault_plan=plan,
            )
