"""Virtual time keeps meaning "one machine per rank" with a shared memo.

All rank programs of a scheduler run share one ``TreeStateCache``; a
real rank would only have what it computed itself.  Under
``measure_compute=True`` a memo hit on another rank's evaluation saves
this process's wall time but is billed the recorded seconds on the
hitting rank's virtual clock; a repeat by the rank that paid — or by
code outside any scheduler — is free.
"""

import pytest

from repro.obs import MetricsRegistry, use_metrics
from repro.obs.ledger import LEDGER
from repro.parallel import Scheduler
from repro.parallel.executor import (
    Compute,
    ComputeTask,
    ProcessExecutor,
    SerialExecutor,
)
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import (
    SheetConfig,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)

BILLED = "tree.cache.field.billed_s"


@pytest.fixture
def problem():
    cfg = SheetConfig(n=300)
    ps = spherical_vortex_sheet(cfg)
    evaluator = TreeEvaluator(
        get_kernel("algebraic6"), cfg.sigma, theta=0.3, leaf_size=24
    )
    return VortexProblem(ps.volumes, evaluator), ps.state()


def _relay(evaluate):
    """Rank program: every rank calls ``evaluate()`` (and yields the
    operation it returns, if any), rank r + 1 after rank r; ``begin`` /
    ``end`` annotations bracket it on the rank's virtual clock."""

    def program(comm):
        if comm.rank > 0:
            yield comm.recv(comm.rank - 1, "go")
        yield comm.annotate("begin")
        op = evaluate()
        if op is not None:
            yield op
        yield comm.annotate("end")
        if comm.rank + 1 < comm.size:
            yield comm.send(comm.rank + 1, "go", None)

    return program


def _eval_clock_s(scheduler, rank):
    """Virtual seconds between a rank's ``begin`` and ``end``."""
    times = {e.label: e.time for e in scheduler.trace if e.rank == rank}
    return times["end"] - times["begin"]


def _run(scheduler, program):
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        scheduler.run(program)
    return metrics.as_dict()["counters"]


class TestInline:
    def test_another_ranks_hit_is_billed(self, problem):
        vortex, u = problem
        evaluator = vortex.evaluator
        hits = []

        def evaluate():
            vortex.rhs(0.0, u)
            hits.append(evaluator.last_stats.field_cached)

        scheduler = Scheduler(2, measure_compute=True)
        counters = _run(scheduler, _relay(evaluate))
        assert hits == [False, True]
        assert evaluator.cache_stats.field_hits == 1
        billed = counters[BILLED]
        # what rank 0 paid (the memo times the evaluation from inside)
        assert 0 < billed <= _eval_clock_s(scheduler, 0)
        # rank 1 did a lookup and pays for an evaluation
        assert _eval_clock_s(scheduler, 1) >= billed
        assert evaluator.timer.count == 1 and evaluator.calls == 2
        assert LEDGER.owner is None and LEDGER.billed_s == 0.0

    def test_a_ranks_own_repeat_is_free(self, problem):
        vortex, u = problem

        def program(comm):
            yield comm.annotate("begin")
            vortex.rhs(0.0, u)
            yield comm.annotate("end")
            vortex.rhs(0.0, u)
            yield comm.annotate("repeat")

        scheduler = Scheduler(1, measure_compute=True)
        counters = _run(scheduler, program)
        assert vortex.evaluator.cache_stats.field_hits == 1
        assert BILLED not in counters
        times = {e.label: e.time for e in scheduler.trace}
        assert times["repeat"] - times["end"] < 0.5 * (
            times["end"] - times["begin"]
        )

    def test_paying_once_is_enough(self, problem):
        """A billed hit makes the rank a payer: its next repeat is free,
        as it would be from a memo of its own."""
        vortex, u = problem

        def evaluate():
            vortex.rhs(0.0, u)
            vortex.rhs(0.0, u)

        scheduler = Scheduler(2, measure_compute=True)
        counters = _run(scheduler, _relay(evaluate))
        assert vortex.evaluator.cache_stats.field_hits == 3
        # one evaluation's seconds, not two: rank 0's clock covers its
        # evaluation plus a lookup
        assert 0 < counters[BILLED] <= _eval_clock_s(scheduler, 0)

    def test_outside_a_scheduler_nothing_is_billed(self, problem):
        vortex, u = problem
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            # a serial run, then a repeat of its first evaluation
            SDCStepper(vortex, num_nodes=3, sweeps=2).run(u, 0.0, 0.2, 0.1)
            vortex.rhs(0.0, u)
            assert vortex.evaluator.cache_stats.field_hits >= 1
            # nor is a rank's work billed to code running after the run

            def evaluate():
                vortex.rhs(0.5, 2.0 * u)

            Scheduler(1, measure_compute=True).run(_relay(evaluate))
            hits = vortex.evaluator.cache_stats.field_hits
            vortex.rhs(0.5, 2.0 * u)
            assert vortex.evaluator.cache_stats.field_hits == hits + 1
        assert BILLED not in metrics.as_dict()["counters"]
        assert LEDGER.billed_s == 0.0

    def test_a_verified_run_leaves_the_ledger_unowned(self):
        """The replay pass of ``verify=True`` releases the ledger like
        the primary pass: evaluations after the run are nobody's."""
        def program(comm):
            yield comm.work(0.0)

        Scheduler(2, measure_compute=True, verify=True).run(program)
        assert LEDGER.owner is None and LEDGER.billed_s == 0.0

    def test_a_second_run_does_not_inherit_ownership(self, problem):
        vortex, u = problem

        def evaluate():
            vortex.rhs(0.0, u)

        scheduler = Scheduler(1, measure_compute=True)
        assert BILLED not in _run(scheduler, _relay(evaluate))
        # same scheduler, same rank, next run: a real rank 0 of this run
        # starts with nothing
        counters = _run(scheduler, _relay(evaluate))
        assert vortex.evaluator.cache_stats.field_hits == 1
        assert counters[BILLED] > 0
        assert _eval_clock_s(scheduler, 0) >= counters[BILLED]

    def test_without_measure_compute_nothing_is_billed(self, problem):
        vortex, u = problem
        owners = []

        def evaluate():
            owners.append(LEDGER.owner)
            vortex.rhs(0.0, u)

        scheduler = Scheduler(2, measure_compute=False)
        counters = _run(scheduler, _relay(evaluate))
        assert vortex.evaluator.cache_stats.field_hits == 1
        assert owners == [None, None]
        assert BILLED not in counters
        assert _eval_clock_s(scheduler, 1) == 0.0


class _Recorded:
    """Keeps the ``DispatchResult`` of every task an executor ran."""

    def __init__(self, executor):
        self.results = []
        for name in ("execute", "dispatch"):
            setattr(executor, name, self._wrap(getattr(executor, name)))

    def _wrap(self, call):
        def recorded(arg):
            out = call(arg)
            self.results.extend(out if isinstance(out, list) else [out])
            return out

        return recorded


@pytest.mark.parametrize("make_executor", [
    SerialExecutor, lambda: ProcessExecutor(max_workers=1),
], ids=["serial", "process"])
class TestDispatched:
    def test_billed_seconds_arrive_in_the_dispatch_result(
        self, problem, make_executor
    ):
        vortex, u = problem

        def evaluate():
            return Compute(ComputeTask("p", "rhs", args=(0.0,), arrays=(u,)))

        with make_executor() as executor:
            executor.register("p", vortex)
            recorded = _Recorded(executor)
            scheduler = Scheduler(2, measure_compute=True, executor=executor)
            scheduler.run(_relay(evaluate))
            counters = scheduler.metrics.as_dict()["counters"]
        first, second = recorded.results
        assert first.billed_s == 0.0
        # the second task is a lookup in the process that ran the first:
        # ``elapsed`` is that process's wall, the bill comes beside it
        assert 0 < second.billed_s <= first.elapsed
        assert second.elapsed < 0.5 * first.elapsed
        assert counters[BILLED] == second.billed_s
        assert counters["tree.cache.field.hits"] == 1
        assert _eval_clock_s(scheduler, 1) >= second.billed_s

    def test_without_measure_compute_tasks_carry_no_owner(
        self, problem, make_executor
    ):
        vortex, u = problem

        def evaluate():
            return Compute(ComputeTask("p", "rhs", args=(0.0,), arrays=(u,)))

        with make_executor() as executor:
            executor.register("p", vortex)
            recorded = _Recorded(executor)
            scheduler = Scheduler(2, measure_compute=False, executor=executor)
            scheduler.run(_relay(evaluate))
            counters = scheduler.metrics.as_dict()["counters"]
        assert [r.billed_s for r in recorded.results] == [0.0, 0.0]
        assert counters["tree.cache.field.hits"] == 1
        assert BILLED not in counters
