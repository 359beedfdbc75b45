"""Tests for the simulated-MPI protocol verifier (repro.analysis.commcheck)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.commcheck import (
    OrphanMessage,
    VerificationError,
    WaitForGraph,
    compare_replays,
    find_orphans,
    freeze,
)
from repro.parallel import (
    DeadlockError,
    OrphanMessageWarning,
    Scheduler,
)
from repro.parallel.topology import SpaceTimeGrid
from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
from repro.pfasst.controller import pfasst_rank_program
from repro.vortex.problem import ODEProblem


class _ScalarODE(ODEProblem):
    """Nonlinear scalar test problem u' = -u^2 + sin(3t)."""

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return -u * u + np.sin(3.0 * t)


# ---------------------------------------------------------------------------
# wait-for graph
# ---------------------------------------------------------------------------
class TestWaitForGraph:
    def test_two_cycle(self):
        g = WaitForGraph({0: (1, "a"), 1: (0, "b")})
        assert g.cycles() == [[0, 1, 0]]

    def test_three_cycle(self):
        g = WaitForGraph({0: (1, "t"), 1: (2, "t"), 2: (0, "t")})
        assert g.cycles() == [[0, 1, 2, 0]]

    def test_tail_into_cycle(self):
        """A rank waiting on a deadlocked pair is not itself in the cycle."""
        g = WaitForGraph({0: (1, "t"), 1: (2, "t"), 2: (1, "t")})
        assert g.cycles() == [[1, 2, 1]]

    def test_no_cycle_when_waiting_on_finished_rank(self):
        g = WaitForGraph({0: (1, "t")})  # rank 1 finished
        assert g.cycles() == []
        text = g.render()
        assert "source already finished" in text
        assert "no cycle" in text

    def test_render_names_edges_and_cycle(self):
        text = WaitForGraph({0: (1, "x"), 1: (0, "y")}).render()
        assert "rank 0 -> rank 1" in text
        assert "tag='x'" in text
        assert "cycle: rank 0 -> rank 1 -> rank 0" in text


class TestDeadlockDiagnostic:
    def test_deadlocked_two_rank_program_names_the_cycle(self):
        """Acceptance: the deadlock fixture's wait-for graph names the cycle."""
        def prog(comm):
            # both ranks receive before sending: classic head-to-head deadlock
            other = (comm.rank + 1) % comm.size
            _ = yield comm.recv(other, "swap")
            yield comm.send(other, "swap", comm.rank)

        with pytest.raises(DeadlockError) as exc_info:
            Scheduler(2, measure_compute=False).run(prog)
        msg = str(exc_info.value)
        assert "wait-for graph" in msg
        assert "rank 0 -> rank 1" in msg
        assert "rank 1 -> rank 0" in msg
        assert "cycle: rank 0 -> rank 1 -> rank 0" in msg

    def test_waiting_on_finished_rank_reported(self):
        def prog(comm):
            if comm.rank == 1:
                _ = yield comm.recv(0, "never")

        with pytest.raises(DeadlockError, match="source already finished"):
            Scheduler(2, measure_compute=False).run(prog)


# ---------------------------------------------------------------------------
# orphaned messages
# ---------------------------------------------------------------------------
class TestOrphans:
    def test_orphan_reported_at_exit(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "lost", np.arange(4))
                yield comm.send(1, "lost", np.arange(4))
            else:
                yield comm.work(0.0)

        s = Scheduler(2, measure_compute=False)
        with pytest.warns(OrphanMessageWarning, match="never received"):
            s.run(prog)
        assert s.orphans == [
            OrphanMessage(source=0, dest=1, tag="lost", count=2)
        ]

    def test_clean_program_has_no_orphans(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 1)
            else:
                _ = yield comm.recv(0, "t")

        s = Scheduler(2, measure_compute=False)
        s.run(prog)
        assert s.orphans == []

    def test_warning_suppressible(self):
        """The warnings filter silences the report, not the record."""
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "lost", 1)
            else:
                yield comm.work(0.0)

        import warnings

        s = Scheduler(2, measure_compute=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", OrphanMessageWarning)
            s.run(prog)
        assert len(s.orphans) == 1

    def test_find_orphans_ignores_empty_channels(self):
        assert find_orphans({(0, 1, "t"): []}) == []


# ---------------------------------------------------------------------------
# freeze / byte identity
# ---------------------------------------------------------------------------
class TestFreeze:
    def test_identical_arrays_freeze_identically(self):
        a = np.linspace(0.0, 1.0, 7)
        assert freeze([a, {"k": a}]) == freeze([a.copy(), {"k": a.copy()}])

    def test_one_ulp_difference_detected(self):
        a = np.array([1.0])
        b = np.nextafter(a, 2.0)
        assert freeze(a) != freeze(b)

    def test_dtype_matters(self):
        a = np.zeros(3, dtype=np.float64)
        assert freeze(a) != freeze(a.astype(np.float32))

    def test_shape_matters(self):
        a = np.zeros(6)
        assert freeze(a) != freeze(a.reshape(2, 3))

    def test_compare_replays_names_differing_ranks(self):
        with pytest.raises(VerificationError, match=r"differing ranks: \[1\]"):
            compare_replays([1, np.array([2.0])], [1, np.array([3.0])])


# ---------------------------------------------------------------------------
# verify-mode replay
# ---------------------------------------------------------------------------
class TestVerifyReplay:
    def test_deterministic_program_passes(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", np.arange(3.0))
                return 0.0
            v = yield comm.recv(0, "t")
            return float(v.sum())

        res = Scheduler(2, measure_compute=False, verify=True).run(prog)
        assert res == [0.0, 3.0]

    def test_schedule_dependent_program_caught(self):
        """Shared mutable state across ranks is the race verify must catch."""
        shared = []

        def prog(comm):
            # order in which ranks append depends on the service order:
            # a genuine race in an event-driven runtime
            shared.append(comm.rank)
            yield comm.work(0.0)
            return tuple(shared)

        with pytest.raises(VerificationError, match="reversed rank-service"):
            Scheduler(3, measure_compute=False, verify=True).run(prog)

    def test_schedule_dependent_op_budget_caught(self):
        """Equal results and clocks, but the rank serviced first in a pass
        yields one more operation: only the replay's ``ops`` check
        catches it."""
        first = set()

        def prog(comm):
            sched = comm._scheduler  # one per pass
            if sched not in first:
                first.add(sched)
                yield comm.work(0.0)
            yield comm.work(0.0)

        with pytest.raises(VerificationError, match="operation budget"):
            Scheduler(2, measure_compute=False, verify=True).run(prog)

    def test_descending_order_same_results(self):
        def prog(comm):
            if comm.rank > 0:
                v = yield comm.recv(comm.rank - 1, "x")
            else:
                v = 100
            if comm.rank < comm.size - 1:
                yield comm.send(comm.rank + 1, "x", v + 1)
            return v

        # the replay runs the descending order and must match
        sched = Scheduler(4, measure_compute=False, verify=True)
        assert sched.run(prog) == [100, 101, 102, 103]


@settings(max_examples=6, deadline=None)
@given(p_time=st.sampled_from([2, 3, 4]))
def test_pfasst_controller_verifies_under_replay(p_time):
    """Acceptance: Scheduler(verify=True) reproduces byte-identical PFASST
    results under the reversed rank-service order for P_T in {2, 3, 4}."""
    u0 = np.array([1.0])
    cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=p_time, iterations=2)
    specs = [
        LevelSpec(_ScalarODE(), 3, 1),
        LevelSpec(_ScalarODE(), 2, 2),
    ]
    scheduler = Scheduler(p_time, measure_compute=False, verify=True)
    results = scheduler.run(
        pfasst_rank_program, args=(cfg, specs, u0, SpaceTimeGrid(p_time))
    )
    assert len(results) == p_time
    assert scheduler.orphans == []


def test_clean_pfasst_run_keeps_no_empty_channel():
    """A delivery that empties a channel drops it: after a clean run
    the scheduler holds no channel at all, empty or not."""
    u0 = np.array([1.0])
    cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=8, iterations=2)
    specs = [
        LevelSpec(_ScalarODE(), 3, 1),
        LevelSpec(_ScalarODE(), 2, 2),
    ]
    scheduler = Scheduler(4, measure_compute=False)
    scheduler.run(
        pfasst_rank_program, args=(cfg, specs, u0, SpaceTimeGrid(4))
    )
    assert scheduler.orphans == []
    assert scheduler.metrics.counter("mpi.messages").value > 0
    assert dict(scheduler._channels) == {}


def test_run_pfasst_verify_passthrough(scalar_problem):
    u0 = np.array([1.0])
    cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=2)
    specs = [
        LevelSpec(scalar_problem, 3, 1),
        LevelSpec(scalar_problem, 2, 2),
    ]
    verified = run_pfasst(cfg, specs, u0, p_time=2, verify=True)
    plain = run_pfasst(cfg, specs, u0, p_time=2)
    assert np.array_equal(verified.u_end, plain.u_end)


class TestOrphanDedup:
    def test_exact_tags_collapse_per_family(self):
        from collections import deque

        from repro.parallel.simmpi import _Message

        channels = {
            (0, 1, ("pred", 0, 0, 1)): deque([_Message(1.0, 0.0, sent=0.5)]),
            (0, 1, ("pred", 1, 2, 1)): deque([_Message(2.0, 0.0, sent=1.5)]),
        }
        [orphan] = find_orphans(channels)
        assert orphan.tag == "pred" and orphan.count == 2
        assert orphan.variants == 2
        assert orphan.attempts == (0, 2)
        assert orphan.first_sent == 0.5 and orphan.last_sent == 1.5
        assert "2 distinct tags" in orphan.render()
        assert "attempts 0, 2" in orphan.render()

    def test_single_channel_keeps_exact_tag(self):
        from collections import deque

        from repro.parallel.simmpi import _Message

        channels = {
            (0, 1, "lost"): deque([_Message(0, 0, sent=0.1),
                                   _Message(0, 0, sent=0.2)]),
        }
        assert find_orphans(channels) == [
            OrphanMessage(source=0, dest=1, tag="lost", count=2)
        ]

    def test_extras_excluded_from_equality(self):
        a = OrphanMessage(source=0, dest=1, tag="x", count=1,
                          variants=3, attempts=(1,), first_sent=1.0)
        b = OrphanMessage(source=0, dest=1, tag="x", count=1)
        assert a == b

    def test_scheduler_report_carries_send_times(self):
        def prog(comm):
            if comm.rank == 0:
                for block in range(3):
                    yield comm.send(1, ("pred", block, 0, 1), float(block))
            return None

        sched = Scheduler(2)
        with pytest.warns(OrphanMessageWarning):
            sched.run(prog)
        [orphan] = sched.orphans
        assert orphan.tag == "pred" and orphan.count == 3
        assert orphan.variants == 3
        assert orphan.last_sent >= orphan.first_sent >= 0.0


class TestNestedSubCommDiagnostics:
    """The (comm_id, (comm_id, tag)) translation path in diagnostics."""

    def test_nested_split_deadlock_renders_translated_tags(self):
        from repro.parallel import tags

        def prog(comm):
            # 4 ranks -> two rows of 2 -> nested singleton-pair split;
            # then each nested pair deadlocks on a circular wait
            row = yield from comm.split(comm.rank % 2, comm.rank // 2)
            cell = yield from row.split(0, row.rank)
            peer = 1 - cell.rank
            v = yield cell.recv(peer, (tags.PRED, 0, 0, 0))
            yield cell.send(peer, (tags.PRED, 0, 0, 0), v)
            return v

        sched = Scheduler(4)
        with pytest.raises(DeadlockError) as err:
            sched.run(prog)
        msg = str(err.value)
        assert "wait-for graph" in msg and "cycle:" in msg
        # the rendered tag shows the full nested SubComm wrapping
        assert msg.count("'sub'") >= 2
        assert "'pred'" in msg

    def test_nested_split_orphan_report_unwraps_tag_class(self):
        from repro.parallel import tags
        from repro.parallel.tags import tag_class

        def prog(comm):
            row = yield from comm.split(comm.rank % 2, comm.rank // 2)
            cell = yield from row.split(0, row.rank)
            if cell.rank == 0:
                yield cell.send(1, (tags.PRED, 0, 0, 1), 1.0)
            return None

        sched = Scheduler(4)
        with pytest.warns(OrphanMessageWarning):
            sched.run(prog)
        assert sched.orphans
        for orphan in sched.orphans:
            assert tag_class(orphan.tag) == "pred"
