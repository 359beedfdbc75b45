"""Tests for the deterministic simulated MPI."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (
    CommCostModel,
    DeadlockError,
    Scheduler,
    allreduce,
    bcast,
    payload_bytes,
    reduce,
    scatter,
)


class TestPointToPoint:
    def test_simple_message(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", {"x": 42})
            else:
                msg = yield comm.recv(0, "t")
                return msg["x"]

        assert Scheduler(2, measure_compute=False).run(prog) == [None, 42]

    def test_fifo_ordering_same_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield comm.send(1, "seq", i)
            else:
                got = []
                for _ in range(5):
                    got.append((yield comm.recv(0, "seq")))
                return got

        res = Scheduler(2, measure_compute=False).run(prog)
        assert res[1] == [0, 1, 2, 3, 4]

    def test_out_of_order_tags(self):
        """Receives by tag, independent of send order."""
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "a", "first")
                yield comm.send(1, "b", "second")
            else:
                b = yield comm.recv(0, "b")
                a = yield comm.recv(0, "a")
                return (a, b)

        res = Scheduler(2, measure_compute=False).run(prog)
        assert res[1] == ("first", "second")

    def test_deadlock_detection(self):
        def prog(comm):
            _ = yield comm.recv((comm.rank + 1) % comm.size, "never")

        with pytest.raises(DeadlockError, match="blocked ranks"):
            Scheduler(2, measure_compute=False).run(prog)

    def test_self_send_rejected(self):
        def prog(comm):
            yield comm.send(comm.rank, "t", 1)

        with pytest.raises(ValueError, match="self-sends"):
            Scheduler(1, measure_compute=False).run(prog)

    def test_out_of_range_dest(self):
        def prog(comm):
            yield comm.send(99, "t", 1)

        with pytest.raises(ValueError, match="out of range"):
            Scheduler(2, measure_compute=False).run(prog)

    def test_non_generator_program_rejected(self):
        with pytest.raises(TypeError, match="generator"):
            Scheduler(1).run(lambda comm: 42)

    def test_return_values_by_rank(self):
        def prog(comm):
            return comm.rank * 10
            yield  # pragma: no cover

        assert Scheduler(3, measure_compute=False).run(prog) == [0, 10, 20]


class TestVirtualTime:
    def test_work_advances_clock(self):
        def prog(comm):
            yield comm.work(2.5)

        s = Scheduler(2, measure_compute=False)
        s.run(prog)
        assert s.clocks == [2.5, 2.5]

    def test_pipeline_staircase(self):
        """Serialised pipeline: rank n finishes at ~ (n+1) units."""
        def prog(comm):
            if comm.rank > 0:
                yield comm.recv(comm.rank - 1, "x")
            yield comm.work(1.0)
            if comm.rank < comm.size - 1:
                yield comm.send(comm.rank + 1, "x", 0)

        s = Scheduler(4, measure_compute=False, cost_model=CommCostModel(
            latency=0.0, bandwidth=1e30, send_overhead=0.0))
        s.run(prog)
        assert s.clocks == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_recv_waits_for_arrival_time(self):
        model = CommCostModel(latency=5.0, bandwidth=1e30, send_overhead=0.0)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "x", 1)
            else:
                _ = yield comm.recv(0, "x")

        s = Scheduler(2, cost_model=model, measure_compute=False)
        s.run(prog)
        assert s.clocks[1] == pytest.approx(5.0)
        assert s.clocks[0] == pytest.approx(0.0)

    def test_eager_send_does_not_block_sender(self):
        model = CommCostModel(latency=100.0, bandwidth=1e30, send_overhead=0.1)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "x", 1)
                yield comm.work(1.0)
            else:
                _ = yield comm.recv(0, "x")

        s = Scheduler(2, cost_model=model, measure_compute=False)
        s.run(prog)
        assert s.clocks[0] == pytest.approx(1.1)

    def test_bandwidth_term(self):
        model = CommCostModel(latency=0.0, bandwidth=100.0, send_overhead=0.0)
        payload = np.zeros(125, dtype=np.float64)  # 1000 bytes -> 10 s

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "x", payload)
            else:
                _ = yield comm.recv(0, "x")

        s = Scheduler(2, cost_model=model, measure_compute=False)
        s.run(prog)
        assert s.clocks[1] == pytest.approx(10.0)

    def test_measured_compute_adds_time(self):
        def prog(comm):
            total = 0.0
            for i in range(200_000):
                total += i * 0.5
            yield comm.work(0.0)
            return total

        s = Scheduler(1, measure_compute=True)
        s.run(prog)
        assert s.clocks[0] > 0.0

    def test_message_stats(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "x", np.zeros(10))
            else:
                _ = yield comm.recv(0, "x")

        s = Scheduler(2, measure_compute=False)
        s.run(prog)
        assert s.metrics.counter("mpi.messages").value == 1
        assert s.metrics.counter("mpi.bytes").value == 80

    def test_negative_work_rejected(self):
        def prog(comm):
            yield comm.work(-1.0)

        with pytest.raises(ValueError, match="work seconds"):
            Scheduler(1, measure_compute=False).run(prog)


class TestPayloadBytes:
    def test_ndarray(self):
        assert payload_bytes(np.zeros((2, 3))) == 48

    def test_scalars(self):
        assert payload_bytes(1) == 8
        assert payload_bytes(2.5) == 8
        assert payload_bytes(None) == 8

    def test_bytes(self):
        assert payload_bytes(b"abcd") == 4

    def test_pickled_object(self):
        assert payload_bytes({"a": 1}) > 8


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7, 8])
class TestCollectives:
    def test_bcast(self, n_ranks):
        def prog(comm):
            value = "payload" if comm.rank == 0 else None
            return (yield from bcast(comm, value, root=0))

        res = Scheduler(n_ranks, measure_compute=False).run(prog)
        assert res == ["payload"] * n_ranks

    def test_bcast_nonzero_root(self, n_ranks):
        root = n_ranks - 1

        def prog(comm):
            value = 123 if comm.rank == root else None
            return (yield from bcast(comm, value, root=root))

        res = Scheduler(n_ranks, measure_compute=False).run(prog)
        assert res == [123] * n_ranks

    def test_reduce_sum(self, n_ranks):
        def prog(comm):
            return (yield from reduce(comm, comm.rank + 1, op=operator.add))

        res = Scheduler(n_ranks, measure_compute=False).run(prog)
        assert res[0] == n_ranks * (n_ranks + 1) // 2
        assert all(r is None for r in res[1:])

    def test_allreduce_max(self, n_ranks):
        def prog(comm):
            return (yield from allreduce(comm, comm.rank, op=max))

        res = Scheduler(n_ranks, measure_compute=False).run(prog)
        assert res == [n_ranks - 1] * n_ranks

    def test_scatter(self, n_ranks):
        def prog(comm):
            values = list(range(100, 100 + comm.size)) if comm.rank == 0 else None
            return (yield from scatter(comm, values, root=0))

        res = Scheduler(n_ranks, measure_compute=False).run(prog)
        assert res == [100 + r for r in range(n_ranks)]


def test_scatter_wrong_length():
    def prog(comm):
        return (yield from scatter(comm, [1], root=0))

    with pytest.raises(ValueError, match="exactly"):
        Scheduler(2, measure_compute=False).run(prog)


@settings(max_examples=25, deadline=None)
@given(
    n_ranks=st.integers(1, 9),
    values=st.lists(st.integers(-100, 100), min_size=9, max_size=9),
)
def test_allreduce_equals_serial_sum(n_ranks, values):
    def prog(comm):
        return (yield from allreduce(comm, values[comm.rank]))

    res = Scheduler(n_ranks, measure_compute=False).run(prog)
    assert res == [sum(values[:n_ranks])] * n_ranks


class TestCostModelValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            CommCostModel(latency=-1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            CommCostModel(bandwidth=0.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError, match="send_overhead"):
            CommCostModel(send_overhead=-0.1)

    def test_nonpositive_compute_scale_rejected(self):
        with pytest.raises(ValueError, match="compute_scale"):
            CommCostModel(compute_scale=0.0)


def test_unpicklable_payload_warns_with_type_name():
    with pytest.warns(UserWarning, match="unpicklable"):
        size = payload_bytes(lambda: None)
    assert size == 64
    with pytest.warns(UserWarning, match="function"):
        payload_bytes(lambda: None)


class TestSchedulerReuse:
    """A Scheduler instance must be reusable: per-run state resets."""

    def _prog(self, comm):
        if comm.rank == 0:
            yield comm.send(1, "t", np.arange(4.0))
            yield comm.annotate("sent")
        else:
            v = yield comm.recv(0, "t")
            return float(v.sum())

    def test_second_run_matches_first(self):
        model = CommCostModel(latency=0.5, bandwidth=1e6, send_overhead=0.1)
        s = Scheduler(2, cost_model=model, measure_compute=False)
        first = (
            s.run(self._prog), tuple(s.clocks), s.metrics.as_dict(),
            len(s.trace),
        )
        second = (
            s.run(self._prog), tuple(s.clocks), s.metrics.as_dict(),
            len(s.trace),
        )
        assert first == second

    def test_stats_do_not_accumulate_across_runs(self):
        s = Scheduler(2, measure_compute=False)
        s.run(self._prog)
        msgs = s.metrics.counter("mpi.messages").value
        s.run(self._prog)
        assert s.metrics.counter("mpi.messages").value == msgs  # not doubled
