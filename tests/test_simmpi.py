"""Tests for the deterministic simulated MPI."""

import operator
import pickle

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
)
from repro.analysis import sanitize
from repro.parallel.simmpi import _pickle_signature


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


def _sent_bytes(payloads, scheduler=Scheduler):
    """``mpi.bytes`` of a run in which rank 0 sends ``payloads`` in order."""

    def prog(comm):
        for i, payload in enumerate(payloads):
            if comm.rank == 0:
                yield comm.send(1, ("m", i), payload)
            else:
                yield comm.recv(0, ("m", i))

    sched = scheduler(2, measure_compute=False)
    sched.run(prog)
    return sched.metrics.counter("mpi.bytes").value


def _pickled(payload):
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _read_only(a):
    a.flags.writeable = False
    return a


#: payload factories: two calls give equal signatures and fresh data
_MEMO_CASES = {
    "0-d": lambda rng: [np.array(rng.random())],
    "0-size": lambda rng: [np.empty((0, 3)), rng.random(2)],
    "0-size-tuple": lambda rng: (np.empty((4, 0), dtype="f4"),),
    "f8": lambda rng: [rng.random((2, 64, 3))],
    "f4": lambda rng: [rng.random(7).astype("f4")],
    "i8": lambda rng: [rng.integers(0, 9, size=(3, 2))],
    "c16": lambda rng: [rng.random(4) + 1j * rng.random(4)],
    "bool": lambda rng: [rng.random(5) > 0.5],
    "fortran": lambda rng: [np.asfortranarray(rng.random((3, 4)))],
    "non-contiguous": lambda rng: [rng.random((6, 4))[::2, 1:]],
    "read-only": lambda rng: [_read_only(rng.random((2, 3)))],
    "framed": lambda rng: [rng.random((2, 8192)), rng.random(3)],
    "mixed": lambda rng: (rng.random(3), rng.integers(0, 9, size=3),
                          rng.random(2)),
    "aliased": lambda rng: [rng.random(3)] * 2,
    "distinct": lambda rng: [rng.random(3), rng.random(3)],
    "empty": lambda rng: [],
}


class TestSizeMemo:
    """Lists and tuples of plain arrays are sized by structure, not by
    pickling each message; the answer must be the pickled length."""

    @pytest.mark.parametrize("case", sorted(_MEMO_CASES))
    def test_memo_hit_equals_pickled_length(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        rng = np.random.default_rng(0)
        first, second = (_MEMO_CASES[case](rng) for _ in range(2))
        assert _pickle_signature(first) is not None
        assert _pickle_signature(first) == _pickle_signature(second)
        assert _sent_bytes([first, second]) == (
            _pickled(first) + _pickled(second)
        )
        assert _pickled(first) == _pickled(second)

    def test_aliasing_is_part_of_the_signature(self):
        a = np.ones(3)
        aliased, distinct = [a, a], [a, a.copy()]
        assert _pickled(aliased) < _pickled(distinct)
        assert _sent_bytes([aliased, distinct, aliased, distinct]) == 2 * (
            _pickled(aliased) + _pickled(distinct)
        )

    def test_layouts_of_one_shape_are_told_apart(self):
        rng = np.random.default_rng(1)
        base = rng.random((3, 4))
        layouts = [[base], [np.asfortranarray(base)],
                   [rng.random((3, 8))[:, ::2]], [_read_only(base.copy())]]
        assert len({_pickled(p) for p in layouts}) > 1
        assert _sent_bytes(layouts + layouts[::-1]) == 2 * sum(
            _pickled(p) for p in layouts
        )

    def test_dtypes_of_one_shape_are_told_apart(self):
        payloads = [[np.ones(5, dtype=t)] for t in ("f8", "f4", "i8", "i4",
                                                    "c16", "?", ">f8")]
        assert len({_pickled(p) for p in payloads}) > 1
        assert _sent_bytes(payloads + payloads[::-1]) == 2 * sum(
            _pickled(p) for p in payloads
        )

    @pytest.mark.parametrize("dtype", [
        np.dtype(float, metadata={"unit": "m"}),
        np.dtype([("x", "f8")]),
    ], ids=["metadata", "structured"])
    def test_dtype_sharing_str_with_a_plain_one_is_pickled(self, dtype):
        plain = [np.zeros(2, dtype=np.dtype(dtype.str))]
        odd = [np.zeros(2, dtype=dtype)]
        assert plain[0].dtype.str == odd[0].dtype.str
        assert _pickled(odd) > _pickled(plain)
        assert _pickle_signature(odd) is None
        assert _sent_bytes([plain, odd]) == _pickled(plain) + _pickled(odd)

    def test_other_payloads_are_not_memoised(self):
        for payload in ([np.ones(2), 1.0], [np.ones(2, dtype=object)],
                        [np.ma.ones(2)], {"a": np.ones(2)}, np.ones(2)):
            assert _pickle_signature(payload) is None

    def test_a_signature_is_pickled_once_per_run(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        payloads = [[np.full((2, 64, 3), float(i))] for i in range(5)]
        size = _pickled(payloads[0])
        calls = []
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps",
                            lambda *a, **k: calls.append(1) or dumps(*a, **k))
        assert _sent_bytes(payloads) == 5 * size
        assert len(calls) == 1

    def test_sanitizer_cross_checks_memo_hits(self, monkeypatch):
        payload = [np.ones(4)]

        class Seeded(Scheduler):
            def _reset_run_state(self):
                super()._reset_run_state()
                self._sizes[_pickle_signature(payload)] = 1

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert _sent_bytes([payload], Seeded) == 1
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # looked up now: tests/test_sanitize.py reloads the module
        with pytest.raises(sanitize.SanitizeError,
                           match=r"channel 0 -> 1 tag=\('m', 0\)"):
            _sent_bytes([payload], Seeded)


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
