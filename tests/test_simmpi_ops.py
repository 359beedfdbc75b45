"""The op layer's contract: records, one-hop views, peer and tag checks.

Rank programs build ``Send`` / ``Recv`` / ``Work`` / ``Annotate`` records
through a comm, and the scheduler logs ``TraceEvent`` records.  Records
are immutable values.  A view nested any number of levels deep
(``SubComm`` over ``EpochComm`` over ``SubComm``) names the world peer
and the fully wrapped tag in one step, and every level validates its
arguments with the same messages.
"""

import pytest

from repro.parallel.simmpi import (
    Annotate,
    EpochComm,
    Recv,
    Scheduler,
    Send,
    SubComm,
    TraceEvent,
    VirtualComm,
    Work,
)

RECORDS = [
    Send(1, "t", 42),
    Recv(0, ("lvl", 1), 2.0, 3),
    Work(0.5),
    Annotate("begin:x", {"k": 1}),
    TraceEvent(2, "end:x", 1.5),
]


class TestRecords:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_assigning_a_field_raises(self, record):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            record.extra = 7

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_records_compare_by_value(self, record):
        twin = type(record)(*record)
        assert twin == record and not twin != record
        if not isinstance(record, Annotate):  # its data is a dict
            assert hash(twin) == hash(record)
        other = record._replace(**{record._fields[0]: "changed"})
        assert other != record

    def test_equal_fields_of_another_type_are_not_equal(self):
        assert Work(1.0) != (1.0,)
        assert Recv(0, "t", None, 0) != TraceEvent(0, "t", None, 0)
        assert Send(1, "t", 2) != (1, "t", 2)

    def test_defaults_and_repr(self):
        assert Recv(1, "t") == Recv(1, "t", None, 0)
        assert Annotate("a").data is None
        assert TraceEvent(0, "a", 0.0).data is None
        assert repr(Send(1, "t", 2)) == "Send(dest=1, tag='t', payload=2)"


def _three_levels():
    """World rank 1 of 6; ``inner`` = world ranks [1, 3, 5], ``epoch``
    its attempt-stamped view (epoch 2), ``outer`` = epoch ranks [2, 0]
    (world ranks [5, 1]), on which this rank is rank 1."""
    world = VirtualComm(1, 6, Scheduler(6))
    inner = SubComm(world, [1, 3, 5], 0, ("sub", 0, "odd"))
    epoch = EpochComm(inner, timeout=2.0, retries=1)
    epoch.epoch = 2
    outer = SubComm(epoch, [2, 0], 1, ("sub", 1, "x"))
    return world, inner, epoch, outer


class TestOneHopViews:
    def test_three_levels_name_the_world_peer_and_wrapped_tag(self):
        _, _, _, outer = _three_levels()
        tag = (("sub", 0, "odd"),
               (("ftepoch", 2), (("sub", 1, "x"), "t")))
        assert outer.send(0, "t", 7) == Send(5, tag, 7)
        assert outer.recv(0, "t") == Recv(5, tag, 2.0, 1)
        assert outer.recv(0, "t", timeout=4.0) == Recv(5, tag, 4.0, 0)
        assert outer.recv(0, "t", retries=3) == Recv(5, tag, 2.0, 3)
        assert (outer.rank, outer.size, outer.world_rank) == (1, 2, 1)

    def test_each_level_wraps_its_own_tag(self):
        world, inner, epoch, _ = _three_levels()
        assert world.send(3, "t", 0) == Send(3, "t", 0)
        assert inner.send(1, "t", 0) == Send(3, (("sub", 0, "odd"), "t"), 0)
        assert epoch.send(2, "t", 0) == Send(
            5, (("sub", 0, "odd"), (("ftepoch", 2), "t")), 0
        )
        assert epoch.recv(2, "t") == Recv(
            5, (("sub", 0, "odd"), (("ftepoch", 2), "t")), 2.0, 1
        )
        assert inner.recv(2, "t") == Recv(5, (("sub", 0, "odd"), "t"))

    def test_bumping_the_epoch_rewraps_the_nested_view(self):
        _, _, epoch, outer = _three_levels()
        epoch.epoch += 1
        assert outer.send(0, "t", 7).tag == (
            ("sub", 0, "odd"), (("ftepoch", 3), (("sub", 1, "x"), "t"))
        )

    def test_a_split_of_a_nested_view_routes_to_world_ranks(self):
        def program(comm):
            half = yield from comm.split(color=comm.rank % 2)
            view = EpochComm(half)
            pair = yield from view.split(color=view.rank // 2)
            if pair.rank == 0:
                yield pair.send(1, "hi", comm.rank)
                return None
            return (yield pair.recv(0, "hi"))

        got = Scheduler(8, measure_compute=False).run(program)
        assert got == [None, None, 0, 1, None, None, 4, 5]


@pytest.mark.parametrize("level", range(4),
                         ids=["world", "sub", "epoch", "sub-of-epoch"])
class TestEveryLevelRejects:
    def _comm(self, level):
        return _three_levels()[level]

    def test_out_of_range_peers(self, level):
        comm = self._comm(level)
        top = comm.size - 1
        for peer in (-1, comm.size):
            with pytest.raises(ValueError,
                               match=rf"^dest {peer} out of range 0\.\.{top}$"):
                comm.send(peer, "t", None)
            with pytest.raises(
                    ValueError,
                    match=rf"^source {peer} out of range 0\.\.{top}$"):
                comm.recv(peer, "t")

    def test_self_messages(self, level):
        comm = self._comm(level)
        with pytest.raises(ValueError, match="^self-sends are not supported$"):
            comm.send(comm.rank, "t", None)
        with pytest.raises(ValueError,
                           match="^self-receives are not supported$"):
            comm.recv(comm.rank, "t")

    def test_bad_timeouts_and_retries(self, level):
        comm = self._comm(level)
        peer = (comm.rank + 1) % comm.size
        for timeout in (0, -1.5):
            with pytest.raises(
                    ValueError,
                    match=rf"^timeout must be > 0 when given, got {timeout}$"):
                comm.recv(peer, "t", timeout=timeout)
        with pytest.raises(ValueError,
                           match="^retries must be >= 0, got -1$"):
            comm.recv(peer, "t", retries=-1)


class TestCommCounters:
    def test_handles_are_resolved_once_per_comm(self):
        def program(comm):
            first = comm.counter("x.bytes", per_rank=True)
            assert comm.counter("x.bytes", per_rank=True) is first
            first.inc(comm.rank + 1)
            comm.counter("x.bytes").inc(10)
            yield comm.work(0.0)

        sched = Scheduler(3, measure_compute=False)
        sched.run(program)
        counters = sched.metrics.as_dict()["counters"]
        assert counters["x.bytes"] == 30
        assert [counters[f"x.bytes{{rank={r}}}"] for r in range(3)] == [1, 2, 3]
