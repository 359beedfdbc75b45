"""Tests for ``VirtualComm.split`` and tag-translating sub-communicators."""

import numpy as np
import pytest

from repro.parallel import Scheduler, SubComm, allgather, allreduce
from repro.parallel.topology import SpaceTimeGrid


def run(n_ranks, program, **kwargs):
    return Scheduler(n_ranks, **kwargs).run(program)


class TestSplit:
    def test_row_column_split_of_grid(self):
        """One world of 2x3 ranks splits into row and column comms."""
        grid = SpaceTimeGrid(2, 3)

        def program(comm):
            t, s, _ = grid.coords(comm.rank)
            space = yield from comm.split(color=t, key=s)
            tcomm = yield from comm.split(color=s, key=t)
            return {
                "space": (space.rank, space.size, space.members),
                "time": (tcomm.rank, tcomm.size, tcomm.members),
            }

        results = run(6, program)
        for world, res in enumerate(results):
            t, s, _ = grid.coords(world)
            assert res["space"] == (s, 3, grid.space_comm(world))
            assert res["time"] == (t, 2, grid.time_comm(world))

    def test_key_orders_sub_ranks(self):
        def program(comm):
            sub = yield from comm.split(color=0, key=-comm.rank)
            return sub.rank, sub.members

        results = run(4, program)
        # descending keys reverse the rank order
        assert [r[0] for r in results] == [3, 2, 1, 0]
        assert results[0][1] == [3, 2, 1, 0]

    def test_none_color_excludes_rank(self):
        def program(comm):
            sub = yield from comm.split(color=None if comm.rank == 1 else 0)
            if sub is None:
                return None
            return sub.size, sub.members

        results = run(3, program)
        assert results[1] is None
        assert results[0] == (2, [0, 2])
        assert results[2] == (2, [0, 2])

    def test_point_to_point_over_subcomm(self):
        def program(comm):
            sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
            if sub.rank == 0:
                yield sub.send(1, "t", comm.rank * 10)
                return None
            return (yield sub.recv(0, "t"))

        results = run(4, program)
        # odd group is ranks [1, 3]: world 3 receives 10 from world 1
        assert results[2] == 0 and results[3] == 10

    def test_collectives_over_subcomm(self):
        def program(comm):
            sub = yield from comm.split(color=comm.rank // 2, key=comm.rank)
            total = yield from allreduce(sub, comm.rank + 1, op=lambda a, b: a + b)
            gathered = yield from allgather(sub, comm.rank)
            return total, gathered

        results = run(4, program)
        assert results[0] == (1 + 2, [0, 1])
        assert results[3] == (3 + 4, [2, 3])

    def test_nested_split(self):
        """Splitting a SubComm wraps tags recursively."""

        def program(comm):
            half = yield from comm.split(color=comm.rank // 2, key=comm.rank)
            solo = yield from half.split(color=half.rank, key=0)
            assert isinstance(solo, SubComm)
            val = yield from allgather(solo, comm.rank)
            return solo.size, solo.world_rank, val

        results = run(4, program)
        for world, (size, wr, val) in enumerate(results):
            assert size == 1 and wr == world and val == [world]

    def test_translate_and_world_rank(self):
        def program(comm):
            sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
            return (
                sub.world_rank,
                [sub.translate(r) for r in range(sub.size)],
            )

        results = run(4, program)
        assert results[1] == (1, [1, 3])
        assert results[2] == (2, [0, 2])

    def test_metrics_shared_with_scheduler(self):
        sched = Scheduler(2)

        def program(comm):
            sub = yield from comm.split(color=0, key=comm.rank)
            assert sub.metrics is comm.metrics
            if sub.rank == 0:
                yield sub.send(1, "x", b"abc")
            else:
                yield sub.recv(0, "x")
            return None

        sched.run(program)
        assert sched.metrics.counter("mpi.messages").value > 0

    def test_out_of_range_peer_raises(self):
        def program(comm):
            sub = yield from comm.split(color=0, key=comm.rank)
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    sub.send(sub.size, "t", 1)
                with pytest.raises(ValueError):
                    sub.recv(-1, "t")
                with pytest.raises(ValueError):
                    sub.translate(sub.size)
            yield from allgather(sub, None)
            return True

        assert all(run(3, program))

    def test_self_send_rejected(self):
        def program(comm):
            sub = yield from comm.split(color=0, key=comm.rank)
            if comm.rank == 1:
                with pytest.raises(ValueError):
                    sub.send(sub.rank, "t", 1)
            yield from allgather(sub, None)
            return True

        assert all(run(2, program))

    def test_split_deterministic_under_verify_replay(self):
        """Sub-comm construction must be replay-stable (verify mode)."""

        def program(comm):
            space = yield from comm.split(color=comm.rank // 2, key=comm.rank)
            vals = yield from allgather(space, float(comm.rank))
            return np.asarray(vals)

        results = Scheduler(4, verify=True).run(program)
        np.testing.assert_array_equal(results[0], [0.0, 1.0])
        np.testing.assert_array_equal(results[3], [2.0, 3.0])
