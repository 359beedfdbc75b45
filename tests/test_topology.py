"""Tests for the (P_T, P_S, P_N) process grid (paper Fig. 2 + PFASST-ER).

One class, :class:`SpaceTimeGrid`, serves every shape; the suite is
parametrized over shapes including extent-1 axes, plus the paper's 2D
layout examples written out literally.
"""

import pytest

from repro.parallel import SpaceTimeGrid

SHAPES = [(1, 1, 1), (4, 1, 1), (1, 5, 1), (1, 1, 3), (2, 3, 1), (3, 1, 2),
          (1, 2, 3), (2, 2, 2), (3, 4, 2), (2, 3, 5)]
shapes = pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))


class TestGrid:
    @shapes
    def test_world_rank_inverts_coords(self, shape):
        grid = SpaceTimeGrid(*shape)
        assert grid.world_size == shape[0] * shape[1] * shape[2]
        seen = set()
        for r in range(grid.world_size):
            t, s, n = grid.coords(r)
            assert 0 <= t < shape[0] and 0 <= s < shape[1] and 0 <= n < shape[2]
            assert grid.world_rank(t, s, n) == r
            seen.add((t, s, n))
        assert len(seen) == grid.world_size

    @shapes
    def test_comms_partition_the_world(self, shape):
        """Each comm flavour (and the time rows) tiles the world exactly."""
        grid = SpaceTimeGrid(*shape)
        world = list(range(grid.world_size))
        for comm_of, extent in ((grid.space_comm, shape[1]),
                                (grid.time_comm, shape[0]),
                                (grid.node_comm, shape[2])):
            comms = {tuple(comm_of(r)) for r in world}
            assert all(len(c) == extent for c in comms)
            assert sorted(r for c in comms for r in c) == world
            assert all(r in comm_of(r) for r in world)
        rows = [grid.time_row(t) for t in range(shape[0])]
        assert sorted(r for row in rows for r in row) == world

    @shapes
    def test_comm_members_vary_one_coordinate(self, shape):
        grid = SpaceTimeGrid(*shape)
        for r in range(grid.world_size):
            t, s, n = grid.coords(r)
            assert [grid.coords(m) for m in grid.space_comm(r)] == [
                (t, i, n) for i in range(shape[1])]
            assert [grid.coords(m) for m in grid.time_comm(r)] == [
                (i, s, n) for i in range(shape[0])]
            assert [grid.coords(m) for m in grid.node_comm(r)] == [
                (t, s, i) for i in range(shape[2])]
            assert grid.time_row(t) == sorted(
                m for m in range(grid.world_size) if grid.coords(m)[0] == t)

    @pytest.mark.parametrize("p_time,p_space", [(1, 1), (4, 1), (1, 5), (2, 3)])
    def test_p_nodes_one_is_the_paper_numbering(self, p_time, p_space):
        grid = SpaceTimeGrid(p_time, p_space)
        assert grid == SpaceTimeGrid(p_time, p_space, 1)
        for r in range(grid.world_size):
            assert grid.coords(r) == divmod(r, p_space) + (0,)
            assert grid.node_comm(r) == [r]

    @shapes
    def test_out_of_range_errors(self, shape):
        grid = SpaceTimeGrid(*shape)
        for bad in (-1, grid.world_size):
            with pytest.raises(ValueError, match="out of range"):
                grid.coords(bad)
            with pytest.raises(ValueError, match="out of range"):
                grid.space_comm(bad)
        for axis in range(3):
            for bad in (-1, shape[axis]):
                idx = [0, 0, 0]
                idx[axis] = bad
                with pytest.raises(ValueError, match="out of range"):
                    grid.world_rank(*idx)
        with pytest.raises(ValueError, match="out of range"):
            grid.time_row(shape[0])

    # -- the paper's Fig. 2 layout, written out -------------------------
    def test_world_size(self):
        assert SpaceTimeGrid(4, 8).world_size == 32

    def test_coords_roundtrip(self):
        grid = SpaceTimeGrid(3, 5)
        for r in range(grid.world_size):
            assert grid.world_rank(*grid.coords(r)) == r

    def test_time_major_layout(self):
        grid = SpaceTimeGrid(2, 4)
        assert grid.coords(0) == (0, 0, 0)
        assert grid.coords(3) == (0, 3, 0)
        assert grid.coords(4) == (1, 0, 0)

    def test_space_comm_is_one_pepc_instance(self):
        grid = SpaceTimeGrid(2, 4)
        assert grid.space_comm(5) == [4, 5, 6, 7]

    def test_time_comm_connects_ith_members(self):
        """Paper Fig. 2: PFASST connects the i-th node of each box."""
        grid = SpaceTimeGrid(3, 4)
        assert grid.time_comm(1) == [1, 5, 9]

    def test_every_rank_in_exactly_two_comms(self):
        grid = SpaceTimeGrid(3, 4)
        for r in range(grid.world_size):
            assert r in grid.space_comm(r)
            assert r in grid.time_comm(r)
            # intersection of the two comms is exactly this rank
            both = set(grid.space_comm(r)) & set(grid.time_comm(r))
            assert both == {r}

    def test_comm_partition_property(self):
        """Space comms partition the world; so do time comms."""
        grid = SpaceTimeGrid(4, 3)
        space_union = set()
        for t in range(4):
            space_union |= set(grid.space_comm(grid.world_rank(t, 0, 0)))
        assert space_union == set(range(grid.world_size))

    def test_out_of_range(self):
        grid = SpaceTimeGrid(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            grid.coords(4)
        with pytest.raises(ValueError):
            grid.world_rank(2, 0, 0)
        with pytest.raises(ValueError):
            grid.world_rank(0, 2, 0)

    def test_invalid_extents(self):
        for extents in ((0, 4), (4, 0), (2, 2, 0), (1, 1, -1)):
            with pytest.raises(ValueError, match=">= 1"):
                SpaceTimeGrid(*extents)

    @pytest.mark.parametrize("p_time,p_space", [(1, 6), (6, 1), (2, 7), (7, 2), (3, 4)])
    def test_non_square_roundtrips(self, p_time, p_space):
        """coords/world_rank are inverse bijections on non-square grids."""
        grid = SpaceTimeGrid(p_time, p_space)
        seen = set()
        for t in range(p_time):
            for s in range(p_space):
                r = grid.world_rank(t, s, 0)
                assert grid.coords(r) == (t, s, 0)
                seen.add(r)
        assert seen == set(range(grid.world_size))

    @pytest.mark.parametrize("p_time,p_space", [(1, 5), (5, 1), (2, 3)])
    def test_non_square_comm_membership(self, p_time, p_space):
        grid = SpaceTimeGrid(p_time, p_space)
        for r in range(grid.world_size):
            t, s, _ = grid.coords(r)
            space = grid.space_comm(r)
            tcomm = grid.time_comm(r)
            assert len(space) == p_space and len(tcomm) == p_time
            assert space.index(r) == s  # position == space coordinate
            assert tcomm.index(r) == t  # position == time coordinate
