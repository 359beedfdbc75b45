"""Tests for the SFC domain decomposition the space-parallel evaluator runs:
branch-node covers of a key range and the leaf-aligned shards they tile."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tree.morton import MAX_DEPTH
from repro.tree.parallel import (
    SpaceParallelTreeEvaluator,
    _cover_cells,
    compute_shard,
)


def cover_key_range(lo, hi, depth=MAX_DEPTH):
    """``(cell_start_key, level)`` pairs of the cover, in key order."""
    keys, levels = _cover_cells(lo, hi, depth)
    return list(zip(keys.tolist(), levels.tolist()))


class TestCoverKeyRange:
    def test_single_key(self):
        cells = cover_key_range(5, 5, depth=4)
        assert cells == [(5, 4)]

    def test_full_domain(self):
        cells = cover_key_range(0, 8**4 - 1, depth=4)
        assert cells == [(0, 0)]

    def test_aligned_octant(self):
        size = 8**3
        cells = cover_key_range(size, 2 * size - 1, depth=4)
        assert cells == [(size, 1)]

    def test_cover_is_exact_partition(self):
        lo, hi = 13, 997
        cells = cover_key_range(lo, hi, depth=4)
        covered = []
        for start, level in cells:
            span = 8 ** (4 - level)
            assert start % span == 0, "cells must be aligned"
            covered.extend(range(start, start + span))
        assert covered == list(range(lo, hi + 1))

    def test_minimality(self):
        """No two sibling cells of the cover can be merged."""
        cells = cover_key_range(13, 997, depth=4)
        keys = {(s, l) for s, l in cells}
        for start, level in cells:
            if level == 0:
                continue
            span = 8 ** (4 - level)
            parent_span = span * 8
            parent_start = (start // parent_span) * parent_span
            siblings = {
                (parent_start + i * span, level) for i in range(8)
            }
            assert not siblings <= keys, "mergeable siblings found"

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cover_key_range(5, 4)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="key space"):
            cover_key_range(0, 8**4, depth=4)

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(0, 8**4 - 1),
        span=st.integers(0, 2000),
    )
    def test_cover_property(self, lo, span):
        hi = min(lo + span, 8**4 - 1)
        cells = cover_key_range(lo, hi, depth=4)
        total = sum(8 ** (4 - level) for _, level in cells)
        assert total == hi - lo + 1


class TestBranchesVersusCover:
    """The branch cells of each live shard (the cover of the keys its
    particles occupy) tile exactly that shard's particles."""

    @pytest.mark.parametrize("p_space", [2, 3, 5])
    def test_cover_cells_tile_each_ranks_particles(self, rng, p_space):
        pos = rng.random((700, 3))
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=8)
        state, _ = ev.cache.state(pos, ev.leaf_size)
        depth = state.tree.depth
        shard = compute_shard(state, p_space)
        keys = shard.keys
        for r in range(p_space):
            s, e = int(shard.bounds[r]), int(shard.bounds[r + 1])
            total = 0
            prev_end = None
            for key, level in cover_key_range(int(keys[s]), int(keys[e - 1]),
                                              depth):
                span = 1 << (3 * (depth - level))
                assert key % span == 0  # cell-aligned
                if prev_end is not None:
                    assert key == prev_end  # contiguous, disjoint
                prev_end = key + span
                # counted over all particles: a cell holding another
                # shard's particle overcounts
                lo = np.searchsorted(keys, np.uint64(key), side="left")
                hi = np.searchsorted(keys, np.uint64(key + span), side="left")
                total += int(hi - lo)
            assert total == e - s
