"""Tests for repro.utils.chunking."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.chunking import chunk_ranges


class TestChunkRanges:
    def test_exact_division(self):
        assert list(chunk_ranges(6, 2)) == [(0, 2), (2, 4), (4, 6)]

    def test_remainder(self):
        assert list(chunk_ranges(5, 2)) == [(0, 2), (2, 4), (4, 5)]

    def test_chunk_larger_than_n(self):
        assert list(chunk_ranges(3, 10)) == [(0, 3)]

    def test_zero_n(self):
        assert list(chunk_ranges(0, 4)) == []

    def test_negative_n_raises(self):
        with pytest.raises(ValueError, match="n must be"):
            list(chunk_ranges(-1, 4))

    def test_nonpositive_chunk_raises(self):
        with pytest.raises(ValueError, match="chunk must be"):
            list(chunk_ranges(5, 0))

    @given(n=st.integers(0, 5000), chunk=st.integers(1, 500))
    def test_ranges_cover_exactly(self, n, chunk):
        ranges = list(chunk_ranges(n, chunk))
        covered = 0
        prev_stop = 0
        for start, stop in ranges:
            assert start == prev_stop
            assert stop > start
            assert stop - start <= chunk
            covered += stop - start
            prev_stop = stop
        assert covered == n
