"""Tests for space-filling curve keys."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.tree.morton import (
    MAX_DEPTH,
    BoundingCube,
    cell_of_key,
    morton_decode,
    morton_encode,
    quantize,
)


class TestBoundingCube:
    def test_contains_all_points(self, rng):
        pts = rng.normal(size=(100, 3)) * 5
        cube = BoundingCube.of_points(pts)
        assert np.all(pts >= cube.corner - 1e-12)
        assert np.all(pts <= cube.corner + cube.size + 1e-12)

    def test_cubic(self, rng):
        pts = rng.normal(size=(50, 3)) * np.array([1.0, 10.0, 0.1])
        cube = BoundingCube.of_points(pts)
        assert cube.size >= 10.0  # driven by the largest extent

    def test_degenerate_point_set(self):
        cube = BoundingCube.of_points(np.zeros((5, 3)))
        assert cube.size > 0

    def test_empty(self):
        cube = BoundingCube.of_points(np.zeros((0, 3)))
        assert cube.size == 1.0

    def test_center(self):
        cube = BoundingCube(corner=np.array([0.0, 0.0, 0.0]), size=2.0)
        assert np.allclose(cube.center(), [1.0, 1.0, 1.0])


class TestQuantize:
    def test_range(self, rng):
        pts = rng.random((200, 3))
        cube = BoundingCube.of_points(pts)
        ijk = quantize(pts, cube, depth=10)
        assert ijk.min() >= 0
        assert ijk.max() < 2**10

    def test_bad_depth(self, rng):
        pts = rng.random((5, 3))
        cube = BoundingCube.of_points(pts)
        with pytest.raises(ValueError, match="depth"):
            quantize(pts, cube, depth=0)
        with pytest.raises(ValueError, match="depth"):
            quantize(pts, cube, depth=22)


class TestMorton:
    def test_roundtrip_full_depth(self, rng):
        ijk = rng.integers(0, 2**MAX_DEPTH, size=(500, 3)).astype(np.uint64)
        keys = morton_encode(ijk)
        assert np.array_equal(morton_decode(keys), ijk)

    def test_placeholder_bit_set(self):
        keys = morton_encode(np.zeros((1, 3), dtype=np.uint64))
        assert keys[0] == np.uint64(1) << np.uint64(63)

    def test_origin_key_is_placeholder_only(self):
        keys = morton_encode(np.zeros((3, 3), dtype=np.uint64), depth=4)
        assert np.all(keys == np.uint64(1 << 12))

    def test_unit_steps(self):
        """Adjacent coordinates toggle the right interleaved bit."""
        base = np.zeros((1, 3), dtype=np.uint64)
        kx = morton_encode(np.array([[1, 0, 0]], dtype=np.uint64), depth=4)
        ky = morton_encode(np.array([[0, 1, 0]], dtype=np.uint64), depth=4)
        kz = morton_encode(np.array([[0, 0, 1]], dtype=np.uint64), depth=4)
        k0 = morton_encode(base, depth=4)
        assert kx[0] - k0[0] == 1
        assert ky[0] - k0[0] == 2
        assert kz[0] - k0[0] == 4

    def test_sorted_keys_group_spatially(self, rng):
        """Consecutive Morton keys have nearby coordinates on average."""
        pts = rng.random((2000, 3))
        cube = BoundingCube.of_points(pts)
        keys = morton_encode(quantize(pts, cube))
        order = np.argsort(keys)
        sorted_pts = pts[order]
        gaps = np.linalg.norm(np.diff(sorted_pts, axis=0), axis=1)
        random_gaps = np.linalg.norm(
            np.diff(pts, axis=0), axis=1
        )
        assert gaps.mean() < 0.5 * random_gaps.mean()


class TestCellOfKey:
    def test_root_cell(self):
        cube = BoundingCube(corner=np.zeros(3), size=8.0)
        centers, edge = cell_of_key(np.array([1], dtype=np.uint64), 0, cube)
        assert edge == 8.0
        assert np.allclose(centers[0], [4.0, 4.0, 4.0])

    def test_level1_octants(self):
        cube = BoundingCube(corner=np.zeros(3), size=2.0)
        # octant 7 at level 1: i=j=k=1 -> center (1.5, 1.5, 1.5)
        key = np.array([(1 << 3) | 7], dtype=np.uint64)
        centers, edge = cell_of_key(key, 1, cube)
        assert edge == 1.0
        assert np.allclose(centers[0], [1.5, 1.5, 1.5])

    def test_consistency_with_quantize(self, rng):
        """A particle's level-l cell contains the particle."""
        pts = rng.random((50, 3))
        cube = BoundingCube.of_points(pts)
        keys = morton_encode(quantize(pts, cube))
        for level in (1, 3, 6):
            kl = keys >> np.uint64(3 * (MAX_DEPTH - level))
            centers, edge = cell_of_key(kl, level, cube)
            assert np.all(np.abs(pts - centers) <= edge / 2 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    ijk=arrays(np.int64, (20, 3), elements=st.integers(0, 2**21 - 1)),
)
def test_morton_roundtrip_property(ijk):
    u = ijk.astype(np.uint64)
    assert np.array_equal(morton_decode(morton_encode(u)), u)


@settings(max_examples=20, deadline=None)
@given(
    ijk=arrays(np.int64, (30, 3), elements=st.integers(0, 2**9 - 1)),
)
def test_morton_preserves_octant_order_property(ijk):
    """Points in distinct level-1 octants sort by octant id."""
    u = ijk.astype(np.uint64)
    keys = morton_encode(u, depth=9)
    octant = (
        (u[:, 0] >> 8) | ((u[:, 1] >> 8) << np.uint64(1))
        | ((u[:, 2] >> 8) << np.uint64(2))
    )
    order = np.argsort(keys, kind="stable")
    sorted_octants = octant[order]
    assert np.all(np.diff(sorted_octants.astype(int)) >= 0)
