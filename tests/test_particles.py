"""Tests for particle state containers (repro.vortex.particles)."""

import numpy as np
import pytest

from repro.vortex.particles import (
    ParticleSystem,
    pack_state,
    unpack_state,
)


class TestPackUnpack:
    def test_roundtrip(self, rng):
        x = rng.normal(size=(10, 3))
        w = rng.normal(size=(10, 3))
        u = pack_state(x, w)
        assert u.shape == (2, 10, 3)
        x2, w2 = unpack_state(u)
        assert np.array_equal(x2, x)
        assert np.array_equal(w2, w)

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError, match="identical shapes"):
            pack_state(rng.normal(size=(10, 3)), rng.normal(size=(9, 3)))

    def test_unpack_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(2, N, 3\)"):
            unpack_state(np.zeros((3, 4, 3)))

class TestParticleSystem:
    def test_default_volumes(self, rng):
        ps = ParticleSystem(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        assert np.array_equal(ps.volumes, np.ones(4))

    def test_charges_definition(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        vol = np.array([1.0, 2.0, 3.0, 4.0])
        ps = ParticleSystem(x, w, vol)
        assert np.allclose(ps.charges, w * vol[:, None])

    def test_negative_volume_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            ParticleSystem(
                rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
                np.array([1.0, -1.0]),
            )

    def test_state_is_a_copy(self, rng):
        ps = ParticleSystem(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        u = ps.state()
        u[0, 0, 0] = 99.0
        assert ps.positions[0, 0] != 99.0

    def test_with_state_roundtrip(self, rng):
        ps = ParticleSystem(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        ps2 = ps.with_state(ps.state())
        assert np.allclose(ps2.positions, ps.positions)
        assert np.allclose(ps2.vorticity, ps.vorticity)
        assert np.allclose(ps2.volumes, ps.volumes)

    def test_with_state_wrong_count(self, rng):
        ps = ParticleSystem(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="particles"):
            ps.with_state(np.zeros((2, 5, 3)))

    def test_bounding_box(self):
        x = np.array([[0.0, 0, 0], [1.0, 2.0, 3.0]])
        ps = ParticleSystem(x, np.zeros_like(x))
        lo, hi = ps.bounding_box()
        assert np.array_equal(lo, [0, 0, 0])
        assert np.array_equal(hi, [1, 2, 3])

    def test_copy_is_deep(self, rng):
        ps = ParticleSystem(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        ps2 = ps.copy()
        ps2.positions[0, 0] = 77.0
        assert ps.positions[0, 0] != 77.0

    def test_n(self, rng):
        ps = ParticleSystem(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
        assert ps.n == 7
