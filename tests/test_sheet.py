"""Tests for the spherical vortex sheet initial condition."""

import numpy as np
import pytest

from repro.vortex.sheet import (
    SIGMA_OVER_H,
    SheetConfig,
    sphere_points,
    spherical_vortex_sheet,
)


class TestSpherePoints:
    @pytest.mark.parametrize("placement", ["fibonacci"])
    def test_count_and_radius(self, placement):
        ps = spherical_vortex_sheet(n=500, placement=placement)
        assert np.array_equal(ps.positions, sphere_points(500))
        assert ps.positions.shape == (500, 3)
        assert np.allclose(np.linalg.norm(ps.positions, axis=1), 1.0,
                           atol=1e-12)

    def test_fibonacci_deterministic(self):
        assert np.array_equal(sphere_points(100), sphere_points(100))

    def test_fibonacci_near_uniform(self):
        """Octant occupancy should be within 25% of N/8."""
        pts = sphere_points(4000)
        octant = (pts[:, 0] > 0).astype(int) * 4 + \
                 (pts[:, 1] > 0).astype(int) * 2 + (pts[:, 2] > 0).astype(int)
        counts = np.bincount(octant, minlength=8)
        assert counts.min() > 0.75 * 500
        assert counts.max() < 1.25 * 500

    def test_invalid_placement(self):
        """The lattice is the only point set: any other name is refused."""
        for placement in ("latlon", "random", "grid"):
            with pytest.raises(ValueError, match="placement"):
                spherical_vortex_sheet(n=10, placement=placement)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sphere_points(0)


class TestSheetConfig:
    def test_h_formula(self):
        cfg = SheetConfig(n=10_000)
        assert cfg.h == pytest.approx(np.sqrt(4 * np.pi / 10_000))

    def test_sigma_default_ratio(self):
        cfg = SheetConfig(n=1000)
        assert cfg.sigma == pytest.approx(SIGMA_OVER_H * cfg.h)

    def test_paper_values(self):
        """Paper Fig. 7 caption: sigma ~ 18.53 h, h ~ 0.035 at N = 10k."""
        cfg = SheetConfig(n=10_000)
        assert cfg.h == pytest.approx(0.0354, abs=1e-3)
        assert cfg.sigma == pytest.approx(0.657, abs=2e-2)


class TestSheet:
    def test_counts_and_volumes(self):
        cfg = SheetConfig(n=300)
        ps = spherical_vortex_sheet(cfg)
        assert ps.n == 300
        assert np.allclose(ps.volumes, cfg.h)

    def test_kwargs_constructor(self):
        ps = spherical_vortex_sheet(n=50, radius=2.0)
        assert np.allclose(np.linalg.norm(ps.positions, axis=1), 2.0)

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            spherical_vortex_sheet(SheetConfig(n=10), n=20)

    def test_vorticity_is_azimuthal(self):
        """omega is tangential: perpendicular to both e_r and e_z x ... """
        ps = spherical_vortex_sheet(n=200)
        # omega . e_r = 0 (tangent to the sphere)
        radial = np.einsum("ni,ni->n", ps.vorticity, ps.positions)
        assert np.allclose(radial, 0.0, atol=1e-12)
        # omega has no z-component (e_phi is horizontal)
        assert np.allclose(ps.vorticity[:, 2], 0.0, atol=1e-12)

    def test_vorticity_magnitude_profile(self):
        """|omega| = (3/8pi) sin(theta)."""
        ps = spherical_vortex_sheet(n=500)
        z = np.clip(ps.positions[:, 2], -1, 1)
        sin_theta = np.sqrt(1 - z * z)
        mag = np.linalg.norm(ps.vorticity, axis=1)
        assert np.allclose(mag, 3 / (8 * np.pi) * sin_theta, atol=1e-12)

    def test_total_vorticity_cancels(self):
        """By symmetry the azimuthal vorticity sums to ~0."""
        ps = spherical_vortex_sheet(n=2000)
        total = np.abs(ps.charges.sum(axis=0))
        scale = np.abs(ps.charges).sum()
        assert np.all(total < 1e-2 * scale)

    def test_linear_impulse_along_z(self):
        """The sheet's impulse points along the z axis (flow direction)."""
        from repro.vortex.diagnostics import linear_impulse

        ps = spherical_vortex_sheet(n=2000)
        impulse = linear_impulse(ps)
        assert abs(impulse[2]) > 100 * max(abs(impulse[0]), abs(impulse[1]))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            spherical_vortex_sheet(SheetConfig(n=10, radius=-1.0))
