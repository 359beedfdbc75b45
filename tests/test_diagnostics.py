"""Tests for flow diagnostics and their conservation under integration."""

import numpy as np
import pytest

from repro.sdc import SDCStepper
from repro.vortex import (
    DirectEvaluator,
    ParticleSystem,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)
from repro.vortex.diagnostics import (
    angular_impulse,
    compute_diagnostics,
    enstrophy,
    linear_impulse,
    total_vorticity,
)
from repro.vortex.sheet import SheetConfig


class TestDefinitions:
    def test_total_vorticity_single_particle(self):
        ps = ParticleSystem(
            np.array([[1.0, 0, 0]]), np.array([[0, 0, 2.0]]), np.array([3.0])
        )
        assert np.allclose(total_vorticity(ps), [0, 0, 6.0])

    def test_linear_impulse_single_particle(self):
        ps = ParticleSystem(
            np.array([[1.0, 0, 0]]), np.array([[0, 0, 2.0]]), np.array([1.0])
        )
        # 0.5 * x cross alpha = 0.5 * (1,0,0) x (0,0,2) = 0.5*(0,-2,0)
        assert np.allclose(linear_impulse(ps), [0, -1.0, 0])

    def test_angular_impulse_single_particle(self):
        ps = ParticleSystem(
            np.array([[1.0, 0, 0]]), np.array([[0, 0, 3.0]]), np.array([1.0])
        )
        inner = np.cross([1.0, 0, 0], [0, 0, 3.0])
        expected = np.cross([1.0, 0, 0], inner) / 3.0
        assert np.allclose(angular_impulse(ps), expected)

    def test_enstrophy_positive(self, small_sheet):
        ps, _ = small_sheet
        assert enstrophy(ps) > 0

    def test_compute_diagnostics_dict(self, small_sheet):
        ps, _ = small_sheet
        d = compute_diagnostics(ps, time=1.5).as_dict()
        assert d["time"] == 1.5
        assert set(d) >= {
            "total_vorticity_norm",
            "linear_impulse_norm",
            "angular_impulse_norm",
            "enstrophy",
        }


class TestConservation:
    """The flow invariants must be (nearly) conserved by accurate schemes."""

    @pytest.fixture(scope="class")
    def evolved(self):
        cfg = SheetConfig(n=150)
        ps = spherical_vortex_sheet(cfg)
        prob = VortexProblem(
            ps.volumes, DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        )
        u_end = SDCStepper(prob, num_nodes=3, sweeps=4).run(
            ps.state(), 0.0, 2.0, 0.25)
        return ps, ps.with_state(u_end)

    def test_total_vorticity_conserved(self, evolved):
        before, after = evolved
        drift = np.linalg.norm(
            total_vorticity(after) - total_vorticity(before)
        )
        scale = np.abs(before.charges).sum()
        assert drift < 1e-8 * scale

    def test_linear_impulse_conserved(self, evolved):
        before, after = evolved
        drift = np.linalg.norm(linear_impulse(after) - linear_impulse(before))
        assert drift < 1e-4 * np.linalg.norm(linear_impulse(before))

    def test_angular_impulse_bounded_drift(self, evolved):
        before, after = evolved
        scale = max(np.linalg.norm(angular_impulse(before)), 1e-3)
        drift = np.linalg.norm(
            angular_impulse(after) - angular_impulse(before)
        )
        assert drift < 5e-2 * max(scale, 1.0)

    def test_sheet_translates_along_axis(self, evolved):
        """The vortex sheet self-propels along its impulse axis (+z here;
        the paper's figure uses the opposite orientation convention)."""
        from repro.vortex.diagnostics import linear_impulse

        before, after = evolved
        dz = after.positions[:, 2].mean() - before.positions[:, 2].mean()
        impulse_z = linear_impulse(before)[2]
        assert dz * impulse_z > 0  # translation follows the impulse
        assert abs(dz) > 1e-3
