"""Tests for VortexProblem and the evaluator interface."""

import numpy as np
import pytest

from repro.vortex import (
    DirectEvaluator,
    VortexProblem,
    get_kernel,
    pack_state,
    unpack_state,
)
from repro.vortex.rhs import biot_savart_direct


class TestDirectEvaluator:
    def test_counts_calls_and_time(self, small_sheet):
        ps, cfg = small_sheet
        ev = DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        ev.field(ps.positions, ps.charges)
        ev.field(ps.positions, ps.charges)
        assert ev.calls == 2
        assert ev.timer.elapsed > 0
        assert ev.mean_cost > 0

    def test_reset_stats(self, small_sheet):
        ps, cfg = small_sheet
        ev = DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        ev.field(ps.positions, ps.charges)
        ev.reset_stats()
        assert ev.calls == 0
        assert ev.timer.elapsed == 0.0

    def test_kernel_by_name(self):
        ev = DirectEvaluator("algebraic2", 0.5)
        assert ev.kernel.name == "algebraic2"

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            DirectEvaluator("algebraic6", 0.0)


class TestVortexProblem:
    def test_rhs_matches_stretching_rhs(self, small_sheet):
        ps, cfg = small_sheet
        kernel = get_kernel("algebraic6")
        prob = VortexProblem(ps.volumes, DirectEvaluator(kernel, cfg.sigma))
        u = ps.state()
        out = prob.rhs(0.0, u)
        field = biot_savart_direct(ps.positions, ps.positions, ps.charges,
                                   kernel, cfg.sigma, gradient=True)
        stretching = np.einsum("nji,nj->ni", field.gradient, ps.vorticity)
        assert np.allclose(out, np.stack([field.velocity, stretching]))

    def test_rhs_shape_mismatch_raises(self, small_sheet):
        ps, cfg = small_sheet
        prob = VortexProblem(
            ps.volumes, DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        )
        with pytest.raises(ValueError, match="particles"):
            prob.rhs(0.0, np.zeros((2, ps.n + 1, 3)))

    def test_with_evaluator_shares_volumes(self, small_sheet):
        ps, cfg = small_sheet
        kernel = get_kernel("algebraic6")
        fine = DirectEvaluator(kernel, cfg.sigma)
        coarse = DirectEvaluator(kernel, cfg.sigma)
        prob = VortexProblem(ps.volumes, fine)
        prob2 = prob.with_evaluator(coarse)
        assert prob2.evaluator is coarse
        assert prob2.volumes is prob.volumes
        assert prob2.scheme == prob.scheme

    def test_norm_is_max_abs(self, small_sheet):
        ps, cfg = small_sheet
        prob = VortexProblem(
            ps.volumes, DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        )
        u = np.zeros((2, 3, 3))
        u[1, 2, 0] = -7.0
        assert prob.norm(u) == 7.0
