"""Tests for the FAS correction (paper Eq. 16)."""

import numpy as np
import pytest

from repro.pfasst.fas import fas_correction
from repro.pfasst.transfer import TimeSpaceTransfer
from repro.sdc.nodes import available_node_types
from repro.sdc.quadrature import make_rule
from repro.sdc.sweeper import ExplicitSDCSweeper


@pytest.fixture
def pair():
    return TimeSpaceTransfer(make_rule(3, "lobatto"), make_rule(2, "lobatto"))


class TestStructure:
    def test_shape_and_zero_first_entry(self, pair, rng):
        F_f = rng.normal(size=(3, 2))
        F_c = rng.normal(size=(2, 2))
        tau = fas_correction(0.1, pair, F_f, F_c)
        assert tau.shape == (2, 2)
        assert np.allclose(tau[0], 0.0)

    def test_identical_integrals_give_zero_tau(self, pair):
        """If F is constant, both quadratures integrate it exactly
        and the FAS correction vanishes."""
        F_f = np.ones((3, 2))
        F_c = np.ones((2, 2))
        tau = fas_correction(0.3, pair, F_f, F_c)
        assert np.allclose(tau, 0.0, atol=1e-14)

    def test_quadratic_f_gives_nonzero_tau(self, pair):
        """A quadratic RHS is integrated exactly on 3 Lobatto nodes but
        NOT on 2 — tau captures exactly that defect."""
        tau_f = make_rule(3).nodes
        tau_c = make_rule(2).nodes
        F_f = (tau_f**2)[:, None]
        F_c = (tau_c**2)[:, None]
        dt = 1.0
        tau = fas_correction(dt, pair, F_f, F_c)
        # exact integral of t^2 over [0,1] = 1/3; trapezoid gives 1/2
        assert tau[1, 0] == pytest.approx(1.0 / 3.0 - 0.5, abs=1e-13)

    def test_linear_in_dt(self, pair, rng):
        F_f = rng.normal(size=(3, 2))
        F_c = rng.normal(size=(2, 2))
        t1 = fas_correction(0.1, pair, F_f, F_c)
        t2 = fas_correction(0.2, pair, F_f, F_c)
        assert np.allclose(t2, 2 * t1)

    def test_tau_fine_accumulates(self, pair, rng):
        """Multi-level: the fine tau is restricted into the coarse tau."""
        F_f = rng.normal(size=(3, 2))
        F_c = rng.normal(size=(2, 2))
        tau_f = np.zeros((3, 2))
        tau_f[1] = [1.0, 0.0]
        tau_f[2] = [0.0, 1.0]
        without = fas_correction(0.1, pair, F_f, F_c)
        with_tau = fas_correction(0.1, pair, F_f, F_c, tau_fine=tau_f)
        # cumulative fine tau at coarse nodes {0, 1} is [0, (1,1)]
        delta = with_tau - without
        assert np.allclose(np.cumsum(delta, axis=0)[-1], [1.0, 1.0])


class TestFixedPointProperty:
    @pytest.mark.parametrize("node_type", available_node_types())
    def test_restricted_fine_solution_solves_corrected_coarse_problem(
        self, linear_problem, node_type
    ):
        """The PFASST fixed point: solve the fine collocation problem,
        restrict, compute tau — the coarse residual *with tau* is zero."""
        dt = 0.2
        u0 = np.array([1.0, 0.0])
        fine_rule = make_rule(5, node_type)
        coarse_rule = make_rule(3, node_type)
        pair = TimeSpaceTransfer(fine_rule, coarse_rule)
        fine = ExplicitSDCSweeper(linear_problem, fine_rule)
        coarse = ExplicitSDCSweeper(linear_problem, coarse_rule)

        U, F = fine.initialize(0.0, dt, u0)
        for _ in range(80):
            U, F = fine.sweep(0.0, dt, U, F)
        assert fine.residual(dt, U, F, u0) < 1e-13

        U_c = pair.restrict_nodes(U)
        F_c = np.stack([
            linear_problem.rhs(t, u)
            for t, u in zip(coarse.node_times(0.0, dt), U_c)
        ])
        tau = fas_correction(dt, pair, F, F_c)
        assert coarse.residual(dt, U_c, F_c, u0, tau=tau) < 1e-13

    @pytest.mark.parametrize("node_type", available_node_types())
    def test_coarse_sweep_leaves_fixed_point_invariant(self, linear_problem,
                                                       node_type):
        dt = 0.2
        u0 = np.array([1.0, 0.0])
        fine_rule = make_rule(5, node_type)
        coarse_rule = make_rule(3, node_type)
        pair = TimeSpaceTransfer(fine_rule, coarse_rule)
        fine = ExplicitSDCSweeper(linear_problem, fine_rule)
        coarse = ExplicitSDCSweeper(linear_problem, coarse_rule)

        U, F = fine.initialize(0.0, dt, u0)
        for _ in range(80):
            U, F = fine.sweep(0.0, dt, U, F)
        U_c = pair.restrict_nodes(U)
        F_c = np.stack([
            linear_problem.rhs(t, u)
            for t, u in zip(coarse.node_times(0.0, dt), U_c)
        ])
        tau = fas_correction(dt, pair, F, F_c)
        U_c2, _ = coarse.sweep(0.0, dt, U_c, F_c, tau=tau)
        assert np.allclose(U_c2, U_c, atol=1e-12)
