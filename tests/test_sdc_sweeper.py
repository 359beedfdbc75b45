"""Tests for the explicit SDC sweeper."""

import numpy as np
import pytest

from repro.sdc.quadrature import make_rule
from repro.sdc.sweeper import ExplicitSDCSweeper


class TestConstruction:
    def test_lobatto_does_not_need_u0(self, scalar_problem):
        """Node 0 carries u0: a sweep without it keeps U[0] and F[0]."""
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.1, np.array([1.0]))
        F[0] = 7.0  # a reused value, not a call
        U2, F2 = sw.sweep(0.0, 0.1, U, F)
        assert U2[0] == U[0] and F2[0] == 7.0

    def test_lobatto_accepted(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        assert sw.num_nodes == 3

    def test_node_times(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        assert np.allclose(sw.node_times(1.0, 0.5), [1.0, 1.25, 1.5])


class TestInitialize:
    def test_spread_copies_u0(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        u0 = np.array([2.0])
        U, F = sw.initialize(0.0, 0.1, u0)
        assert np.allclose(U, 2.0)
        assert np.allclose(F, F[0])

    def test_spread_costs_one_eval(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        scalar_problem.evals = 0
        sw.initialize(0.0, 0.1, np.array([1.0]))
        assert scalar_problem.evals == 1


class TestSweepFixedPoint:
    def test_collocation_solution_is_fixed_point(self, linear_problem):
        """Once converged, further sweeps do not change the solution."""
        sw = ExplicitSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.0])
        U, F = sw.initialize(0.0, 0.2, u0)
        for _ in range(60):
            U, F = sw.sweep(0.0, 0.2, U, F)
        U2, F2 = sw.sweep(0.0, 0.2, U, F)
        assert np.allclose(U2, U, atol=1e-12)

    def test_residual_vanishes_at_fixed_point(self, linear_problem):
        sw = ExplicitSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.0])
        U, F = sw.initialize(0.0, 0.2, u0)
        for _ in range(60):
            U, F = sw.sweep(0.0, 0.2, U, F)
        assert sw.residual(0.2, U, F, u0) < 1e-12

    def test_collocation_solution_matches_exact_linear(self, linear_problem):
        """3-pt Lobatto collocation is 4th order; tiny dt => near exact."""
        sw = ExplicitSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.5])
        dt = 0.05
        U, F = sw.initialize(0.0, dt, u0)
        for _ in range(40):
            U, F = sw.sweep(0.0, dt, U, F)
        exact = linear_problem.exact(dt, u0)
        assert np.allclose(U[-1], exact, atol=1e-9)

    def test_residual_decreases_monotonically_initially(self, linear_problem):
        sw = ExplicitSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.0])
        dt = 0.2
        U, F = sw.initialize(0.0, dt, u0)
        residuals = []
        for _ in range(6):
            U, F = sw.sweep(0.0, dt, U, F)
            residuals.append(sw.residual(dt, U, F, u0))
        assert residuals[-1] < residuals[0] * 1e-3


class TestSweepMechanics:
    def test_sweep_does_not_mutate_inputs(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.1, np.array([1.0]))
        U_copy, F_copy = U.copy(), F.copy()
        sw.sweep(0.0, 0.1, U, F)
        assert np.array_equal(U, U_copy)
        assert np.array_equal(F, F_copy)

    def test_new_u0_is_adopted(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.1, np.array([1.0]))
        new_u0 = np.array([3.0])
        U2, _ = sw.sweep(0.0, 0.1, U, F, u0=new_u0)
        assert U2[0] == pytest.approx(3.0)

    def test_u0_none_reuses_node0(self, scalar_problem):
        sw = ExplicitSDCSweeper(scalar_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.1, np.array([1.0]))
        scalar_problem.evals = 0
        sw.sweep(0.0, 0.1, U, F)
        # only M = 2 new evaluations (nodes 1, 2), node 0 reused
        assert scalar_problem.evals == 2

    def test_tau_shifts_the_fixed_point(self, linear_problem):
        """A FAS tau enters the equation: the fixed point solves
        U = u0 + dt QF + cumsum(tau)."""
        rule = make_rule(3)
        sw = ExplicitSDCSweeper(linear_problem, rule)
        u0 = np.array([1.0, 0.0])
        dt = 0.1
        tau = np.zeros((3, 2))
        tau[1] = [0.01, -0.02]
        tau[2] = [0.005, 0.0]
        U, F = sw.initialize(0.0, dt, u0)
        for _ in range(60):
            U, F = sw.sweep(0.0, dt, U, F, tau=tau)
        assert sw.residual(dt, U, F, u0, tau=tau) < 1e-12
        # without tau in the residual the equation does NOT hold
        assert sw.residual(dt, U, F, u0) > 1e-3


class TestOrderPerSweep:
    @pytest.mark.parametrize("sweeps,expected", [(1, 1), (2, 2), (3, 3)])
    def test_order_increases_with_sweeps(self, linear_problem, sweeps, expected):
        sw = ExplicitSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.5])
        t_end = 0.8
        errors = []
        for n_steps in (8, 16):
            dt = t_end / n_steps
            u = u0.copy()
            for k in range(n_steps):
                U, F = sw.initialize(k * dt, dt, u)
                for _ in range(sweeps):
                    U, F = sw.sweep(k * dt, dt, U, F)
                u = U[-1]
            errors.append(np.max(np.abs(u - linear_problem.exact(t_end, u0))))
        rate = np.log2(errors[0] / errors[1])
        assert rate > expected - 0.5
