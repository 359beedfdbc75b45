"""Tests for the serial SDC time stepper."""

import numpy as np
import pytest

from repro.sdc import SDCStepper, available_node_types


class TestValidation:
    def test_zero_sweeps_rejected(self, scalar_problem):
        with pytest.raises(ValueError, match="sweep"):
            SDCStepper(scalar_problem, sweeps=0)

    def test_bad_interval(self, scalar_problem):
        s = SDCStepper(scalar_problem)
        with pytest.raises(ValueError, match="integer multiple"):
            s.run(np.array([1.0]), 0.0, 1.0, 0.3)

    def test_negative_dt(self, scalar_problem):
        s = SDCStepper(scalar_problem)
        with pytest.raises(ValueError, match="dt"):
            s.run(np.array([1.0]), 0.0, 1.0, -0.5)

    @pytest.mark.parametrize("tol", [-5.0, float("nan")])
    def test_residual_tol_must_be_positive(self, scalar_problem, tol):
        """A tolerance no residual can meet would silently disable the
        early exit."""
        with pytest.raises(ValueError, match="residual_tol"):
            SDCStepper(scalar_problem, residual_tol=tol)


class TestAccuracy:
    def test_matches_exact_linear_solution(self, linear_problem):
        s = SDCStepper(linear_problem, num_nodes=3, sweeps=4)
        u0 = np.array([1.0, 0.0])
        u = s.run(u0, 0.0, 1.0, 0.05)
        exact = linear_problem.exact(1.0, u0)
        assert np.allclose(u, exact, atol=1e-7)

    @pytest.mark.parametrize("sweeps,order", [(2, 2), (3, 3), (4, 4)])
    def test_convergence_order(self, linear_problem, sweeps, order):
        """Paper Fig. 7a: SDC(K) converges at order K on 3 Lobatto nodes."""
        u0 = np.array([1.0, 0.5])
        exact = linear_problem.exact(1.0, u0)
        errors = []
        for dt in (0.25, 0.125):
            s = SDCStepper(linear_problem, num_nodes=3, sweeps=sweeps)
            u = s.run(u0, 0.0, 1.0, dt)
            errors.append(np.max(np.abs(u - exact)))
        rate = np.log2(errors[0] / errors[1])
        assert rate > order - 0.6

    def test_more_nodes_reach_higher_order(self, linear_problem):
        """SDC(8) on 5 Lobatto nodes is the paper's reference integrator."""
        u0 = np.array([1.0, 0.5])
        exact = linear_problem.exact(1.0, u0)
        s = SDCStepper(linear_problem, num_nodes=5, sweeps=8)
        u = s.run(u0, 0.0, 1.0, 0.125)
        assert np.max(np.abs(u - exact)) < 1e-10


class TestStats:
    def test_counts(self, linear_problem):
        s = SDCStepper(linear_problem, num_nodes=3, sweeps=3)
        s.run(np.array([1.0, 0.0]), 0.0, 1.0, 0.25)
        assert s.stats.steps == 4
        assert s.stats.sweeps == 12
        assert len(s.stats.residuals) == 4

    def test_residual_tolerance_early_exit(self, linear_problem):
        s = SDCStepper(
            linear_problem, num_nodes=3, sweeps=50, residual_tol=1e-10
        )
        s.run(np.array([1.0, 0.0]), 0.0, 0.2, 0.2)
        assert s.stats.sweeps < 50
        assert s.stats.final_residual <= 1e-10

    def test_final_residual_nan_when_unused(self, linear_problem):
        s = SDCStepper(linear_problem)
        assert np.isnan(s.stats.final_residual)

    def test_callback_invoked(self, linear_problem):
        s = SDCStepper(linear_problem, sweeps=2)
        seen = []
        s.run(np.array([1.0, 0.0]), 0.0, 0.5, 0.25,
              callback=lambda t, u: seen.append(t))
        assert seen == pytest.approx([0.0, 0.25, 0.5])


class TestCarriedRhs:
    @pytest.mark.parametrize("node_type", available_node_types())
    def test_run_carries_f_end(self, scalar_problem, node_type):
        """A step's last evaluation is the next step's ``f(u0)`` (the
        problem is non-autonomous, so the times must agree): one call
        fewer per later step, the bits of stepping one step at a
        time."""
        s = SDCStepper(scalar_problem, num_nodes=3, sweeps=2,
                       node_type=node_type)
        u0 = u = np.array([1.0])
        for k in range(4):
            u = s.step(0.25 * k, 0.25, u)
        per_step, scalar_problem.evals = scalar_problem.evals, 0
        assert np.array_equal(s.run(u0, 0.0, 1.0, 0.25), u)
        assert scalar_problem.evals == per_step - 3
