"""Tests for the serial SDC time stepper."""

import numpy as np
import pytest

from repro.sdc import SDCStepper, available_node_types
from repro.vortex.problem import ODEProblem


class TestValidation:
    def test_zero_sweeps_rejected(self, scalar_problem):
        with pytest.raises(ValueError, match="sweep"):
            SDCStepper(scalar_problem, sweeps=0)

    def test_bad_interval(self, scalar_problem):
        s = SDCStepper(scalar_problem)
        with pytest.raises(ValueError, match="integer multiple"):
            s.run(np.array([1.0]), 0.0, 1.0, 0.3)

    def test_backward_interval(self, scalar_problem):
        s = SDCStepper(scalar_problem)
        with pytest.raises(ValueError, match="t_end -1.0 must be >= t0 0.0"):
            s.run(np.array([1.0]), 0.0, -1.0, 0.5)

    def test_negative_dt(self, scalar_problem):
        s = SDCStepper(scalar_problem)
        with pytest.raises(ValueError, match="dt"):
            s.run(np.array([1.0]), 0.0, 1.0, -0.5)

    def test_zero_span_returns_initial(self, linear_problem):
        u0 = np.array([1.0, 2.0])
        u = SDCStepper(linear_problem).run(u0, 0.0, 0.0, 0.1)
        assert np.array_equal(u, u0) and u is not u0

    def test_initial_state_not_mutated(self, linear_problem):
        u0 = np.array([1.0, 0.0])
        keep = u0.copy()
        SDCStepper(linear_problem).run(u0, 0.0, 1.0, 0.5)
        assert np.array_equal(u0, keep)


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


class Counted(ODEProblem):
    """Counts the right-hand-side calls of the problem it wraps."""

    def __init__(self, inner: ODEProblem) -> None:
        self.inner, self.calls = inner, 0

    def rhs(self, t, u):
        self.calls += 1
        return self.inner.rhs(t, u)


class TestEulerAndHeun:
    """On two Lobatto nodes SDC is a Runge-Kutta method: one sweep from
    the spread initial value is forward Euler, two sweeps are Heun's
    RK2 (the paper's Fig. 1 scheme).  The repo has no other stepper, so
    these identities are what its Euler and RK2 runs rest on."""

    STEPS = 4

    @pytest.fixture(params=["linear", "sheet"])
    def case(self, request, linear_problem, vortex_problem):
        if request.param == "linear":
            return linear_problem, np.array([1.0, 0.5]), 0.25
        problem, u0, _ = vortex_problem
        return problem, u0, 0.5

    @staticmethod
    def euler(f, u, dt):
        return u + dt * f(u)

    @staticmethod
    def heun(f, u, dt):
        f0 = f(u)
        return u + dt / 2 * (f0 + f(u + dt * f0))

    @pytest.mark.parametrize("sweeps,scheme", [(1, "euler"), (2, "heun")])
    def test_closed_form_steps(self, case, sweeps, scheme):
        problem, u0, dt = case
        f = lambda u: problem.rhs(0.0, u)  # both problems are autonomous
        expected = u0
        for _ in range(self.STEPS):
            expected = getattr(self, scheme)(f, expected, dt)
        counted = Counted(problem)
        u = SDCStepper(counted, num_nodes=2, sweeps=sweeps).run(
            u0, 0.0, self.STEPS * dt, dt)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(u - expected)) <= 1e-15 * scale
        # f(u0) once, then one call per sweep and step: the step's end
        # RHS is carried as the next step's f(u0) (Euler makes n calls,
        # Heun 2n)
        assert counted.calls == sweeps * self.STEPS + 1
