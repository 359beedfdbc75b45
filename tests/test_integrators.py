"""Tests for the repo's Runge-Kutta runs.  There is no Butcher engine:
forward Euler and Heun's RK2 are SDC on two Lobatto nodes with one and
two sweeps, driven by ``SDCStepper.run``."""

import numpy as np
import pytest

from repro.sdc import SDCStepper


def rk2(problem):
    """Heun's RK2: SDC on two Lobatto nodes with two sweeps."""
    return SDCStepper(problem, num_nodes=2, sweeps=2)


class TestIntegrateDriver:
    def test_callback_called_at_every_step(self, linear_problem):
        times = []
        rk2(linear_problem).run(
            np.array([1.0, 0.0]), 0.0, 1.0, 0.25,
            callback=lambda t, u: times.append(t),
        )
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_non_divisible_interval_rejected(self, linear_problem):
        with pytest.raises(ValueError, match="integer multiple"):
            rk2(linear_problem).run(np.array([1.0, 0.0]), 0.0, 1.0, 0.3)

    def test_negative_span_rejected(self, linear_problem):
        with pytest.raises(ValueError, match="t_end"):
            rk2(linear_problem).run(np.array([1.0, 0.0]), 1.0, 0.0, 0.1)

    def test_negative_dt_rejected(self, linear_problem):
        with pytest.raises(ValueError, match="dt"):
            rk2(linear_problem).run(np.array([1.0, 0.0]), 0.0, 1.0, -0.1)

    def test_rk2_step_hand_computed(self, scalar_problem):
        """One Heun step against a hand computation; the problem is
        non-autonomous, so the stage times must be t0 and t0 + dt."""
        u0 = np.array([1.0])
        dt = 0.1
        k1 = scalar_problem.rhs(0.0, u0)
        k2 = scalar_problem.rhs(dt, u0 + dt * k1)
        expected = u0 + dt / 2 * (k1 + k2)
        out = rk2(scalar_problem).run(u0, 0.0, dt, dt)
        assert np.allclose(out, expected, rtol=1e-15, atol=0.0)
