"""Tests for linear stability on the Dahlquist equation ``u' = z u``:
the running Euler and RK2 configurations and the SDC sweep's matrix
form against the running stepper."""

from math import factorial

import numpy as np
import pytest

from repro.pfasst.analysis import sdc_stability
from repro.sdc import SDCStepper, available_node_types
from repro.vortex.problem import ODEProblem


class Dahlquist(ODEProblem):
    def __init__(self, z):
        self.z = z

    def rhs(self, t, u):
        return self.z * u


class RealDahlquist(ODEProblem):
    """``u' = z u`` on ``(Re u, Im u)``: the stepper's states are real."""

    def __init__(self, z):
        self.matrix = np.array([[z.real, -z.imag], [z.imag, z.real]])

    def rhs(self, t, u):
        return self.matrix @ u


# sweeps of SDC on two Lobatto nodes that make each Runge-Kutta method
RK_SWEEPS = {"euler": 1, "rk2_heun": 2}


def rk_step(name, z):
    """``R(z)``: one step of the running integrator at dt = 1 from 1."""
    stepper = SDCStepper(RealDahlquist(complex(z)), num_nodes=2,
                         sweeps=RK_SWEEPS[name])
    re, im = stepper.run(np.array([1.0, 0.0]), 0.0, 1.0, 1.0)
    return complex(re, im)


class TestRKStability:
    def test_euler(self):
        assert rk_step("euler", -0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("name", list(RK_SWEEPS))
    def test_one_step_is_taylor_polynomial(self, name):
        """Euler and Heun have s stages and order s, so ``R(z)`` is the
        degree-s Taylor polynomial of exp(z)."""
        s = RK_SWEEPS[name]
        for z in (-0.8 + 0.3j, 0.4 - 1.1j, -2.5, 1.7j):
            taylor = sum(z**k / factorial(k) for k in range(s + 1))
            assert rk_step(name, z) == pytest.approx(taylor, rel=1e-14)


class TestSDCStability:
    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
    def test_matches_exponential_to_sweep_order(self, sweeps):
        z = 0.05 * (1 - 0.5j)
        r = sdc_stability(3, sweeps, z)
        err = abs(r - np.exp(z))
        assert err < 50 * abs(z) ** (sweeps + 1)

    def test_one_sweep_is_forward_euler_like_order(self):
        """One sweep of the first-order corrector is first order."""
        errs = []
        for z in (0.2, 0.1):
            errs.append(abs(sdc_stability(3, 1, z) - np.exp(z)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)  # O(z^2) err

    def test_converged_sweeps_give_collocation(self):
        """Many sweeps converge to the exact collocation stability value
        ``[(I - z Q)^{-1} 1]_M`` (a Pade-like rational approximation)."""
        from repro.sdc import make_rule

        z = -0.5
        r = sdc_stability(3, 40, z)
        rule = make_rule(3)
        u = np.linalg.solve(np.eye(3) - z * rule.Q, np.ones(3))
        assert abs(r - u[-1]) < 1e-13
        # and the collocation value itself is 4th-order close to exp(z)
        assert abs(u[-1] - np.exp(z)) < 1e-4

    @pytest.mark.parametrize("node_type", available_node_types())
    def test_matches_time_stepper(self, node_type):
        """The matrix form agrees with the actual sweeper on u' = z u,
        for every node family (at 4 nodes, where the families differ)."""
        from repro.sdc import SDCStepper

        z = -0.7
        stepper = SDCStepper(Dahlquist(z), num_nodes=4, sweeps=3,
                             node_type=node_type)
        u = stepper.run(np.array([1.0]), 0.0, 1.0, 1.0)
        r = sdc_stability(4, 3, z, node_type=node_type)
        assert u[0] == pytest.approx(np.real(r), abs=1e-12)

    def test_explicit_sdc_stability_limited(self):
        """Explicit sweeps are conditionally stable: big negative z
        amplifies."""
        assert abs(sdc_stability(3, 4, -20.0)) > 1.0
        assert abs(sdc_stability(3, 4, -1.0)) < 1.0
