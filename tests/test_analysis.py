"""Tests for linear stability on the Dahlquist equation ``u' = z u``:
the running RK baselines and the SDC sweep's matrix form."""

from math import factorial

import numpy as np
import pytest

from repro.integrators import (
    available_integrators,
    forward_euler,
    get_integrator,
    rk2_midpoint,
    rk3_ssp,
    rk4_classic,
)
from repro.pfasst.analysis import sdc_stability
from repro.sdc import available_node_types
from repro.vortex.problem import ODEProblem


class Dahlquist(ODEProblem):
    def __init__(self, z):
        self.z = z

    def rhs(self, t, u):
        return self.z * u


def rk_step(name, z):
    """``R(z)``: one step of the running integrator at dt = 1 from 1."""
    u = get_integrator(name).step(Dahlquist(z), 0.0, 1.0,
                                  np.array([1.0 + 0.0j]))
    return complex(u[0])


class TestRKStability:
    def test_euler(self):
        assert rk_step("euler", -0.5) == pytest.approx(0.5)

    def test_rk4_polynomial(self):
        """RK4: R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
        z = -0.8 + 0.3j
        expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert rk_step("rk4", z) == pytest.approx(expected)

    @pytest.mark.parametrize("name", available_integrators())
    def test_one_step_is_taylor_polynomial(self, name):
        """Every registered tableau has s stages and order s (s <= 4),
        so its ``R(z)`` is the degree-s Taylor polynomial of exp(z)."""
        tableau = get_integrator(name).tableau
        s = tableau.stages
        assert tableau.order == s <= 4
        for z in (-0.8 + 0.3j, 0.4 - 1.1j, -2.5, 1.7j):
            taylor = sum(z**k / factorial(k) for k in range(s + 1))
            assert rk_step(name, z) == pytest.approx(taylor, rel=1e-14)

    @pytest.mark.parametrize("tableau,order", [
        (forward_euler, 1), (rk2_midpoint, 2), (rk3_ssp, 3),
        (rk4_classic, 4),
    ])
    def test_matches_exponential_to_order(self, tableau, order):
        z = 0.01 * (1 + 1j)
        err = abs(rk_step(tableau.name, z) - np.exp(z))
        assert err < 10 * abs(z) ** (order + 1)

    def test_rk4_imaginary_axis_stability(self):
        """RK4 is stable on the imaginary axis up to |y| ~ 2.83."""
        assert abs(rk_step("rk4", 2.7j)) <= 1.0
        assert abs(rk_step("rk4", 3.0j)) > 1.0


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
