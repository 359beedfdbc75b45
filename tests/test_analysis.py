"""Tests for linear stability / convergence analysis."""

import numpy as np
import pytest

from repro.integrators import rk2_midpoint, rk3_ssp, rk4_classic, forward_euler
from repro.pfasst.analysis import rk_stability, sdc_stability
from repro.sdc import available_node_types


class TestRKStability:
    def test_euler(self):
        assert rk_stability(forward_euler, -0.5) == pytest.approx(0.5)

    def test_rk4_polynomial(self):
        """RK4: R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
        z = -0.8 + 0.3j
        expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert rk_stability(rk4_classic, z) == pytest.approx(expected)

    @pytest.mark.parametrize("tableau,order", [
        (forward_euler, 1), (rk2_midpoint, 2), (rk3_ssp, 3),
        (rk4_classic, 4),
    ])
    def test_matches_exponential_to_order(self, tableau, order):
        z = 0.01 * (1 + 1j)
        err = abs(rk_stability(tableau, z) - np.exp(z))
        assert err < 10 * abs(z) ** (order + 1)

    def test_rk4_imaginary_axis_stability(self):
        """RK4 is stable on the imaginary axis up to |y| ~ 2.83."""
        assert abs(rk_stability(rk4_classic, 2.7j)) <= 1.0
        assert abs(rk_stability(rk4_classic, 3.0j)) > 1.0

    def test_vectorised(self):
        z = np.array([-0.1, -0.5 + 0.2j])
        out = rk_stability(rk2_midpoint, z)
        assert out.shape == (2,)


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
        from repro.vortex.problem import ODEProblem

        z = -0.7

        class Dahl(ODEProblem):
            def rhs(self, t, u):
                return z * u

        stepper = SDCStepper(Dahl(), num_nodes=4, sweeps=3,
                             node_type=node_type)
        u = stepper.run(np.array([1.0]), 0.0, 1.0, 1.0)
        r = sdc_stability(4, 3, z, node_type=node_type)
        assert u[0] == pytest.approx(np.real(r), abs=1e-12)

    def test_explicit_sdc_stability_limited(self):
        """Explicit sweeps are conditionally stable: big negative z
        amplifies."""
        assert abs(sdc_stability(3, 4, -20.0)) > 1.0
        assert abs(sdc_stability(3, 4, -1.0)) < 1.0
