"""Tests for the multipole radial derivative chains."""

import numpy as np
import pytest

from repro.tree.profiles import (
    RationalProfile,
    radial_chain,
    supports_multipoles,
)
from repro.vortex.kernels import SingularKernel, get_kernel
from fractions import Fraction

ALGEBRAIC = ["algebraic2", "algebraic6"]


class TestRationalProfile:
    def test_evaluation(self):
        p = RationalProfile(coeffs=(1.0, 2.0), k=Fraction(1, 2))
        t = np.array([0.0, 3.0])
        assert np.allclose(p(t), (1 + 2 * t) / np.sqrt(t + 1))

    def test_diff_matches_finite_difference(self):
        p = RationalProfile(coeffs=(1.0, -2.0, 0.5), k=Fraction(5, 2))
        dp = p.diff()
        t = np.linspace(0.1, 5, 50)
        eps = 1e-7
        fd = (p(t + eps) - p(t - eps)) / (2 * eps)
        assert np.allclose(dp(t), fd, rtol=1e-5)

    def test_diff_of_constant(self):
        p = RationalProfile(coeffs=(2.0,), k=Fraction(0))
        dp = p.diff()
        assert np.allclose(dp(np.array([1.0, 2.0])), 0.0)


class TestSupports:
    def test_algebraic_supported(self):
        for name in ALGEBRAIC:
            assert supports_multipoles(get_kernel(name))

    def test_singular_supported(self):
        assert supports_multipoles(SingularKernel())

    def test_kernel_without_chain_not_supported(self, no_chain_kernel):
        assert not supports_multipoles(no_chain_kernel)
        with pytest.raises(NotImplementedError):
            radial_chain(no_chain_kernel, np.array([1.0]), 1.0, 2)


class TestChain:
    @pytest.mark.parametrize("name", ALGEBRAIC)
    def test_d1_equals_minus_f_over_fourpi(self, name):
        """D1 = -(1/4pi) q(rho)/r^3 by construction."""
        k = get_kernel(name)
        sigma = 0.6
        r = np.linspace(0.05, 4, 50)
        (d1,) = radial_chain(k, r**2, sigma, 1)
        expected = -k.f_radial(r, sigma) / (4 * np.pi)
        assert np.allclose(d1, expected, rtol=1e-12)

    @pytest.mark.parametrize("name", ALGEBRAIC + ["singular"])
    def test_chain_recurrence_numerically(self, name):
        """D_{n+1}(r) = D_n'(r) / r, verified by finite differences."""
        k = get_kernel(name) if name != "singular" else SingularKernel()
        sigma = 0.6
        r = np.linspace(0.3, 3, 30)
        chain = radial_chain(k, r**2, sigma, 4)
        eps = 1e-6
        for n in range(3):
            up = radial_chain(k, (r + eps) ** 2, sigma, 4)[n]
            dn = radial_chain(k, (r - eps) ** 2, sigma, 4)[n]
            deriv = (up - dn) / (2 * eps)
            assert np.allclose(chain[n + 1], deriv / r, rtol=1e-4,
                               atol=1e-10), f"chain order {n + 1}"

    def test_singular_matches_classic_tensors(self):
        """D1 = -(1/4pi)/r^3, D2 = 3/(4pi r^5)."""
        k = SingularKernel()
        r = np.array([0.5, 1.0, 2.0])
        d1, d2 = radial_chain(k, r**2, 1.0, 2)
        assert np.allclose(d1, -1 / (4 * np.pi * r**3))
        assert np.allclose(d2, 3 / (4 * np.pi * r**5))

    @pytest.mark.parametrize("name", ALGEBRAIC)
    def test_far_field_approaches_singular(self, name):
        k = get_kernel(name)
        sing = SingularKernel()
        r = np.array([50.0])
        sigma = 0.5
        for a, b in zip(radial_chain(k, r**2, sigma, 3),
                        radial_chain(sing, r**2, 1.0, 3)):
            assert np.allclose(a, b, rtol=1e-3)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="max_order"):
            radial_chain(SingularKernel(), np.array([1.0]), 1.0, 0)
