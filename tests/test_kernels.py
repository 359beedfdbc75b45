"""Tests for the smoothing kernels (repro.vortex.kernels)."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vortex.kernels import (
    SingularKernel,
    available_kernels,
    get_kernel,
)

ALGEBRAIC = ["algebraic2", "algebraic6"]


class TestRegistry:
    def test_all_kernels_constructible(self):
        for name in available_kernels():
            assert get_kernel(name).name == name

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("nope")

    def test_expected_names_present(self):
        assert available_kernels() == ("algebraic2", "algebraic6", "singular")

    def test_orders(self):
        assert get_kernel("algebraic2").order == 2
        assert get_kernel("algebraic6").order == 6


@pytest.mark.parametrize("name", ALGEBRAIC)
class TestProfileConsistency:
    def test_qprime_matches_finite_difference(self, name):
        k = get_kernel(name)
        rho = np.linspace(0.05, 10.0, 400)
        eps = 1e-6
        fd = (k.q(rho + eps) - k.q(rho - eps)) / (2 * eps)
        assert np.allclose(k.qprime(rho), fd, rtol=1e-5, atol=1e-8)

    def test_q_over_rho3_matches_definition(self, name):
        k = get_kernel(name)
        rho = np.linspace(0.2, 8.0, 200)
        assert np.allclose(k.q_over_rho3(rho), k.q(rho) / rho**3, rtol=1e-10)

    def test_w_matches_definition(self, name):
        k = get_kernel(name)
        rho = np.linspace(0.2, 8.0, 200)
        expected = (rho * k.qprime(rho) - 3 * k.q(rho)) / rho**5
        assert np.allclose(k.w(rho), expected, rtol=1e-8, atol=1e-12)

    def test_q_tends_to_one(self, name):
        k = get_kernel(name)
        assert k.q(np.array([200.0]))[0] == pytest.approx(1.0, abs=1e-4)

    def test_q_vanishes_cubically_at_origin(self, name):
        k = get_kernel(name)
        rho = np.array([1e-4])
        # q ~ c rho^3, so q / rho^3 is finite and positive
        val = k.q_over_rho3(rho)[0]
        assert np.isfinite(val)
        assert val > 0

    def test_q_monotone_for_second_order(self, name):
        k = get_kernel(name)
        rho = np.linspace(0.0, 20.0, 2001)
        q = k.q(rho)
        if k.order == 2:
            # positive zeta => monotone q
            assert np.all(np.diff(q) >= -1e-14)
        # all kernels: q stays bounded
        assert np.all(np.abs(q) < 1.6)

    def test_zeta_is_finite_everywhere(self, name):
        k = get_kernel(name)
        rho = np.concatenate([[0.0, 1e-12], np.linspace(0.01, 30, 100)])
        assert np.all(np.isfinite(k.zeta(rho)))


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_mass_moment_is_one(name):
    assert get_kernel(name).moment(0) == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("name", ["algebraic6"])
def test_second_moment_vanishes(name):
    assert get_kernel(name).moment(2) == pytest.approx(0.0, abs=1e-4)


def test_fourth_moment_vanishes_for_sixth_order():
    # slow 1/rho^4 tail: generous integration range, loose tolerance
    m4 = get_kernel("algebraic6").moment(4, rmax=400.0, n=400_001)
    assert abs(m4) < 2e-2


class TestSingularKernel:
    def test_q_is_unity(self):
        k = SingularKernel()
        assert np.all(k.q(np.linspace(0.1, 5, 10)) == 1.0)

    def test_f_radial_is_inverse_cube(self):
        k = SingularKernel()
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(k.f_radial(r, 123.0), 1.0 / r**3)

    def test_softening_removes_singularity(self):
        k = SingularKernel(softening=0.1)
        assert np.isfinite(k.f_radial(np.array([0.0]), 1.0))[0]

    def test_negative_softening_rejected(self):
        with pytest.raises(ValueError):
            SingularKernel(softening=-1.0)

    def test_sigma_independence(self):
        k = SingularKernel()
        r = np.linspace(0.1, 3, 7)
        assert np.allclose(k.f_radial(r, 1.0), k.f_radial(r, 42.0))


class TestLazyScipy:
    """``scipy`` is a test-only dependency: importing the package must
    not load it (it costs ~0.25 s and ~25 MiB in every child process)."""

    def test_import_repro_leaves_scipy_unloaded(self):
        code = (
            "import sys, repro, repro.tree, repro.pfasst, repro.parallel\n"
            "import repro.vortex, repro.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded[:5]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


@settings(max_examples=50, deadline=None)
@given(
    rho=st.floats(min_value=0.6, max_value=50.0),
    name=st.sampled_from(ALGEBRAIC),
)
def test_radial_factors_relation_property(rho, name):
    """F and G are consistent: G = (rho q' - 3 q) / (sigma^5 rho^5).

    rho is kept away from 0 because the *reference* expression
    ``q(rho)/rho^3`` cancels catastrophically there (the implementation's
    rational forms are the numerically correct branch; small-rho
    accuracy is covered by the ulp tests of the u-form pair below).
    """
    k = get_kernel(name)
    sigma = 0.7
    r = np.array([rho * sigma])
    f = k.f_radial(r, sigma)[0]
    g = k.g_radial(r, sigma)[0]
    q = k.q(np.array([rho]))[0]
    qp = k.qprime(np.array([rho]))[0]
    assert f == pytest.approx(q / (sigma**3 * rho**3), rel=1e-8, abs=1e-12)
    assert g == pytest.approx(
        (rho * qp - 3 * q) / (sigma**5 * rho**5), rel=1e-6, abs=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(ALGEBRAIC), scale=st.floats(0.1, 10.0))
def test_zeta_positive_mass_property(name, scale):
    """Integral of 4 pi rho^2 zeta over [0, R] equals q(R) for any R."""
    k = get_kernel(name)
    rho = np.linspace(0, scale, 20001)
    integral = np.trapezoid(k.qprime(rho), rho)
    assert integral == pytest.approx(k.q(np.array([scale]))[0], abs=1e-5)


def _u_form_reference(coeffs):
    """``C~(u) = sum_k c_k (1 - u)^k u^(m-k)`` by polynomial products."""
    from fractions import Fraction

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    m = len(coeffs) - 1
    total = [Fraction(0)] * (m + 1)
    for k, c in enumerate(coeffs):
        term = [Fraction(c)]
        for _ in range(k):
            term = mul(term, [Fraction(1), Fraction(-1)])  # (1 - u)
        for _ in range(m - k):
            term = mul(term, [Fraction(0), Fraction(1)])  # u
        for i, x in enumerate(term):
            total[i] += x
    return total


def _radial_reference(k, rho2, sigma):
    """``q/rho^3 / sigma^3`` and ``w / sigma^5`` in extended precision."""
    ld = np.longdouble
    t = rho2.astype(ld)

    def horner(coeffs):
        acc = np.full_like(t, ld(coeffs[-1]))
        for c in coeffs[-2::-1]:
            acc = acc * t + ld(c)
        return acc

    root = np.sqrt(t + ld(1))
    f = horner(k._P) / root ** (k._D - 2) / ld(sigma) ** 3
    g = horner(k._W) / root ** k._D / ld(sigma) ** 5
    return f, g


def _ulps(got, ref):
    ref64 = ref.astype(np.float64)
    err = np.abs(got.astype(np.longdouble) - ref)
    return float((err / np.spacing(np.abs(ref64))).max())


@pytest.mark.parametrize("name", ALGEBRAIC)
class TestUFormRadialPair:
    """``AlgebraicKernel.f_g_from_rho2``: the near field's radial pair."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(2024)
        grid = np.concatenate(([0.0], 10.0 ** np.arange(-30.0, 13.0, 3.0)))
        return np.concatenate((grid, 10.0 ** rng.uniform(-30.0, 12.0, 10_000)))

    def test_coefficients_are_the_exact_expansion(self, name):
        k = get_kernel(name)
        for derived, source in ((k._PU, k._P), (k._WU, k._W)):
            exact = _u_form_reference(source)
            assert len(derived) == len(source)
            assert all(float(e) == d for e, d in zip(exact, derived))

    def test_no_cancellation_in_the_horner_loops(self, name):
        k = get_kernel(name)
        assert all(c >= 0.0 for c in k._PU)
        assert all(c <= 0.0 for c in k._WU)
        if name == "algebraic6":  # one Horner add fewer per factor
            assert k._PU[3] == 0.0 and k._WU[3] == 0.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="needs an extended-precision long double as the reference",
    )
    @pytest.mark.parametrize("sigma", [0.5, 0.7])
    def test_within_10_ulp_and_no_worse_than_r2_form(self, name, sigma):
        # F and G fall like (1 + rho^2)^-5..-6 near the core, so the one
        # ulp that u = 1/(1 + rho^2) carries costs 5-6 ulp by itself;
        # measured on these points: 7.3 (F) / 8.2 (G) ulp for
        # algebraic6, against 19.4 / 23.2 for the r^2 form
        k = get_kernel(name)
        rho2 = self._points()
        ref_f, ref_g = _radial_reference(k, rho2, sigma)
        f, g = k.f_g_from_rho2(rho2.copy(), sigma, True)
        assert _ulps(f, ref_f) <= 10.0
        assert _ulps(g, ref_g) <= 10.0
        f_only, none = k.f_g_from_rho2(rho2.copy(), sigma, False)
        assert none is None and np.array_equal(f_only, f)
        if sigma == 0.5:
            # a power of two: r^2 = sigma^2 rho^2 is exact, so the r^2
            # form sees the very same points
            pf, pg = k.f_g_from_r2(rho2 * sigma**2, sigma, True)
            assert _ulps(f, ref_f) <= _ulps(pf, ref_f)
            assert _ulps(g, ref_g) <= _ulps(pg, ref_g)

    def test_slightly_negative_rho2_stays_finite(self, name):
        k = get_kernel(name)
        f0, g0 = k.f_g_from_rho2(np.zeros(1), 0.7, True)
        f, g = k.f_g_from_rho2(np.array([-1e-16]), 0.7, True)
        assert np.isfinite(f).all() and np.isfinite(g).all()
        # u moves by one ulp; see the conditioning note above
        assert abs(f[0] - f0[0]) <= 4e-15 * abs(f0[0])
        assert abs(g[0] - g0[0]) <= 4e-15 * abs(g0[0])

    def test_input_is_consumed_not_copied(self, name):
        rho2 = np.array([0.0, 1.0, 3.0])
        get_kernel(name).f_g_from_rho2(rho2, 1.0, True)
        assert np.allclose(rho2, [1.0, 0.5, 0.25])  # now u = 1/(1 + rho^2)


class TestRho2EntryPoint:
    def test_family_member_must_have_the_u_form(self):
        from repro.vortex.kernels import AlgebraicKernel

        with pytest.raises(TypeError, match="u-form"):
            class Broken(AlgebraicKernel):  # noqa: F841 - never created
                _D = 7
                _A = (3.0,)
                _P = (1.0,)
                _W = (-3.0,)

    @pytest.mark.parametrize(
        "kernel", [SingularKernel(softening=0.1)], ids=["singular"],
    )
    def test_other_kernels_clamp_and_defer_to_r2_form(self, kernel):
        sigma = 0.7
        rho2 = np.array([-1e-16, 0.0, 0.3, 2.0, 50.0])
        want = kernel.f_g_from_r2(
            sigma**2 * np.maximum(rho2, 0.0), sigma, True
        )
        got = kernel.f_g_from_rho2(rho2.copy(), sigma, True)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
