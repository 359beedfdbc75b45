"""Tests for the direct Biot-Savart evaluation (repro.vortex.rhs)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.vortex.kernels import AlgebraicKernel, SingularKernel, get_kernel
from repro.vortex import DirectEvaluator, VortexProblem
from repro.vortex.rhs import biot_savart_direct

KERNEL = get_kernel("algebraic6")
SIGMA = 0.4


def _finite_difference_gradient(point, sources, charges, eps=1e-6):
    g = np.zeros((3, 3))
    for j in range(3):
        p_plus, p_minus = point.copy(), point.copy()
        p_plus[0, j] += eps
        p_minus[0, j] -= eps
        up = biot_savart_direct(p_plus, sources, charges, KERNEL, SIGMA,
                                gradient=False).velocity[0]
        um = biot_savart_direct(p_minus, sources, charges, KERNEL, SIGMA,
                                gradient=False).velocity[0]
        g[:, j] = (up - um) / (2 * eps)
    return g


class TestVelocity:
    def test_single_pair_matches_formula(self):
        src = np.array([[0.0, 0.0, 0.0]])
        ch = np.array([[0.0, 0.0, 1.0]])
        tgt = np.array([[1.0, 0.0, 0.0]])
        out = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False)
        r = 1.0
        q = KERNEL.q(np.array([r / SIGMA]))[0]
        expected = -q / (4 * np.pi * r**3) * np.cross([1.0, 0, 0], [0, 0, 1.0])
        assert np.allclose(out.velocity[0], expected)

    def test_self_velocity_is_zero(self):
        src = np.array([[0.3, -0.2, 0.5]])
        ch = np.array([[1.0, 2.0, 3.0]])
        out = biot_savart_direct(src, src, ch, KERNEL, SIGMA, gradient=False)
        assert np.allclose(out.velocity, 0.0)

    def test_linearity_in_charges(self, rng):
        src = rng.normal(size=(20, 3))
        ch = rng.normal(size=(20, 3))
        tgt = rng.normal(size=(5, 3))
        u1 = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False).velocity
        u2 = biot_savart_direct(tgt, src, 2 * ch, KERNEL, SIGMA, gradient=False).velocity
        assert np.allclose(u2, 2 * u1)

    def test_superposition(self, rng):
        src = rng.normal(size=(20, 3))
        ch = rng.normal(size=(20, 3))
        tgt = rng.normal(size=(4, 3))
        u_all = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False).velocity
        u_a = biot_savart_direct(tgt, src[:10], ch[:10], KERNEL, SIGMA, gradient=False).velocity
        u_b = biot_savart_direct(tgt, src[10:], ch[10:], KERNEL, SIGMA, gradient=False).velocity
        assert np.allclose(u_all, u_a + u_b)

    def test_chunk_size_does_not_change_result(self, rng):
        src = rng.normal(size=(50, 3))
        ch = rng.normal(size=(50, 3))
        tgt = rng.normal(size=(33, 3))
        big = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, chunk=1000)
        small = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, chunk=7)
        assert np.allclose(big.velocity, small.velocity)
        assert np.allclose(big.gradient, small.gradient)

    def test_empty_sources(self):
        out = biot_savart_direct(
            np.zeros((3, 3)), np.zeros((0, 3)), np.zeros((0, 3)),
            KERNEL, SIGMA,
        )
        assert np.allclose(out.velocity, 0.0)

    def test_empty_targets(self):
        out = biot_savart_direct(
            np.zeros((0, 3)), np.zeros((2, 3)), np.ones((2, 3)),
            KERNEL, SIGMA,
        )
        assert out.velocity.shape == (0, 3)

    def test_translation_invariance(self, rng):
        src = rng.normal(size=(15, 3))
        ch = rng.normal(size=(15, 3))
        tgt = rng.normal(size=(4, 3))
        shift = np.array([1.7, -0.3, 2.2])
        u1 = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False).velocity
        u2 = biot_savart_direct(tgt + shift, src + shift, ch, KERNEL, SIGMA,
                                gradient=False).velocity
        assert np.allclose(u1, u2, atol=1e-12)

    def test_rotation_equivariance(self, rng):
        from scipy.spatial.transform import Rotation

        rot = Rotation.from_euler("xyz", [0.3, -0.7, 1.1]).as_matrix()
        src = rng.normal(size=(15, 3))
        ch = rng.normal(size=(15, 3))
        tgt = rng.normal(size=(4, 3))
        u = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False).velocity
        u_rot = biot_savart_direct(
            tgt @ rot.T, src @ rot.T, ch @ rot.T, KERNEL, SIGMA,
            gradient=False,
        ).velocity
        assert np.allclose(u_rot, u @ rot.T, atol=1e-10)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        src = rng.normal(size=(25, 3))
        ch = rng.normal(size=(25, 3))
        point = np.array([[0.25, -0.1, 0.4]])
        out = biot_savart_direct(point, src, ch, KERNEL, SIGMA)
        fd = _finite_difference_gradient(point, src, ch)
        assert np.allclose(out.gradient[0], fd, atol=1e-6)

    def test_velocity_is_divergence_free(self, rng):
        src = rng.normal(size=(25, 3))
        ch = rng.normal(size=(25, 3))
        tgt = rng.normal(size=(10, 3))
        out = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA)
        traces = np.trace(out.gradient, axis1=1, axis2=2)
        assert np.allclose(traces, 0.0, atol=1e-12)

    def test_gradient_none_when_not_requested(self, rng):
        out = biot_savart_direct(
            rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)), KERNEL, SIGMA, gradient=False,
        )
        assert out.gradient is None

    def test_stretching_requires_gradient(self, rng):
        out = biot_savart_direct(
            rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)), KERNEL, SIGMA, gradient=False,
        )
        with pytest.raises(ValueError, match="gradient"):
            out.stretching(rng.normal(size=(3, 3)))

    def test_self_gradient_term(self):
        """A single particle's field gradient at its center is F(0) E(alpha)."""
        src = np.array([[0.0, 0.0, 0.0]])
        ch = np.array([[0.0, 0.0, 2.0]])
        out = biot_savart_direct(src, src, ch, KERNEL, SIGMA)
        f0 = KERNEL.f_radial(np.array([0.0]), SIGMA)[0]
        # E(alpha)_ik = eps_ikm alpha_m for alpha = (0,0,2)
        expected = -f0 / (4 * np.pi) * np.array(
            [[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        assert np.allclose(out.gradient[0], expected)

    def test_exclude_zero_removes_self_term(self):
        src = np.array([[0.0, 0.0, 0.0]])
        ch = np.array([[0.0, 0.0, 2.0]])
        out = biot_savart_direct(src, src, ch, KERNEL, SIGMA, exclude_zero=True)
        assert np.allclose(out.gradient[0], 0.0)
        assert np.allclose(out.velocity, 0.0)

    def test_singular_kernel_with_exclusion_is_finite(self, rng):
        src = rng.normal(size=(10, 3))
        ch = rng.normal(size=(10, 3))
        out = biot_savart_direct(src, src, ch, SingularKernel(), 1.0,
                                 exclude_zero=True)
        assert np.all(np.isfinite(out.velocity))
        assert np.all(np.isfinite(out.gradient))


LD = np.longdouble


def _radial_longdouble(kernel, dist, sigma):
    """``(F, G)`` at ``longdouble`` distances from the kernel's defining
    data: the coefficient tables of the algebraic family, the closed form
    of the singular kernel.
    """
    if isinstance(kernel, AlgebraicKernel):
        t = (dist / LD(sigma)) ** 2
        p = sum(LD(c) * t**k for k, c in enumerate(kernel._P))
        w = sum(LD(c) * t**k for k, c in enumerate(kernel._W))
        half = LD(kernel._D) / 2
        return (p / (t + 1) ** (half - 1) / LD(sigma) ** 3,
                w / (t + 1) ** half / LD(sigma) ** 5)
    assert isinstance(kernel, SingularKernel)
    s2 = dist * dist + LD(kernel.softening) ** 2
    return 1 / (s2 * np.sqrt(s2)), -3 / (s2 * s2 * np.sqrt(s2))


def _oracle(targets, sources, charges, kernel, sigma, exclude_zero=False):
    """The docstring formula of ``repro.vortex.rhs``, pair by pair in
    ``np.longdouble``: explicit cross and outer products, no GEMM, no
    shared code with the block kernel."""
    tgt, src, chg = (np.asarray(x, dtype=LD) for x in (targets, sources, charges))
    four_pi = 16 * np.arctan(LD(1))
    vel = np.zeros((len(tgt), 3), dtype=LD)
    grad = np.zeros((len(tgt), 3, 3), dtype=LD)
    for c, x in enumerate(tgt):
        for xp, a in zip(src, chg):
            r = x - xp
            dist = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
            if exclude_zero and dist == 0:
                continue
            f, g = _radial_longdouble(kernel, dist.reshape(1), sigma)
            f, g = f[0], g[0]
            cross = np.array([r[1] * a[2] - r[2] * a[1],
                              r[2] * a[0] - r[0] * a[2],
                              r[0] * a[1] - r[1] * a[0]])
            vel[c] += f * cross
            # G r_k (r x a)_i + F eps_{ikm} a_m
            grad[c] += g * cross[:, None] * r[None, :]
            grad[c] += f * np.array([[0, a[2], -a[1]],
                                     [-a[2], 0, a[0]],
                                     [a[1], -a[0], 0]])
    return -vel / four_pi, -grad / four_pi


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _cloud(rng, n_targets=13, n_sources=22, offset=0.0):
    sources = rng.normal(size=(n_sources, 3)) + offset
    charges = rng.normal(size=(n_sources, 3)) / n_sources
    targets = rng.normal(size=(n_targets, 3)) + offset
    # two targets sit exactly on sources: the r = 0 pair
    targets[:2] = sources[3:5]
    return targets, sources, charges


class TestLongdoubleOracle:
    SIGMA = 0.3
    #: (kernel, exclude_zero, tolerance).  Measured 2e-16 .. 1.2e-15.
    CASES = {
        "algebraic2": (get_kernel("algebraic2"), False, 1e-14),
        "algebraic6": (get_kernel("algebraic6"), False, 1e-14),
        "singular": (SingularKernel(), True, 1e-14),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_pair_loop(self, rng, name):
        kernel, exclude_zero, tol = self.CASES[name]
        targets, sources, charges = _cloud(rng)
        vel, grad = _oracle(targets, sources, charges, kernel, self.SIGMA,
                            exclude_zero)
        out = biot_savart_direct(targets, sources, charges, kernel,
                                 self.SIGMA, exclude_zero=exclude_zero)
        assert out.velocity.shape == (13, 3) and out.gradient.shape == (13, 3, 3)
        assert _rel(out.velocity, vel) <= tol
        assert _rel(out.gradient, grad) <= tol
        only_u = biot_savart_direct(targets, sources, charges, kernel,
                                    self.SIGMA, gradient=False,
                                    exclude_zero=exclude_zero)
        assert only_u.gradient is None
        assert _rel(only_u.velocity, vel) <= tol

    def test_self_evaluation(self, rng):
        """targets is sources: the aliased fast path, N self pairs."""
        _, sources, charges = _cloud(rng)
        vel, grad = _oracle(sources, sources, charges, KERNEL, self.SIGMA)
        out = biot_savart_direct(sources, sources, charges, KERNEL, self.SIGMA)
        assert _rel(out.velocity, vel) <= 1e-14
        assert _rel(out.gradient, grad) <= 1e-14

    @pytest.mark.parametrize("name", ["algebraic6", "singular"])
    def test_cloud_far_from_the_origin(self, rng, name):
        """Explicit differences: an offset of 1e3 cloud radii costs
        nothing (a product expansion of r^2 would lose six digits)."""
        kernel, exclude_zero, _ = self.CASES[name]
        targets, sources, charges = _cloud(rng, offset=1.0e3)
        vel, grad = _oracle(targets, sources, charges, kernel, self.SIGMA,
                            exclude_zero)
        out = biot_savart_direct(targets, sources, charges, kernel,
                                 self.SIGMA, exclude_zero=exclude_zero)
        assert _rel(out.velocity, vel) <= 1e-13
        assert _rel(out.gradient, grad) <= 1e-13

    @pytest.mark.parametrize("gradient", [True, False])
    def test_chunk_sizes_agree(self, rng, gradient):
        targets, sources, charges = _cloud(rng, n_targets=33, n_sources=50)
        fields = [
            biot_savart_direct(targets, sources, charges, KERNEL, self.SIGMA,
                               gradient=gradient, chunk=chunk)
            for chunk in (None, 7, 33, 330)
        ]
        for other in fields[1:]:
            assert _rel(other.velocity, fields[0].velocity) <= 1e-14
            if gradient:
                assert _rel(other.gradient, fields[0].gradient) <= 1e-14

    def test_blocks_of_a_large_call_agree_with_one_block(self, rng):
        """More pairs than one cache block: the default chunking runs
        the loop with a short last block."""
        n = 150
        targets, sources, charges = _cloud(rng, n_targets=n, n_sources=n)
        blocked = biot_savart_direct(targets, sources, charges, KERNEL,
                                     self.SIGMA)
        single = biot_savart_direct(targets, sources, charges, KERNEL,
                                    self.SIGMA, chunk=n)
        assert _rel(blocked.velocity, single.velocity) <= 1e-14
        assert _rel(blocked.gradient, single.gradient) <= 1e-14

    @pytest.mark.parametrize("m,n", [(3, 0), (0, 2)])
    def test_empty_operands_give_zero_fields(self, m, n):
        out = biot_savart_direct(np.zeros((m, 3)), np.zeros((n, 3)),
                                 np.ones((n, 3)), KERNEL, self.SIGMA)
        assert out.velocity.shape == (m, 3) and not out.velocity.any()
        assert out.gradient.shape == (m, 3, 3) and not out.gradient.any()


class TestStretchingSchemes:
    def test_transpose_definition(self, rng):
        src = rng.normal(size=(5, 3))
        ch = rng.normal(size=(5, 3))
        out = biot_savart_direct(src, src, ch, KERNEL, SIGMA)
        w = rng.normal(size=(5, 3))
        expected = np.einsum("nji,nj->ni", out.gradient, w)
        assert np.allclose(out.stretching(w), expected)

    def test_unknown_scheme_raises(self):
        """Only the paper's transpose scheme is implemented."""
        ev = DirectEvaluator(KERNEL, SIGMA)
        for scheme in ("classical", "bogus"):
            with pytest.raises(ValueError, match="unknown stretching"):
                VortexProblem(np.ones(2), ev, scheme)

    def test_stretching_rhs_shape(self, rng):
        vol = np.abs(rng.normal(size=8)) + 0.1
        problem = VortexProblem(vol, DirectEvaluator(KERNEL, SIGMA))
        out = problem.rhs(0.0, rng.normal(size=(2, 8, 3)))
        assert out.shape == (2, 8, 3)

    def test_stretching_rhs_velocity_component(self, rng):
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=(8, 3))
        vol = np.abs(rng.normal(size=8)) + 0.1
        problem = VortexProblem(vol, DirectEvaluator(KERNEL, SIGMA))
        out = problem.rhs(0.0, np.stack([x, w]))
        field = biot_savart_direct(x, x, w * vol[:, None], KERNEL, SIGMA,
                                   gradient=False)
        assert np.allclose(out[0], field.velocity)


@settings(max_examples=20, deadline=None)
@given(
    data=arrays(np.float64, (6, 3),
                elements=st.floats(-2, 2, allow_nan=False)),
)
def test_velocity_antisymmetric_under_charge_negation(data):
    """u(-alpha) = -u(alpha): the field is linear in the charges."""
    src = data + np.arange(6)[:, None] * 0.01  # avoid exact coincidences
    ch = np.roll(data, 1, axis=0)
    tgt = np.array([[3.0, 3.0, 3.0]])
    u_pos = biot_savart_direct(tgt, src, ch, KERNEL, SIGMA, gradient=False).velocity
    u_neg = biot_savart_direct(tgt, src, -ch, KERNEL, SIGMA, gradient=False).velocity
    assert np.allclose(u_pos, -u_neg, atol=1e-12)
