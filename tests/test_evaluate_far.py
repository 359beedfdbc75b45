"""Tests for far-field multipole evaluation."""

import numpy as np
import pytest

from repro.tree.evaluate import evaluate_vortex_far
from repro.vortex.kernels import SingularKernel, get_kernel
from repro.vortex.rhs import biot_savart_direct

KERNELS = ["algebraic2", "algebraic6"]


def _cluster(rng, n=40, radius=0.15):
    pos = rng.normal(size=(n, 3)) * radius
    ch = rng.normal(size=(n, 3)) * 0.2
    center = pos.mean(axis=0)
    d = pos - center
    m0 = ch.sum(axis=0)
    m1 = np.einsum("ni,nj->ij", ch, d)
    m2 = 0.5 * np.einsum("ni,nj,nk->ijk", ch, d, d)
    return pos, ch, center, m0, m1, m2


class TestVortexFar:
    @pytest.mark.parametrize("name", KERNELS + ["singular"])
    def test_point_cluster_monopole_exact(self, name, rng):
        """One particle at the center: the expansion is exact at order 0."""
        k = get_kernel(name) if name != "singular" else SingularKernel()
        src = np.array([[0.1, -0.2, 0.3]])
        ch = rng.normal(size=(1, 3))
        tg = rng.normal(size=(6, 3)) * 3 + 5
        ref = biot_savart_direct(tg, src, ch, k, 0.4)
        u, g = evaluate_vortex_far(tg, src, ch, None, None, k, 0.4,
                                   order=0, gradient=True)
        assert np.allclose(u, ref.velocity, atol=1e-14)
        assert np.allclose(g, ref.gradient, atol=1e-14)

    @pytest.mark.parametrize("name", KERNELS)
    def test_error_decreases_with_order(self, name, rng):
        k = get_kernel(name)
        pos, ch, center, m0, m1, m2 = _cluster(rng)
        tg = center + np.array([[1.5, 0.3, -0.2], [0.0, -2.0, 1.0]])
        ref = biot_savart_direct(tg, pos, ch, k, 0.3)
        errs = []
        for order in (0, 1, 2):
            u, g = evaluate_vortex_far(
                tg, center[None], m0[None], m1[None], m2[None], k, 0.3,
                order=order, gradient=True,
            )
            errs.append(np.max(np.abs(u - ref.velocity)))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_error_decreases_with_distance(self, rng):
        k = get_kernel("algebraic6")
        pos, ch, center, m0, m1, m2 = _cluster(rng)
        errs = []
        for dist in (1.0, 2.0, 4.0):
            tg = center + np.array([[dist, 0.0, 0.0]])
            ref = biot_savart_direct(tg, pos, ch, k, 0.3, gradient=False)
            u, _ = evaluate_vortex_far(
                tg, center[None], m0[None], m1[None], m2[None], k, 0.3,
                order=2, gradient=False,
            )
            errs.append(np.max(np.abs(u - ref.velocity))
                        / np.max(np.abs(ref.velocity)))
        assert errs[2] < errs[1] < errs[0]

    def test_gradient_matches_finite_difference_of_far_field(self, rng):
        k = get_kernel("algebraic6")
        pos, ch, center, m0, m1, m2 = _cluster(rng)
        x0 = center + np.array([2.0, -1.0, 0.5])
        eps = 1e-6
        _, g = evaluate_vortex_far(
            x0[None], center[None], m0[None], m1[None], m2[None], k, 0.3,
            order=2, gradient=True,
        )
        fd = np.zeros((3, 3))
        for j in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += eps
            xm[j] -= eps
            up, _ = evaluate_vortex_far(
                xp[None], center[None], m0[None], m1[None], m2[None],
                k, 0.3, order=2, gradient=False,
            )
            um, _ = evaluate_vortex_far(
                xm[None], center[None], m0[None], m1[None], m2[None],
                k, 0.3, order=2, gradient=False,
            )
            fd[:, j] = (up[0] - um[0]) / (2 * eps)
        assert np.allclose(g[0], fd, atol=1e-7)

    def test_far_field_divergence_free(self, rng):
        k = get_kernel("algebraic6")
        pos, ch, center, m0, m1, m2 = _cluster(rng)
        tg = center + rng.normal(size=(10, 3)) * 3 + 4
        _, g = evaluate_vortex_far(
            tg, center[None], m0[None], m1[None], m2[None], k, 0.3,
            order=2, gradient=True,
        )
        assert np.allclose(np.trace(g, axis1=1, axis2=2), 0.0, atol=1e-10)

    def test_multiple_clusters_superpose(self, rng):
        k = get_kernel("algebraic6")
        c1 = _cluster(rng)
        c2 = _cluster(rng)
        tg = np.array([[5.0, 5.0, 5.0]])
        u_both, _ = evaluate_vortex_far(
            tg,
            np.stack([c1[2], c2[2]]),
            np.stack([c1[3], c2[3]]),
            np.stack([c1[4], c2[4]]),
            np.stack([c1[5], c2[5]]),
            k, 0.3, order=2, gradient=False,
        )
        u1, _ = evaluate_vortex_far(tg, c1[2][None], c1[3][None],
                                    c1[4][None], c1[5][None], k, 0.3,
                                    order=2, gradient=False)
        u2, _ = evaluate_vortex_far(tg, c2[2][None], c2[3][None],
                                    c2[4][None], c2[5][None], k, 0.3,
                                    order=2, gradient=False)
        assert np.allclose(u_both, u1 + u2, atol=1e-13)

    def test_missing_moments_raise(self, rng):
        k = get_kernel("algebraic6")
        with pytest.raises(ValueError, match="m1"):
            evaluate_vortex_far(
                np.ones((1, 3)), np.zeros((1, 3)), np.ones((1, 3)),
                None, None, k, 0.3, order=1,
            )

    def test_empty_inputs(self):
        k = get_kernel("algebraic6")
        u, g = evaluate_vortex_far(
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros((0, 3, 3)), np.zeros((0, 3, 3, 3)), k, 0.3,
        )
        assert u.shape == (0, 3)

    def test_invalid_order(self, rng):
        k = get_kernel("algebraic6")
        with pytest.raises(ValueError, match="order"):
            evaluate_vortex_far(
                np.ones((1, 3)), np.zeros((1, 3)), np.ones((1, 3)),
                None, None, k, 0.3, order=3,
            )
