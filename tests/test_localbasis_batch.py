"""Unit tests for the cluster-frame far factorization and batched near path.

Covers the APIs introduced by the batched-engine redesign:

* ``SmoothingKernel.f_g_from_r2`` — squared-distance radial factors must
  match ``f_radial`` / ``g_radial`` for every kernel (the algebraic
  family overrides it with a sqrt-free Horner form; the base class takes
  the square root).
* ``localbasis.monomial_basis`` — the incremental monomial table,
  checked against explicit products, and ``localbasis.ycat_program`` —
  the row program of the batched far pass, checked against it.
* ``localbasis.node_far_weights`` — contracting the per-node weight
  matrix with the D-weighted monomial vector must reproduce
  ``evaluate_vortex_far_pairs`` exactly; ``localbasis.far_weight_map``
  must reproduce ``node_far_weights`` as one GEMM.
* The near-field GEMM expansion — must agree with the explicit
  cross-product branch to rounding error when forced onto the same
  interaction lists.
"""

import numpy as np
import pytest

from repro.tree import TreeEvaluator, engine
from repro.tree.evaluate import evaluate_vortex_far_pairs
from repro.tree.localbasis import (
    BLOCK_COL,
    BLOCK_END,
    BLOCK_LO,
    DEG_START,
    MONOMIALS,
    far_weight_map,
    monomial_basis,
    node_far_weights,
    ycat_program,
)
from repro.tree.profiles import radial_chain
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig

ALL_KERNELS = ["algebraic2", "algebraic6", "singular"]


class TestFGFromR2:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_matches_radial_factors(self, name):
        kernel = get_kernel(name)
        rng = np.random.default_rng(7)
        sigma = 0.37
        r = rng.uniform(0.05, 6.0, size=257) * sigma
        f, g = kernel.f_g_from_r2(r * r, sigma, gradient=True)
        np.testing.assert_allclose(f, kernel.f_radial(r, sigma),
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(g, kernel.g_radial(r, sigma),
                                   rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_gradient_flag_skips_g(self, name):
        kernel = get_kernel(name)
        f, g = kernel.f_g_from_r2(np.array([0.4, 2.0]), 0.5, gradient=False)
        assert g is None
        assert np.all(np.isfinite(f))

    def test_does_not_mutate_input(self):
        kernel = get_kernel("algebraic6")
        r2 = np.linspace(0.1, 4.0, 33)
        keep = r2.copy()
        kernel.f_g_from_r2(r2, 0.8, gradient=True)
        np.testing.assert_array_equal(r2, keep)


class TestMonomialTables:
    def test_layout_constants_consistent(self):
        assert len(MONOMIALS) == 35
        # degree-major, DEG_START marks the degree boundaries
        for deg in range(5):
            for i in range(DEG_START[deg], DEG_START[deg + 1]):
                assert len(MONOMIALS[i]) == deg
        for blk in range(4):
            assert (BLOCK_END[blk] - BLOCK_COL[blk]
                    == DEG_START[blk + 2] - BLOCK_LO[blk])

    def test_monomial_basis_explicit_products(self):
        rng = np.random.default_rng(0)
        delta = rng.normal(size=(19, 3))
        table = monomial_basis(delta, 35)
        for i, mono in enumerate(MONOMIALS):
            expect = np.ones(delta.shape[0])
            for v in mono:
                expect = expect * delta[:, v]
            np.testing.assert_allclose(table[:, i], expect, rtol=1e-15)

    @pytest.mark.parametrize("need", [1, 2, 3, 4])
    def test_ycat_program_builds_the_blocks(self, need):
        rng = np.random.default_rng(1)
        delta = rng.normal(size=(23, 3))
        chain = rng.normal(size=(need, delta.shape[0]))
        seeds, coords, steps, rows = ycat_program(need)
        table = np.full((rows, delta.shape[0]), np.nan)
        table[coords:coords + 3] = delta.T
        for blk, row in enumerate(seeds):
            table[row] = chain[blk]
        for a, b0, b1, d0 in steps:
            np.multiply(table[a], table[b0:b1], out=table[d0:d0 + b1 - b0])
        psi = monomial_basis(delta, DEG_START[need + 1])
        for blk in range(need):
            lo, c0, c1 = BLOCK_LO[blk], BLOCK_COL[blk], BLOCK_END[blk]
            np.testing.assert_allclose(
                table[c0:c1], chain[blk] * psi[:, lo:lo + (c1 - c0)].T,
                rtol=1e-14)
        # one product per Ycat column not seeded, plus the shared rows
        products = sum(b1 - b0 for _, b0, b1, _ in steps)
        assert products == {1: 3, 2: 12, 3: 34, 4: 55}[need]
        assert len(steps) == {1: 1, 2: 5, 3: 15, 4: 22}[need]


class TestNodeFarWeights:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(3)
        u, p = 7, 400
        centers = rng.normal(size=(u, 3))
        m0 = rng.normal(size=(u, 3))
        m1 = rng.normal(size=(u, 3, 3))
        m2s = rng.normal(size=(u, 3, 3, 3))
        m2 = 0.5 * (m2s + m2s.transpose(0, 1, 3, 2))
        nodemap = rng.integers(0, u, size=p)
        targets = rng.normal(size=(p, 3)) * 2.0 + 4.0
        return centers, m0, m1, m2, nodemap, targets

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("gradient", [False, True])
    def test_matches_pairwise_expansion(self, cloud, order, gradient):
        centers, m0, m1, m2, nodemap, targets = cloud
        kernel = get_kernel("algebraic6")
        sigma = 0.31
        uref, gref = evaluate_vortex_far_pairs(
            targets, centers[nodemap], m0[nodemap],
            m1[nodemap] if order >= 1 else None,
            m2[nodemap] if order >= 2 else None,
            kernel, sigma, order=order, gradient=gradient,
        )
        w = node_far_weights(
            m0, m1 if order >= 1 else None, m2 if order >= 2 else None,
            order, gradient,
        )
        r = targets - centers[nodemap]
        r2 = np.einsum("pi,pi->p", r, r)
        need = order + (2 if gradient else 1)
        chain = radial_chain(kernel, r2, sigma, need)
        psi = monomial_basis(r, DEG_START[need + 1])
        ycat = np.zeros((targets.shape[0], 45))
        for blk in range(need):
            lo, c0, c1 = BLOCK_LO[blk], BLOCK_COL[blk], BLOCK_END[blk]
            ycat[:, c0:c1] = chain[blk][:, None] * psi[:, lo:lo + (c1 - c0)]
        ncols = BLOCK_END[need - 1]
        out = np.einsum("pc,pco->po", ycat[:, :ncols],
                        w[nodemap][:, :ncols, :])
        scale = np.abs(uref).max()
        np.testing.assert_allclose(out[:, 0:3], uref, rtol=0.0,
                                   atol=1e-13 * scale)
        if gradient:
            gscale = np.abs(gref).max()
            np.testing.assert_allclose(
                out[:, 3:12].reshape(-1, 3, 3), gref, rtol=0.0,
                atol=1e-13 * gscale)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("gradient", [False, True])
    def test_weight_map_is_the_transcription(self, cloud, order, gradient):
        _, m0, m1, m2, _, _ = cloud
        w = node_far_weights(
            m0, m1 if order >= 1 else None, m2 if order >= 2 else None,
            order, gradient,
        )
        u = m0.shape[0]
        moments = np.concatenate(
            [m0, m1.reshape(u, 9), m2.reshape(u, 27)], axis=1
        )[:, :(3, 12, 39)[order]]
        cmap = far_weight_map(order, gradient)
        need = order + (2 if gradient else 1)
        ncols, nout = BLOCK_END[need - 1], (12 if gradient else 3)
        got = (moments @ cmap).reshape(u, nout, ncols)
        want = w[:, :ncols, :nout].transpose(0, 2, 1)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-14 * np.abs(want).max())
        assert not cmap.flags.writeable

    def test_bad_order_raises(self, cloud):
        _, m0, m1, m2, _, _ = cloud
        with pytest.raises(ValueError, match="order"):
            node_far_weights(m0, m1, m2, 3, True)
        with pytest.raises(ValueError, match="order"):
            far_weight_map(3, True)

    def test_missing_moments_raise(self, cloud):
        _, m0, _, m2, _, _ = cloud
        with pytest.raises(ValueError, match="first moments"):
            node_far_weights(m0, None, None, 1, False)
        with pytest.raises(ValueError, match="second moments"):
            node_far_weights(m0, m2[:, :, :, 0], None, 2, False)


class TestNearGemmBranch:
    """The two near-field branches must agree on identical pair lists.

    ``_NEAR_EXPAND_SIGMA`` gates the group-frame GEMM expansion; forcing
    it to +inf / 0 drives the same layout through both code paths.
    """

    @pytest.fixture(scope="class")
    def sheet(self):
        cfg = SheetConfig(n=500)
        ps = spherical_vortex_sheet(cfg)
        return ps, cfg, get_kernel("algebraic6")

    @pytest.mark.parametrize("gradient", [True, False])
    def test_gemm_matches_explicit(self, sheet, monkeypatch, gradient):
        ps, cfg, kernel = sheet
        fields = {}
        for mode, gate in (("gemm", np.inf), ("explicit", 0.0)):
            monkeypatch.setattr(engine, "_NEAR_EXPAND_SIGMA", gate)
            ev = TreeEvaluator(kernel, cfg.sigma, theta=0.4, leaf_size=24)
            fields[mode] = ev.field(ps.positions, ps.charges,
                                    gradient=gradient)
        vscale = np.abs(fields["explicit"].velocity).max()
        np.testing.assert_allclose(
            fields["gemm"].velocity, fields["explicit"].velocity,
            rtol=0.0, atol=1e-12 * vscale)
        if gradient:
            gscale = np.abs(fields["explicit"].gradient).max()
            np.testing.assert_allclose(
                fields["gemm"].gradient, fields["explicit"].gradient,
                rtol=0.0, atol=1e-12 * gscale)

    def test_theta_zero_has_no_far_pairs(self, sheet):
        """The gate's structural guard: theta=0 never expands."""
        ps, cfg, kernel = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.0, leaf_size=24)
        ev.field(ps.positions, ps.charges)
        st = next(iter(ev.cache._states.values()))
        layout = st._memo.get(("layout", 0.0, "bh", None))
        assert layout.far_pairs == 0
