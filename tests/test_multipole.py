"""Tests for multipole moments and the upward pass."""

import numpy as np
import pytest

from repro.tree.build import build_octree
from repro.tree.multipole import compute_vortex_moments


def _brute_vortex_moments(pos, charges, center):
    d = pos - center
    m0 = charges.sum(axis=0)
    m1 = np.einsum("ni,nj->ij", charges, d)
    m2 = 0.5 * np.einsum("ni,nj,nk->ijk", charges, d, d)
    return m0, m1, m2


class TestVortexMoments:
    def test_root_moments_match_brute_force(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        m0, m1, m2 = _brute_vortex_moments(pos, ch, mom.center[0])
        assert np.allclose(mom.m0[0], m0, atol=1e-12)
        assert np.allclose(mom.m1[0], m1, atol=1e-12)
        assert np.allclose(mom.m2[0], m2, atol=1e-12)

    def test_every_node_matches_brute_force(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        for node in range(tree.n_nodes):
            idx = tree.particles_of(node)
            m0, m1, m2 = _brute_vortex_moments(
                pos[idx], ch[idx], mom.center[node]
            )
            assert np.allclose(mom.m0[node], m0, atol=1e-10)
            assert np.allclose(mom.m1[node], m1, atol=1e-10)
            assert np.allclose(mom.m2[node], m2, atol=1e-10)

    def test_monopole_additivity(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        for node in range(tree.n_nodes):
            kids = tree.children(node)
            if kids.size:
                assert np.allclose(
                    mom.m0[node], mom.m0[kids].sum(axis=0), atol=1e-12
                )

    def test_bmax_bounds_particles(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        for node in range(tree.n_nodes):
            idx = tree.particles_of(node)
            dist = np.linalg.norm(pos[idx] - mom.center[node], axis=1)
            assert dist.max() <= mom.bmax[node] + 1e-9

    def test_abs_charge(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        expected = np.linalg.norm(ch, axis=1).sum()
        assert mom.abs_charge[0] == pytest.approx(expected)

    def test_charge_order_is_original(self, random_cloud):
        """Charges are passed in caller order, not Morton order."""
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom1 = compute_vortex_moments(tree, ch)
        # shuffle input consistently: same physical system, same moments
        perm = np.random.default_rng(0).permutation(pos.shape[0])
        tree2 = build_octree(pos[perm], leaf_size=16)
        mom2 = compute_vortex_moments(tree2, ch[perm])
        assert np.allclose(mom1.m0[0], mom2.m0[0], atol=1e-12)

    def test_wrong_charge_shape(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos)
        with pytest.raises(ValueError):
            compute_vortex_moments(tree, ch[:, :2])


class TestTranslationExactness:
    def test_vortex_m2_symmetric_in_last_axes(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=16)
        mom = compute_vortex_moments(tree, ch)
        assert np.allclose(mom.m2, mom.m2.swapaxes(2, 3), atol=1e-12)

    def test_field_independent_of_leaf_size(self, random_cloud):
        """Different trees (leaf sizes) represent the same physics: the
        root moments must agree exactly."""
        pos, ch = random_cloud
        m_small = compute_vortex_moments(build_octree(pos, leaf_size=4), ch)
        m_large = compute_vortex_moments(build_octree(pos, leaf_size=64), ch)
        assert np.allclose(m_small.m0[0], m_large.m0[0], atol=1e-12)
        assert np.allclose(m_small.m1[0], m_large.m1[0], atol=1e-10)
        assert np.allclose(m_small.m2[0], m_large.m2[0], atol=1e-10)
