"""Tests for the dual traversal and MAC."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tree.build import build_octree
from repro.tree.mac import mac_accept_sq
from repro.tree.multipole import compute_vortex_moments
from repro.tree.traversal import dual_traversal


class TestMAC:
    """``mac_accept_sq``, the MAC the traversal runs: squared center
    distances, acceptance ``extent <= theta (dist - r_group)``."""

    def test_theta_zero_rejects_everything(self):
        mask = mac_accept_sq(
            0.0, np.array([1.0]), np.array([0.5]), np.array([100.0**2]),
            np.array([0.1]),
        )
        assert not mask.any()

    def test_far_small_node_accepted(self):
        mask = mac_accept_sq(
            0.5, np.array([1.0]), np.array([0.5]), np.array([10.0**2]),
            np.array([0.5]),
        )
        assert mask.all()

    def test_near_node_rejected(self):
        mask = mac_accept_sq(
            0.5, np.array([1.0]), np.array([0.5]), np.array([1.5**2]),
            np.array([0.5]),
        )
        assert not mask.any()

    def test_overlapping_group_rejected(self):
        """Negative effective distance must never accept."""
        mask = mac_accept_sq(
            10.0, np.array([1.0]), np.array([0.5]), np.array([0.3**2]),
            np.array([0.5]),
        )
        assert not mask.any()

    def test_bmax_variant_uses_cluster_radius(self):
        # big cell, tiny actual cluster: bmax accepts, bh rejects
        args = (np.array([2.0]), np.array([0.1]), np.array([3.0**2]),
                np.array([0.0]))
        assert not mac_accept_sq(0.5, *args, variant="bh").any()
        assert mac_accept_sq(0.5, *args, variant="bmax").all()

    def test_equality_accepts(self):
        # extent 1 == theta * (2.5 - 0.5): every operand and both sides
        # of the squared comparison (1.5625) are exact in binary
        size = np.array([1.0, np.nextafter(1.0, 2.0)])
        mask = mac_accept_sq(0.5, size, np.zeros(2), np.full(2, 2.5**2),
                             np.full(2, 0.5))
        assert mask.tolist() == [True, False]

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            mac_accept_sq(-0.1, np.array([1.0]), np.array([1.0]),
                          np.array([1.0]), np.array([1.0]))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            mac_accept_sq(0.5, np.array([1.0]), np.array([1.0]),
                          np.array([1.0]), np.array([1.0]), variant="xxl")


class TestTraversalCompleteness:
    """Every group must interact with every particle exactly once."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 1.2])
    def test_partition_of_sources(self, random_cloud, theta):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        mom = compute_vortex_moments(tree, ch)
        lists = dual_traversal(tree, theta, node_bmax=mom.bmax)
        n = pos.shape[0]
        for gi in range(lists.n_groups):
            covered = np.zeros(n, dtype=int)
            for node in lists.far_node[lists.far_group == gi]:
                lo, hi = tree.node_start[node], tree.node_end[node]
                covered[lo:hi] += 1
            for node in lists.near_node[lists.near_group == gi]:
                lo, hi = tree.node_start[node], tree.node_end[node]
                covered[lo:hi] += 1
            assert np.all(covered == 1), f"group {gi} double/under-covered"

    def test_theta_zero_is_all_near(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        lists = dual_traversal(tree, 0.0)
        assert lists.far_group.size == 0
        n_leaves = tree.leaves().size
        assert lists.near_group.size == n_leaves * n_leaves

    def test_own_leaf_always_near(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        lists = dual_traversal(tree, 0.6)
        for gi, leaf in enumerate(lists.groups):
            mine = lists.near_node[lists.near_group == gi]
            assert leaf in mine

    def test_larger_theta_fewer_interactions(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        mom = compute_vortex_moments(tree, ch)
        totals = []
        for theta in (0.2, 0.5, 1.0):
            lists = dual_traversal(tree, theta, node_bmax=mom.bmax)
            totals.append(
                lists.far_interaction_count(tree)
                + lists.near_interaction_count(tree)
            )
        assert totals[0] > totals[1] > totals[2]

    def test_accepted_nodes_satisfy_mac(self, random_cloud):
        """Every far pair satisfies s/d <= theta with the group-collective
        distance (the conservative guarantee the evaluation relies on)."""
        pos, ch = random_cloud
        theta = 0.5
        tree = build_octree(pos, leaf_size=12)
        mom = compute_vortex_moments(tree, ch)
        lists = dual_traversal(tree, theta, node_bmax=mom.bmax)
        gc = tree.node_center[lists.groups[lists.far_group]]
        nc = tree.node_center[lists.far_node]
        dist = np.linalg.norm(gc - nc, axis=1)
        rg = mom.bmax[lists.groups[lists.far_group]]
        s = tree.node_size[lists.far_node]
        assert np.all(s <= theta * (dist - rg) + 1e-12)

    def test_bmax_requires_moments(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        with pytest.raises(ValueError, match="bmax"):
            dual_traversal(tree, 0.5, variant="bmax")

    def test_mac_test_count_positive(self, random_cloud):
        pos, ch = random_cloud
        tree = build_octree(pos, leaf_size=12)
        lists = dual_traversal(tree, 0.5)
        assert lists.mac_tests >= lists.n_groups


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    theta=st.floats(0.0, 1.5),
    leaf_size=st.integers(4, 40),
)
def test_completeness_property(seed, theta, leaf_size):
    rng = np.random.default_rng(seed)
    pos = rng.random((120, 3))
    tree = build_octree(pos, leaf_size=leaf_size)
    lists = dual_traversal(tree, theta)
    n = pos.shape[0]
    counts = tree.node_end - tree.node_start
    for gi in range(lists.n_groups):
        total = (
            counts[lists.far_node[lists.far_group == gi]].sum()
            + counts[lists.near_node[lists.near_group == gi]].sum()
        )
        assert total == n
