"""Entry-level traversal layout: batch-local index expansion and memory.

The layout stores one ``(count, shift)`` per interaction-list entry and
the drivers expand a batch's padded global pair indices into particle
slots on the fly (``engine._pairs_to_slots``).  These tests keep the
*old* per-particle-pair tables — ``np.repeat(start, count) +
segment_arange`` — as the reference formula and check the expansion
against them index for index, and pin the layout's memory to
O(list entries) so a per-pair table cannot come back unnoticed.

The far pass is pinned to the bytes it produced before its operands went
structure-of-arrays (digests recorded at that commit, accumulating onto
*non-zero* entry buffers), and the exact batch counters are checked for
repeatability.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.tree import (
    build_octree,
    build_traversal_layout,
    compute_vortex_moments,
    dual_traversal,
)
from repro.tree import engine
from repro.obs import MetricsRegistry, use_metrics
from repro.tree.parallel import _sub_lists
from repro.vortex import SheetConfig, get_kernel, spherical_vortex_sheet

THETAS = (0.0, 0.3, 0.6, 1.0)
P_SPACES = (1, 2, 3, 4)
#: random-tree seeds; 15 is kept for its far-less shard (see
#: ``test_matrix_reaches_the_corner_cases``)
SEEDS = (*range(12), 15)


def _segment_arange(counts):
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _old_tables(tree, layout):
    """The per-pair tables the layout used to store (reference formula)."""
    near_sizes = tree.node_count(layout.near.node)
    src_concat = (
        np.repeat(tree.node_start[layout.near.node], near_sizes)
        + _segment_arange(near_sizes)
    )
    entry_group = np.repeat(
        np.arange(layout.far.counts.size), layout.far.counts
    )
    gsort = entry_group[np.argsort(layout.far.node, kind="stable")]
    ecount = layout.group_count[gsort]
    far_pair_targets = (
        np.repeat(layout.group_start[gsort], ecount) + _segment_arange(ecount)
    )
    return src_concat.astype(np.int64), far_pair_targets.astype(np.int64)


def _random_tree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    leaf_size = int(rng.choice([1, 4, 16, 48, 500]))  # 500: single leaf
    if rng.random() < 0.5:
        positions = rng.uniform(-1.0, 1.0, (n, 3))
    else:  # clustered: uneven leaves, deep branches
        positions = rng.normal(size=(n, 3)) * rng.choice([0.01, 1.0], (n, 1))
    charges = rng.normal(size=(n, 3))
    tree = build_octree(positions, leaf_size=leaf_size)
    return rng, tree, compute_vortex_moments(tree, charges)


def _shard_lists(tree, lists, p_space, rank):
    """Contiguous leaf-aligned shard of the target groups (as compute_shard)."""
    order = np.argsort(tree.node_start[lists.groups], kind="stable")
    mask = np.zeros(lists.n_groups, dtype=bool)
    mask[np.array_split(order, p_space)[rank]] = True
    return _sub_lists(lists, mask)


def _ragged_batches(rng, items):
    """Random batches over ``items`` — unequal row lengths by construction."""
    items = rng.permutation(items)
    cuts = np.sort(rng.integers(0, items.size + 1, size=3))
    return [b for b in np.split(items, cuts) if b.size]


def _check_layout(rng, tree, layout):
    src_concat, far_pair_targets = _old_tables(tree, layout)
    assert layout.near_pairs == int(
        (layout.src_count * layout.group_count).sum()
    )

    # far: rows are unique cluster nodes, padded to the longest
    pstart = layout.far_node_pair_start
    pcount = np.diff(pstart)
    estart = layout.far_node_entry_start
    assert int(pstart[-1]) == far_pair_targets.size
    for kbatch in _ragged_batches(rng, np.arange(layout.far_nodes_u.size)):
        p = int(pcount[kbatch].max())
        lanes, _ = engine._padded_lanes(pstart[:-1][kbatch], pcount[kbatch], p)
        want = far_pair_targets[lanes]  # padding = last real element
        got = engine._pairs_to_slots(
            lanes, estart[:-1][kbatch], np.diff(estart)[kbatch],
            layout.far_entry_count, layout.far_entry_shift,
            pad=p - pcount[kbatch],
        )
        assert np.array_equal(got, want)

    # near (every backend's batch body starts here): rows are groups
    active = np.flatnonzero(layout.src_count > 0)
    for batch in _ragged_batches(rng, active):
        sc = layout.src_count[batch]
        slane, svalid = engine._padded_lanes(
            layout.src_start[batch], sc, int(sc.max())
        )
        _, _, sidx, got_valid = engine._near_batch_indices(layout, batch)
        assert np.array_equal(sidx, src_concat[slane])
        assert np.array_equal(got_valid, svalid)

    # Coulomb near: ragged rows, one per particle slot, no padding
    n = tree.n_particles
    a, b = sorted(int(x) for x in rng.integers(0, n + 1, size=2))
    g = layout.group_of_slot[a:b]
    _, idx, total = engine._expand(layout.src_count[g], layout.src_start[g])
    assert total == int(layout.near_cum[b] - layout.near_cum[a])
    if total:
        want = src_concat[idx]
        got = engine._pairs_to_slots(
            idx, layout.near.starts[g], layout.near.counts[g],
            layout.near_entry_count, layout.near_entry_shift,
        )
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_expansion_matches_per_pair_tables(seed):
    rng, tree, moments = _random_tree(seed)
    for theta in THETAS:
        lists = dual_traversal(tree, theta, node_bmax=moments.bmax)
        for p_space in P_SPACES:
            if p_space > lists.n_groups:
                continue
            for rank in range(p_space):
                sub = _shard_lists(tree, lists, p_space, rank)
                _check_layout(rng, tree, build_traversal_layout(tree, sub))


def test_matrix_reaches_the_corner_cases():
    """The seeds above include an empty far list next to a non-empty
    one, a single-leaf tree, and shards that hold no far pair."""
    seen = set()
    for seed in SEEDS:
        _, tree, moments = _random_tree(seed)
        if tree.n_nodes == 1:
            seen.add("single-leaf")
        for theta in THETAS:
            lists = dual_traversal(tree, theta, node_bmax=moments.bmax)
            seen.add("far" if lists.far_group.size else "no-far")
            if lists.far_group.size and lists.n_groups >= 4:
                if any(_shard_lists(tree, lists, 4, r).far_group.size == 0
                       for r in range(4)):
                    seen.add("shard-without-far")
    assert seen == {"single-leaf", "far", "no-far", "shard-without-far"}


class TestLayoutMemory:
    """No array of the layout may scale with particle pairs."""

    @pytest.fixture(scope="class")
    def sheet_lists(self):
        cfg = SheetConfig(n=4096, sigma_over_h=3.0)
        ps = spherical_vortex_sheet(cfg)
        tree = build_octree(ps.positions, leaf_size=48)
        moments = compute_vortex_moments(tree, ps.charges)
        return tree, {
            theta: dual_traversal(tree, theta, node_bmax=moments.bmax)
            for theta in (0.3, 0.6)
        }

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_bytes_are_linear_in_list_entries(self, sheet_lists, theta):
        tree, lists = sheet_lists
        layout = build_traversal_layout(tree, lists[theta])
        entries = (layout.far.node.size + layout.near.node.size
                   + tree.n_particles)
        assert layout.nbytes <= 64 * entries
        # the tables it replaced were one int64 per particle pair
        pairs = int(layout.far_node_pair_start[-1] + layout.src_count.sum())
        assert layout.nbytes < 8 * pairs / 4

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_build_peak_is_bounded_by_what_it_retains(self, sheet_lists, theta):
        tree, lists = sheet_lists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layout = build_traversal_layout(tree, lists[theta])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * layout.nbytes

    def test_nbytes_counts_cached_far_weights(self, sheet_lists):
        tree, lists = sheet_lists
        layout = build_traversal_layout(tree, lists[0.6])
        bare = layout.nbytes
        layout.far_weights[(0, 2, True)] = np.zeros((7, 12, 5))
        assert layout.nbytes == bare + 7 * 12 * 5 * 8


def _jittered_sheet(n, seed, leaf_size, theta):
    cfg = SheetConfig(n=n, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(cfg)
    rng = np.random.default_rng(seed)
    positions = ps.positions + 1e-3 * cfg.h * rng.uniform(-1, 1, (n, 3))
    tree = build_octree(positions, leaf_size=leaf_size)
    moments = compute_vortex_moments(tree, ps.charges)
    lists = dual_traversal(tree, theta, node_bmax=moments.bmax)
    layout = build_traversal_layout(tree, lists)
    return rng, cfg, ps, tree, moments, layout


class TestFarPassBytes:
    """``batched_far_vortex`` adds onto whatever the buffers hold, batch
    after batch in a fixed order; the digests were recorded with the
    strided ``vel[:, c] += bincount`` form it had before the contiguous
    ``(12, n)`` accumulator."""

    RECORDED = {
        True: "7e7b5603c247c51807a7eab6625abc2a",
        False: "413cbc7ba8777876f6180b14d0daf735",
    }

    @pytest.mark.parametrize("gradient", [True, False])
    def test_nonzero_entry_buffers(self, gradient):
        rng, cfg, _, tree, moments, layout = _jittered_sheet(700, 41, 16, 0.5)
        vel = rng.standard_normal((700, 3))
        grad = rng.standard_normal((700, 3, 3)) if gradient else None
        # small budget: several batches add onto the same targets in turn
        engine.batched_far_vortex(
            tree, moments, layout, get_kernel("algebraic6"), cfg.sigma, 2,
            gradient, vel, grad, budget_bytes=300_000,
        )
        h = hashlib.blake2b(digest_size=16)
        h.update(vel.tobytes())
        if gradient:
            h.update(grad.tobytes())
        assert h.hexdigest() == self.RECORDED[gradient]


class TestBatchCounters:
    """``tree.{near,far}.batches`` / ``tree.near.padded_pairs`` are exact."""

    def _counts(self, n, theta):
        _, cfg, ps, tree, moments, layout = _jittered_sheet(n, 5, 48, theta)
        kernel = get_kernel("algebraic6")
        vel, grad = np.zeros((n, 3)), np.zeros((n, 3, 3))
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            engine.batched_far_vortex(
                tree, moments, layout, kernel, cfg.sigma, 2, True, vel, grad
            )
            engine.batched_near_vortex(
                tree, ps.charges[tree.order], layout, kernel, cfg.sigma,
                True, False, vel, grad,
            )
        return layout, metrics.as_dict()["counters"]

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_repeat_exactly_and_bound_the_real_pairs(self, theta):
        layout, first = self._counts(1500, theta)
        _, second = self._counts(1500, theta)
        assert first == second
        assert first["tree.far.batches"] >= 1
        assert 1 <= first["tree.near.batches"] <= layout.group_count.size
        assert first["tree.near.padded_pairs"] >= layout.near_pairs
        # groups arrive sorted by source count, so padding stays small
        assert first["tree.near.padded_pairs"] <= 1.5 * layout.near_pairs
