"""Entry-level traversal layout: batch-local index expansion and memory.

The layout stores one ``(count, shift)`` per interaction-list entry and
the drivers expand a batch's padded global pair indices into particle
slots on the fly (``engine._pairs_to_slots``).  These tests keep the
*old* per-particle-pair tables — ``np.repeat(start, count) +
segment_arange`` — as the reference formula and check the expansion
against them index for index, and pin the layout's memory to
O(list entries) so a per-pair table cannot come back unnoticed.
"""

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
from repro.tree.parallel import _sub_lists
from repro.vortex import SheetConfig, spherical_vortex_sheet

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
