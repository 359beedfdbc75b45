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

The expanded near body (``rho^2`` from one K = 5 GEMM, radial pair in
``u = 1/(1 + rho^2)``) is checked against the explicit branch, against
near fields recorded from the commit before it
(``tests/data/near_fields_parent.npz``; re-record with ``PYTHONPATH=<a
checkout of that commit>/src python tests/test_engine_layout.py
--record-near``), and against a per-batch budget of full-block passes
and temporary bytes.
"""

import dataclasses
import hashlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.backends import KernelBackend
from repro.tree import (
    build_octree,
    build_traversal_layout,
    compute_vortex_moments,
    dual_traversal,
)
from repro.tree import engine
from repro.tree.localbasis import BLOCK_END, ycat_program
from repro.obs import MetricsRegistry, use_metrics
from repro.tree.parallel import _sub_lists
from repro.vortex import SheetConfig, get_kernel, spherical_vortex_sheet
from repro.vortex.kernels import SixthOrderAlgebraic

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

    # far: chunks of whole entries, each node's run padded to whole
    # vectors with its last pair
    entry_pair = engine._cumsum0(layout.far_entry_count)
    pairs = far_pair_targets.size
    assert int(entry_pair[-1]) == pairs
    for cap in (max(1, pairs // int(rng.integers(2, 6))), pairs + 1):
        seen = []
        for k0, eb, lb in engine._far_chunks(layout, entry_pair, cap):
            assert (entry_pair[eb[-1]] - entry_pair[eb[0]] <= cap
                    or eb[-1] - eb[0] == 1)
            # segment i lies inside the entries of node k0 + i
            nodes = layout.far_node_entry_start[k0:k0 + lb.size]
            assert np.all((nodes[:-1] <= eb[:-1]) & (eb[1:] <= nodes[1:]))
            assert np.all(np.diff(lb) % engine._FAR_LANE_MULTIPLE == 0)
            got, padding = engine._far_chunk_slots(layout, entry_pair, eb, lb)
            seg = np.repeat(np.arange(lb.size - 1), np.diff(lb))
            lane = np.arange(lb[-1]) - lb[seg]
            real = np.diff(entry_pair[eb])[seg]
            want = far_pair_targets[entry_pair[eb[seg]]
                                    + np.minimum(lane, real - 1)]
            assert np.array_equal(got, want)
            assert np.array_equal(np.sort(padding),
                                  np.flatnonzero(lane >= real))
            seen.append(want[lane < real])
        got = np.concatenate(seen) if seen else np.empty(0, np.int64)
        assert np.array_equal(got, far_pair_targets)

    # near (every backend's batch body starts here): rows are groups
    active = np.flatnonzero(layout.src_count > 0)
    for batch in _ragged_batches(rng, active):
        sc = layout.src_count[batch]
        slane, svalid = engine._padded_lanes(
            layout.src_start[batch], sc, int(sc.max())
        )
        _, _, sidx, got_valid = engine._near_batch_indices(
            layout, batch, int(layout.group_count[batch].max())
        )
        assert np.array_equal(sidx, src_concat[slane])
        assert np.array_equal(got_valid, svalid)



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
    """``batched_far_vortex`` adds onto whatever the buffers hold, chunk
    after chunk in a fixed order; the digests pin its summation order
    (re-recorded when the body moved to row programs over padded chunks,
    within 1e-15 of the batched body before it)."""

    RECORDED = {
        True: "4a9c582863bba350fb5cd7c7e11682a0",
        False: "f217de7d84b3a919161ef2c098ba79fb",
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
        return tree, layout, metrics.as_dict()["counters"]

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_repeat_exactly_and_bound_the_real_pairs(self, theta):
        tree, layout, first = self._counts(1500, theta)
        _, _, second = self._counts(1500, theta)
        assert first == second
        assert first["tree.far.batches"] >= 1
        plan = engine._near_plan(tree, layout)
        # chunks of whole rows, one row per group with entries
        assert 1 <= first["tree.near.batches"] < np.count_nonzero(plan.krow)
        # radial-block elements: a shared pair's block counts once, so
        # they undercut the near pairs; padding (whole pieces, shared
        # leaves to whole vectors) adds 1.16-1.19 to the pairs the rows
        # compute
        count = layout.group_count
        padded = first["tree.near.padded_pairs"]
        assert padded == int(plan.krow @ count)
        computed = int(
            (count[plan.target] * count[plan.source])[~plan.mirror].sum()
            + (count[plan.mtgt] * count[plan.mrow])[plan.lone].sum()
        )
        assert computed < padded <= 1.25 * computed
        assert padded < layout.near_pairs


# ---------------------------------------------------------------------------
# the expanded near body
# ---------------------------------------------------------------------------

NEAR_FIELDS = Path(__file__).parent / "data" / "near_fields_parent.npz"
#: name -> (jitter/deformation seed or None, theta) on the N=2048 sheet
#: (sigma/h = 3, leaf 48): the Fig. 8 start state, and a smoothly
#: deformed sheet with modulated charges standing in for an evolved one
NEAR_SHEETS = {"sheet": (None, 0.3), "deformed": (3, 0.6)}
#: the recorded fields keep every fourth sorted slot
NEAR_STRIDE = 4


def _near_case(name):
    sigma, tree, charges_sorted, _, layout = _near_case_lists(name)
    return sigma, tree, charges_sorted, layout


def _near_case_lists(name):
    seed, theta = NEAR_SHEETS[name]
    cfg = SheetConfig(n=2048, sigma_over_h=3.0)
    ps = spherical_vortex_sheet(cfg)
    positions, charges = ps.positions, ps.charges
    if seed is not None:
        wave = np.random.default_rng(seed).normal(size=(3, 3))
        positions = positions + 0.15 * np.sin(positions @ wave.T)
        charges = charges * (1.0 + 0.3 * np.cos(positions @ wave[0]))[:, None]
    tree = build_octree(positions, leaf_size=48)
    moments = compute_vortex_moments(tree, charges)
    lists = dual_traversal(tree, theta, node_bmax=moments.bmax)
    layout = build_traversal_layout(tree, lists)
    return cfg.sigma, tree, charges[tree.order], lists, layout


def _near_pass(sigma, tree, charges_sorted, layout, gradient,
               kernel=None, **kwargs):
    n = tree.n_particles
    vel = np.zeros((n, 3))
    grad = np.zeros((n, 3, 3)) if gradient else None
    engine.batched_near_vortex(
        tree, charges_sorted, layout, kernel or get_kernel("algebraic6"),
        sigma, gradient, False, vel, grad, **kwargs,
    )
    return vel, grad


def _explicit(layout):
    """The same layout, failing the radius gate: explicit branch."""
    return dataclasses.replace(layout, group_radius2=np.inf)


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _rows(tree, layout):
    """Row groups of the expanded branch, with their radial-block elements."""
    plan = engine._near_plan(tree, layout)
    rows = np.flatnonzero(plan.krow > 0)
    return plan, rows, plan.krow[rows] * layout.group_count[rows]


class _BatchProbe(KernelBackend):
    """Serial host backend that hands every ``map_batches`` call — the
    batch function and its batches — to a hook."""

    name = "batch-probe"

    def __init__(self, around):
        self.around = around

    def map_batches(self, fn, batches):
        self.around(fn, list(batches))


@pytest.fixture(scope="module", params=sorted(NEAR_SHEETS))
def near_case(request):
    return request.param, _near_case(request.param)


class TestExpandedNearBody:
    def test_cases_take_the_expanded_branch(self, near_case):
        _, (sigma, _, _, layout) = near_case
        assert layout.multipole_regime
        assert layout.group_radius2 <= (engine._NEAR_EXPAND_SIGMA * sigma) ** 2

    @pytest.mark.parametrize("gradient", [True, False])
    def test_matches_the_explicit_branch(self, near_case, gradient):
        _, (sigma, tree, chs, layout) = near_case
        vel, grad = _near_pass(sigma, tree, chs, layout, gradient)
        ref_vel, ref_grad = _near_pass(
            sigma, tree, chs, _explicit(layout), gradient
        )
        assert _max_rel(vel, ref_vel) <= 1e-12
        if gradient:
            assert _max_rel(grad, ref_grad) <= 1e-12

    @pytest.mark.parametrize("gradient", [True, False])
    def test_matches_fields_recorded_before_the_rewrite(self, near_case,
                                                        gradient):
        name, (sigma, tree, chs, layout) = near_case
        vel, grad = _near_pass(sigma, tree, chs, layout, gradient)
        with np.load(NEAR_FIELDS) as recorded:
            ref_vel, ref_grad = recorded[f"{name}-vel"], recorded[f"{name}-grad"]
        # fields of size max|field| summed in another order: both sides
        # sit ~3e-14 from an extended-precision sum
        assert _max_rel(vel[::NEAR_STRIDE], ref_vel) <= 5e-14
        if gradient:
            assert _max_rel(grad[::NEAR_STRIDE], ref_grad) <= 5e-14

    @pytest.mark.parametrize("gradient", [True, False])
    def test_ragged_multi_group_batches(self, gradient):
        # leaf 16 at theta 0.6: rows of 1..16 targets and 8..400 lanes,
        # several to a chunk under a small budget
        _, cfg, ps, tree, _, layout = _jittered_sheet(1000, 23, 16, 0.6)
        chs = ps.charges[tree.order]
        plan, rows, _ = _rows(tree, layout)
        chunks = []

        def around(fn, batches):
            if fn.__name__ == "distances":
                chunks.append(batches)
            for batch in batches:
                fn(batch)

        vel, grad = _near_pass(cfg.sigma, tree, chs, layout, gradient,
                               budget_bytes=400_000,
                               backend=_BatchProbe(around))
        tc = layout.group_count
        assert any(
            len(c) > 1 and np.ptp(plan.krow[rows[c]]) > 0
            and np.any(tc[rows[c]] % engine._NEAR_TARGET_MULTIPLE)
            for c in chunks
        )
        ref_vel, ref_grad = _near_pass(
            cfg.sigma, tree, chs, _explicit(layout), gradient
        )
        assert _max_rel(vel, ref_vel) <= 1e-12
        if gradient:
            assert _max_rel(grad, ref_grad) <= 1e-12
        # the chunk partition is not part of the result: every target's
        # sums are added up in the same order whatever a chunk holds
        for budget in (1, None):
            other_vel, other_grad = _near_pass(cfg.sigma, tree, chs, layout,
                                               gradient, budget_bytes=budget)
            assert np.array_equal(vel, other_vel)
            if gradient:
                assert np.array_equal(grad, other_grad)

    @pytest.mark.parametrize("radius,expanded", [(3.9, True), (4.1, False)])
    def test_radius_gate_picks_the_branch(self, radius, expanded):
        calls = []

        class Spy(SixthOrderAlgebraic):
            def f_g_from_rho2(self, *args, **kwargs):
                calls.append("rho2")
                return super().f_g_from_rho2(*args, **kwargs)

            def f_g_from_r2(self, *args, **kwargs):
                calls.append("r2")
                return super().f_g_from_r2(*args, **kwargs)

        _, cfg, ps, tree, _, layout = _jittered_sheet(384, 11, 48, 0.3)
        gated = dataclasses.replace(
            layout, group_radius2=(radius * cfg.sigma) ** 2
        )
        _near_pass(cfg.sigma, tree, ps.charges[tree.order], gated, True,
                   kernel=Spy())
        assert set(calls) == {"rho2" if expanded else "r2"}


class TestNearPairs:
    """Bookkeeping of the rows: every directed entry is computed exactly
    once, the pairs add up, and a shard serves a mirrored entry whose
    pair straddles shards from the canonical row, as the serial pass
    does."""

    def test_lists_name_leaves_in_group_order(self, near_case):
        # the fixed order the rows add a target's sums up in rests on it
        _, (_, tree, _, layout) = near_case
        plan = engine._near_plan(tree, layout)
        same = plan.target[1:] == plan.target[:-1]
        assert np.all(plan.source[1:][same] > plan.source[:-1][same])

    def test_every_directed_entry_is_consumed_once(self, near_case):
        _, (_, tree, _, layout) = near_case
        plan = engine._near_plan(tree, layout)
        lanes, n_groups = plan.lanes, layout.group_count.size
        # mirrors: shared pairs, served by the row of their first group
        assert np.all(plan.target[plan.mirror] > plan.source[plan.mirror])
        assert np.all(lanes[plan.mtgt] * lanes[plan.mrow]
                      >= engine._NEAR_SHARE_MIN)
        # a row's lanes are tiled exactly once by its entries that are
        # not mirrors, the padding of its last piece and its lone blocks
        own = ~plan.mirror
        lone = plan.lone
        starts = np.concatenate((plan.offset[own], plan.csum,
                                 plan.moff[lone]))
        widths = np.concatenate((plan.width[own], plan.kc - plan.csum,
                                 lanes[plan.mtgt[lone]]))
        row = np.concatenate((plan.target[own], np.arange(n_groups),
                              plan.mrow[lone]))
        order = np.lexsort((starts, row))
        starts, widths, row = starts[order], widths[order], row[order]
        first = np.r_[True, row[1:] != row[:-1]]
        assert np.all(starts[first] == 0)
        assert np.all(starts[~first] == (starts + widths)[:-1][~first[1:]])
        ends = np.zeros(n_groups, np.int64)
        np.maximum.at(ends, row, starts + widths)
        assert np.array_equal(ends, plan.krow)
        # a mirror reuses its pair's entry, else it is a lone block
        entry = {(t, s): (o, w) for t, s, o, w in zip(
            plan.target[own].tolist(), plan.source[own].tolist(),
            plan.offset[own].tolist(), plan.width[own].tolist())}
        for r, t, off, alone in zip(plan.mrow.tolist(), plan.mtgt.tolist(),
                                    plan.moff.tolist(), lone.tolist()):
            assert alone == ((r, t) not in entry)
            if not alone:
                assert entry[(r, t)] == (off, lanes[t])

    def test_mutual_self_and_one_sided_pairs_add_up(self):
        _, tree, _, layout = _near_case("deformed")
        count = layout.group_count
        assert count.min() < 8 and count.max() == 48  # unequal leaves
        plan = engine._near_plan(tree, layout)
        t, s = plan.target, plan.source
        listed = set(zip(t.tolist(), s.tolist()))
        mutual = np.array([(b, a) in listed for a, b in zip(t.tolist(),
                                                            s.tolist())])
        itself = t == s
        mutual &= ~itself
        pairs = count[t] * count[s]
        assert np.count_nonzero(~mutual & ~itself) > 0  # one-sided entries
        assert np.count_nonzero(plan.lone) > 0  # ... that large pairs serve
        assert (pairs[mutual].sum() + pairs[itself].sum()
                + pairs[~mutual & ~itself].sum()) == layout.near_pairs

    @pytest.mark.parametrize("p_space", [2, 3, 4])
    def test_cross_shard_mirror_uses_the_canonical_frame(self, p_space):
        sigma, tree, chs, lists, layout = _near_case_lists("sheet")
        vel, grad = _near_pass(sigma, tree, chs, layout, True)
        crossing = 0
        for rank in range(p_space):
            sub = _shard_lists(tree, lists, p_space, rank)
            shard = build_traversal_layout(tree, sub)
            shard.multipole_regime = layout.multipole_regime
            plan = engine._near_plan(tree, shard)
            mine = np.zeros(layout.group_count.size, bool)
            mine[np.unique(plan.target)] = True
            # mirrors whose pair's first group is another shard's: served
            # from that group's row, in its frame, as a lone block
            away = ~mine[plan.mrow]
            assert np.all(plan.lone[away])
            crossing += np.count_nonzero(away)
            seg_vel, seg_grad = _near_pass(sigma, tree, chs, shard, True)
            own = mine[layout.group_of_slot]
            assert np.array_equal(seg_vel[own], vel[own])
            assert np.array_equal(seg_grad[own], grad[own])
        assert crossing > 0


class _CountingArray(np.ndarray):
    """Logs ``(ufunc, output shape)`` of every ufunc call it is part of
    and hands the result on as a counting array, so everything derived
    from a transferred operand is tallied."""

    log = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def strip(x):
            return x.view(np.ndarray) if isinstance(x, _CountingArray) else x

        if out is not None:
            kwargs["out"] = tuple(strip(o) for o in out)
        result = getattr(ufunc, method)(*map(strip, inputs), **kwargs)
        if isinstance(result, np.ndarray):
            self.log.append((ufunc.__name__, result.shape))
            result = result.view(_CountingArray)
        return result


class _CountingBackend(_BatchProbe):
    """Batch probe whose ``to_device`` hands out ufunc-counting copies."""

    name = "counting-test"

    def to_device(self, a):
        return np.array(a, copy=True).view(_CountingArray)


class TestNearPassBudget:
    """Per-chunk work of the expanded branch, counted — not timed."""

    #: full-block ufunc passes per radial-block element for algebraic6,
    #: the distance GEMMs included as one: measured 22 / 13, as for the
    #: per-group body this replaced — a shared pair's block is one set
    #: of elements instead of two, so the gain is in the element count
    BUDGET = {True: 26, False: 15}

    @pytest.mark.parametrize("gradient", [True, False])
    def test_full_block_passes_per_batch(self, gradient):
        _, cfg, ps, tree, _, layout = _jittered_sheet(1000, 23, 16, 0.6)
        _, rows, elems = _rows(tree, layout)
        tally = []

        def around(fn, batches):
            if fn.__name__ == "distances":
                _CountingArray.log.clear()
                for batch in batches:
                    fn(batch)
                around.block = (int(elems[batches].sum()), len(batches))
                return
            # the distance GEMMs and the radial pair ran since
            block, n_rows = around.block
            gemms = [np.prod(shape) for op, shape in _CountingArray.log
                     if op == "matmul"]
            flat = [op for op, shape in _CountingArray.log
                    if shape == (block,)]
            tally.append((len(flat),
                          len(gemms) == n_rows and sum(gemms) == block))
            for batch in batches:
                fn(batch)

        _near_pass(cfg.sigma, tree, ps.charges[tree.order], layout, gradient,
                   budget_bytes=400_000, backend=_CountingBackend(around))
        assert len(tally) > 3
        passes, whole = zip(*tally)
        assert all(whole)  # one GEMM per row, together the whole block
        assert len(set(passes)) == 1  # same work whatever the chunk holds
        assert 10 <= passes[0] + 1 <= self.BUDGET[gradient]

    @pytest.mark.parametrize("gradient", [True, False])
    def test_batch_temporaries_stay_inside_the_budget(self, gradient):
        # a chunk is the batch of the expanded pass: one call's peak is
        # its largest chunk plus the per-evaluation tables
        for leaf_size, theta in ((16, 0.6), (48, 0.3)):
            self._check_call_peak(gradient, leaf_size, theta)

    def _check_call_peak(self, gradient, leaf_size, theta):
        _, cfg, ps, tree, _, layout = _jittered_sheet(4096, 7, leaf_size,
                                                      theta)
        plan, rows, _ = _rows(tree, layout)
        cost = engine._near_row_bytes(plan, rows, gradient)
        bounds = engine._chunk_bounds(cost, engine.NEAR_GEMM_BUDGET_BYTES)
        chunks = [int(cost[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
        assert len(chunks) > 3
        # packed chunks stay inside the budget (one row may exceed it)
        assert all(c <= engine.NEAR_GEMM_BUDGET_BYTES
                   for c, a, b in zip(chunks, bounds[:-1], bounds[1:])
                   if b - a > 1)
        n = tree.n_particles
        vel = np.zeros((n, 3))
        grad = np.zeros((n, 3, 3)) if gradient else None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.batched_near_vortex(
                tree, ps.charges[tree.order], layout,
                get_kernel("algebraic6"), cfg.sigma, gradient, False, vel,
                grad,
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        model = (
            max(chunks)
            # per target: feature sums, distance operand, local and
            # component-major positions, charges
            + n * 8 * ((30 if gradient else 6) + 5 + 3 + 3 + 3)
            # the row targets' distance operands, the per-entry tables
            + 40 * int(layout.group_count[rows].sum())
            + 80 * plan.target.size
        )
        # the byte constants describe the body: measured 0.98-1.18
        assert 0.8 <= peak / model <= 1.25, (peak, model)


class TestFarPassBudget:
    """Temporaries of one far pass at the default budget, measured."""

    @pytest.mark.parametrize("gradient", [True, False])
    def test_call_peak_stays_inside_the_byte_model(self, gradient):
        # the N=4096 start sheet at theta 0.6: 353k far pairs, so the
        # default budget fills several chunks
        _, cfg, _, tree, moments, layout = _jittered_sheet(4096, 3, 48, 0.6)
        n, kernel = tree.n_particles, get_kernel("algebraic6")
        need = 2 + (2 if gradient else 1)
        nout = 12 if gradient else 3
        ncols = BLOCK_END[need - 1]
        entry_pair = engine._cumsum0(layout.far_entry_count)
        lane_bytes = engine._FAR_PAIR_BYTES[gradient]
        chunks = engine._far_chunks(
            layout, entry_pair, engine.FAR_BUDGET_BYTES // lane_bytes
        )
        assert len(chunks) > 1
        width = max(int(lb[-1]) for _, _, lb in chunks)
        # padding adds at most 7 lanes per node a chunk touches
        assert width * lane_bytes <= 1.05 * engine.FAR_BUDGET_BYTES
        vel = np.zeros((n, 3))
        grad = np.zeros((n, 3, 3)) if gradient else None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.batched_far_vortex(tree, moments, layout, kernel,
                                      cfg.sigma, 2, gradient, vel, grad)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        rows = ycat_program(need)[3]
        model = (
            width * lane_bytes
            # W, and its transpose while it is made contiguous
            + 2 * layout.far_nodes_u.size * nout * ncols * 8
            # the row program's tile
            + rows * engine._FAR_TILE_PAIRS * 8
            # accumulator, position rows and one bincount, per target
            + (nout + 3 + 1) * n * 8
        )
        # the byte constants describe the body
        assert 0.8 <= peak / model <= 1.25, (peak, model)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-near"]:
        sys.exit("usage: python tests/test_engine_layout.py --record-near")
    fields = {}
    for case in NEAR_SHEETS:
        case_vel, case_grad = _near_pass(*_near_case(case), True)
        fields[f"{case}-vel"] = case_vel[::NEAR_STRIDE]
        fields[f"{case}-grad"] = case_grad[::NEAR_STRIDE]
    np.savez(NEAR_FIELDS, **fields)
    print(f"recorded {sorted(fields)} into {NEAR_FIELDS}")
