"""TreeState cache: hits, invalidation, fine/coarse sharing, counters."""

import numpy as np
import pytest

from repro.obs import Tracer, use_tracer
from repro.tree import TreeEvaluator, TreeStateCache, array_fingerprint
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=300)
    ps = spherical_vortex_sheet(cfg)
    return ps, cfg, get_kernel("algebraic6")


def _fresh_evaluator(sheet, **kw):
    ps, cfg, kernel = sheet
    kw.setdefault("theta", 0.3)
    kw.setdefault("leaf_size", 24)
    return TreeEvaluator(kernel, cfg.sigma, **kw)


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self, rng):
        a = rng.normal(size=(50, 3))
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        b = a.copy()
        b[17, 2] += 1e-12
        assert array_fingerprint(a) != array_fingerprint(b)

    def test_shape_and_dtype_matter(self):
        flat = np.zeros(12)
        assert array_fingerprint(flat) != array_fingerprint(
            flat.reshape(4, 3)
        )
        assert array_fingerprint(flat) != array_fingerprint(
            flat.astype(np.float32)
        )

    def test_non_contiguous_input(self, rng):
        a = rng.normal(size=(40, 6))
        view = a[:, ::2]
        assert array_fingerprint(view) == array_fingerprint(
            np.ascontiguousarray(view)
        )


class TestRepeatedEvaluation:
    def test_identical_state_hits_every_stage(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        first = ev.field(ps.positions, ps.charges)
        s = ev.last_stats
        assert not (s.build_cached or s.moments_cached or s.traversal_cached)
        second = ev.field(ps.positions, ps.charges)
        s = ev.last_stats
        assert s.build_cached and s.moments_cached and s.traversal_cached
        assert np.array_equal(first.velocity, second.velocity)
        assert np.array_equal(first.gradient, second.gradient)
        cs = ev.cache_stats
        assert cs.build_hits == 1 and cs.build_misses == 1
        assert cs.moment_hits == 1 and cs.moment_misses == 1
        assert cs.traversal_hits == 1 and cs.traversal_misses == 1

    def test_perturbed_positions_invalidate(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        moved = ps.positions.copy()
        moved[0, 0] += 1e-9
        ev.field(moved, ps.charges)
        s = ev.last_stats
        assert not s.build_cached
        assert not s.moments_cached
        assert not s.traversal_cached

    def test_perturbed_charges_invalidate_moments_only(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        bumped = ps.charges.copy()
        bumped[3, 1] *= 1.0 + 1e-10
        ev.field(ps.positions, bumped)
        s = ev.last_stats
        assert s.build_cached  # same positions: tree reused
        assert not s.moments_cached  # new charges: moments recomputed
        assert s.traversal_cached  # traversal is geometry-only

    def test_charge_change_is_bitwise_pure(self, sheet):
        """Regression (PR 10): new charges over known positions reuse
        the geometric products — tree, lists, engine layout — and nothing
        derived from the previous charge set.  The engine layout used to
        cache moment-derived far weights; keyed without the moment
        identity, they served charge set B the weights built from A's
        moments, and the warm path returned a different answer than a
        cold evaluator.  Caught in a P_T=4 x P_N=3 PFASST run by the
        node-group digest cross-check.  The weights are built per far
        pass now; the behaviour stays pinned."""
        ps, _, _ = sheet
        other = ps.charges * 1.1 + 1e-3
        warm = _fresh_evaluator(sheet)
        warm.field(ps.positions, other, gradient=True)
        hit = warm.field(ps.positions, ps.charges, gradient=True)
        s = warm.last_stats
        assert s.build_cached and s.traversal_cached  # warm geometry
        cold = _fresh_evaluator(sheet).field(
            ps.positions, ps.charges, gradient=True
        )
        assert np.array_equal(hit.velocity, cold.velocity)
        assert np.array_equal(hit.gradient, cold.gradient)

    def test_inplace_mutation_cannot_go_stale(self, sheet):
        """Content fingerprinting: mutating the caller's array in place is
        a miss, never a stale hit."""
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        pos = ps.positions.copy()
        before = ev.field(pos, ps.charges)
        pos[: pos.shape[0] // 2] *= 1.05  # in-place, same object identity
        after = ev.field(pos, ps.charges)
        assert not ev.last_stats.build_cached
        assert not np.allclose(before.velocity, after.velocity)

    def test_build_timed_only_on_miss(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        tracer = Tracer()
        with use_tracer(tracer):
            ev.field(ps.positions, ps.charges)
            ev.field(ps.positions, ps.charges, gradient=False)
        assert ev.cache_stats.build_misses == 1
        assert ev.cache_stats.build_hits == 1
        assert [s.name for s in tracer.spans].count("tree_build") == 1


class TestFineCoarseSharing:
    def test_coarsened_shares_cache_and_tree(self, sheet):
        ps, _, _ = sheet
        fine = _fresh_evaluator(sheet, theta=0.3)
        coarse = fine.coarsened(0.6)
        assert coarse.cache is fine.cache
        assert coarse.theta == 0.6
        fine.field(ps.positions, ps.charges)
        coarse.field(ps.positions, ps.charges)
        s = coarse.last_stats
        # coarse reuses the fine build + moments, runs its own traversal
        assert s.build_cached and s.moments_cached
        assert not s.traversal_cached
        assert len(fine.cache) == 1

    def test_shared_results_match_unshared(self, sheet):
        ps, _, _ = sheet
        fine = _fresh_evaluator(sheet, theta=0.3)
        shared = fine.coarsened(0.6)
        fine.field(ps.positions, ps.charges)
        out_shared = shared.field(ps.positions, ps.charges)
        solo = _fresh_evaluator(sheet, theta=0.6)
        out_solo = solo.field(ps.positions, ps.charges)
        assert np.array_equal(out_shared.velocity, out_solo.velocity)
        assert np.array_equal(out_shared.gradient, out_solo.gradient)

    def test_explicit_shared_cache_parameter(self, sheet):
        ps, cfg, kernel = sheet
        cache = TreeStateCache(maxsize=4)
        a = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=24,
                          cache=cache)
        b = TreeEvaluator(kernel, cfg.sigma, theta=0.6, leaf_size=24,
                          cache=cache)
        a.field(ps.positions, ps.charges)
        b.field(ps.positions, ps.charges)
        assert cache.stats.build_hits == 1
        assert cache.stats.build_misses == 1

    def test_different_leaf_size_is_a_different_state(self, sheet):
        ps, cfg, kernel = sheet
        cache = TreeStateCache()
        a = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=16,
                          cache=cache)
        b = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=32,
                          cache=cache)
        a.field(ps.positions, ps.charges)
        b.field(ps.positions, ps.charges)
        assert cache.stats.build_misses == 2
        assert len(cache) == 2


class TestEviction:
    def test_lru_bound_holds(self, sheet, rng):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.cache.maxsize = 2
        configs = [ps.positions + 0.01 * k for k in range(4)]
        for pos in configs:
            ev.field(pos, ps.charges)
        assert len(ev.cache) == 2
        # oldest state evicted: its tree is built again (new charges —
        # the memo of finished fields outlives the state and would
        # answer a bit-for-bit repeat)
        ev.field(configs[0], 2.0 * ps.charges)
        assert not ev.last_stats.build_cached

    def test_clear(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        ev.cache.clear()
        assert len(ev.cache) == 0
        ev.field(ps.positions, ps.charges)
        assert not ev.last_stats.build_cached

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            TreeStateCache(maxsize=0)


class TestCacheBytes:
    def test_state_bytes_cover_every_product(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        state, _ = ev.cache.state(ps.positions, ev.leaf_size)
        tree_only = state.nbytes
        assert tree_only >= state.tree.positions.nbytes
        out = ev.field(ps.positions, ps.charges)
        (layout,) = state.engine_layouts.values()
        moments, _ = state.vortex_moments(ps.charges)
        assert state.nbytes >= tree_only + layout.nbytes + moments.m2.nbytes
        # one state plus one memoised field
        assert ev.cache.nbytes == (
            state.nbytes + out.velocity.nbytes + out.gradient.nbytes
        )

    def test_monotone_under_inserts_and_drops_on_eviction(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.cache.maxsize = 2
        assert ev.cache.nbytes == 0
        sizes = []
        for k in range(2):
            ev.field(ps.positions + 0.01 * k, ps.charges)
            sizes.append(ev.cache.nbytes)
        assert 0 < sizes[0] < sizes[1]
        # a third configuration evicts the first: the bare new tree
        # replaces a state that carried moments, lists and a layout
        ev.cache.state(ps.positions + 0.02, ev.leaf_size)
        assert len(ev.cache) == 2
        assert ev.cache.nbytes < sizes[1]
        ev.cache.clear()
        assert ev.cache.nbytes == 0

    def test_gauge_follows_the_cache(self, sheet):
        from repro.obs import MetricsRegistry, use_metrics

        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            ev.field(ps.positions, ps.charges)
            first = metrics.as_dict()["gauges"]["tree.cache.bytes"]
            # state() sets the gauge before this evaluation's moments,
            # lists and layout exist; the next state() call sees them
            ev.cache.state(ps.positions, ev.leaf_size)
            second = metrics.as_dict()["gauges"]["tree.cache.bytes"]
        assert 0 < first < second == ev.cache.nbytes
        # no registry, no gauge (and no cost)
        ev.field(ps.positions + 0.01, ps.charges)
        assert metrics.as_dict()["gauges"]["tree.cache.bytes"] == second


class TestStatsPlumbing:
    def test_cache_stats_as_dict_keys(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        d = ev.cache_stats.as_dict()
        assert set(d) == {
            "build_hits", "build_misses", "moment_hits", "moment_misses",
            "traversal_hits", "traversal_misses",
        }

    def test_field_hit_counters(self, sheet):
        from repro.obs import MetricsRegistry, use_metrics

        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            ev.field(ps.positions, ps.charges)
            ev.field(ps.positions, ps.charges)
        counters = metrics.as_dict()["counters"]
        assert counters["tree.cache.field.misses"] == 1
        assert counters["tree.cache.field.hits"] == 1
        # the hit stands for the stages it skipped and reports the
        # evaluation it answered; it executes no batch
        for stage in ("build", "moment", "traversal"):
            assert counters[f"tree.cache.{stage}.hits"] == 1
        assert counters["tree.evaluations"] == 2
        assert counters["tree.mac_tests"] == 2 * ev.last_stats.mac_tests
        ev2 = _fresh_evaluator(sheet)
        once = MetricsRegistry()
        with use_metrics(once):
            ev2.field(ps.positions, ps.charges)
        for name in ("tree.far.batches", "tree.near.batches"):
            assert counters[name] == once.as_dict()["counters"][name]
        assert (ev.cache_stats.field_hits, ev.cache_stats.field_misses) \
            == (1, 1)
        assert ev.last_stats.field_cached

    def test_mean_cost_covers_computed_evaluations_only(self, sheet):
        """The fine/coarse ratio that becomes alpha is a ratio of
        ``mean_cost``: a repeat answered in microseconds must not make a
        level look cheaper than its evaluations are."""
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        cost = ev.mean_cost
        for _ in range(3):
            ev.field(ps.positions, ps.charges)
        assert ev.cache_stats.field_hits == 3
        assert ev.calls == 4  # every request
        assert ev.timer.count == 1  # computed ones
        assert ev.mean_cost == cost > 0

    def test_pfasst_surfaces_evaluator_stats(self, sheet):
        from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
        from repro.vortex import VortexProblem

        ps, _, _ = sheet
        fine_ev = _fresh_evaluator(sheet, theta=0.3)
        fine = VortexProblem(ps.volumes, fine_ev)
        coarse = fine.coarsened(0.6)
        config = PfasstConfig(t0=0.0, t_end=0.5, n_steps=1, iterations=2)
        specs = [
            LevelSpec(fine, num_nodes=3, sweeps=1),
            LevelSpec(coarse, num_nodes=2, sweeps=2),
        ]
        result = run_pfasst(config, specs, ps.state(), p_time=1)
        counters = result.metrics["counters"]
        calls = (fine_ev.calls, coarse.evaluator.calls)
        assert min(calls) > 0
        # the run's registry counts every evaluation of both levels once
        assert counters["tree.evaluations"] == sum(calls)
        stats = fine_ev.cache_stats  # shared by the coarse evaluator
        assert coarse.evaluator.cache_stats is stats
        for stage in ("build", "moment", "traversal", "field"):
            for kind in ("hits", "misses"):
                assert counters.get(f"tree.cache.{stage}.{kind}", 0) == \
                    getattr(stats, f"{stage}_{kind}")
        # FAS restriction re-evaluates the coarse RHS at fine states whose
        # trees were just built — the shared cache must see build hits
        assert counters["tree.cache.build.hits"] > 0
