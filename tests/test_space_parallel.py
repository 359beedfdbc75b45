"""Tests for the space-parallel tree evaluator and the P_T x P_S grid."""

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.parallel import Scheduler
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.evaluator import TreeEvaluator
from repro.tree.parallel import (
    SpaceConsistencyError,
    SpaceParallelTreeEvaluator,
    assemble_root,
    branch_payload,
    compute_shard,
)
from repro.vortex.particles import pack_state
from repro.vortex.problem import VortexProblem


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    n = 400
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    charges = rng.normal(size=(n, 3)) * 0.1
    return positions, charges


def _parallel_field(evaluator, p_space, positions, charges):
    def program(comm):
        f = yield from evaluator.field_program(
            comm, positions, charges, gradient=True
        )
        return f

    sched = Scheduler(p_space)
    return sched.run(program), sched


class TestFieldEquivalence:
    @pytest.mark.parametrize("theta", [0.3, 0.6])
    @pytest.mark.parametrize("p_space", [2, 3])
    def test_matches_serial_evaluator(self, cloud, theta, p_space):
        positions, charges = cloud
        serial = TreeEvaluator("algebraic2", sigma=0.05, theta=theta,
                               leaf_size=16)
        ref = serial.field(positions, charges, gradient=True)
        par = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                         theta=theta, leaf_size=16)
        fields, _ = _parallel_field(par, p_space, positions, charges)
        for f in fields:
            np.testing.assert_allclose(
                f.velocity, ref.velocity, rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(
                f.gradient, ref.gradient, rtol=1e-12, atol=1e-15
            )

    def test_size_one_comm_bitwise_matches_serial(self, cloud):
        positions, charges = cloud
        par = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                         theta=0.4, leaf_size=16)
        ref = par.field(positions, charges, gradient=True)
        fields, _ = _parallel_field(par, 1, positions, charges)
        np.testing.assert_array_equal(fields[0].velocity, ref.velocity)
        np.testing.assert_array_equal(fields[0].gradient, ref.gradient)

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_single_shard_segment_is_the_serial_field(self, cloud, theta):
        """Both entrances are one pipeline: the segment of a one-rank
        shard is the serial field in tree order, bit for bit."""
        positions, charges = cloud
        kw = dict(sigma=0.05, theta=theta, leaf_size=16)
        ref = SpaceParallelTreeEvaluator("algebraic2", **kw).field(
            positions, charges
        )
        par = SpaceParallelTreeEvaluator("algebraic2", **kw)
        vel, grad = par.segment_field(positions, charges, 0, 1)
        state, _ = par.cache.state(positions, par.leaf_size)
        order = state.tree.order
        assert np.array_equal(vel, ref.velocity[order])
        assert np.array_equal(grad, ref.gradient[order])

    def test_branch_byte_counters_recorded(self, cloud):
        positions, charges = cloud
        par = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                         theta=0.4, leaf_size=16)
        _, sched = _parallel_field(par, 3, positions, charges)
        counters = sched.metrics.as_dict()["counters"]
        per_rank = [counters[f"space.branch_bytes{{rank={r}}}"]
                    for r in range(3)]
        assert all(v > 0 for v in per_rank)
        assert counters["space.branch_bytes"] == sum(per_rank)
        assert all(counters[f"space.branch_cells{{rank={r}}}"] > 0
                   for r in range(3))
        assert all(counters[f"space.rhs_bytes{{rank={r}}}"] > 0
                   for r in range(3))

    def test_coarsened_shares_cache_and_matches(self, cloud):
        positions, charges = cloud
        fine = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                          theta=0.3, leaf_size=16)
        coarse = fine.coarsened(0.6)
        assert isinstance(coarse, SpaceParallelTreeEvaluator)
        assert coarse.cache is fine.cache
        ref = TreeEvaluator("algebraic2", sigma=0.05, theta=0.6,
                            leaf_size=16).field(positions, charges)
        fields, _ = _parallel_field(coarse, 2, positions, charges)
        np.testing.assert_allclose(
            fields[0].velocity, ref.velocity, rtol=1e-12, atol=1e-15
        )


class TestShardGate:
    """The near expansion gate is a property of the traversal, not of a
    shard's share of its far pairs."""

    @pytest.mark.parametrize("p_space", [2, 3, 4])
    def test_segments_bitwise_match_serial(self, p_space):
        # N=384 sheet: the tree accepts 43 far pairs, but at p_space=4
        # shards 0 and 3 hold none of them — they must still take the
        # GEMM-expanded near path the serial evaluator takes
        from repro.vortex import SheetConfig, get_kernel, spherical_vortex_sheet

        cfg = SheetConfig(n=384, sigma_over_h=3.0)
        ps = spherical_vortex_sheet(cfg)
        kw = dict(theta=0.3, leaf_size=48)
        kernel = get_kernel("algebraic6")
        ref = TreeEvaluator(kernel, cfg.sigma, **kw).field(
            ps.positions, ps.charges
        )
        par = SpaceParallelTreeEvaluator(kernel, cfg.sigma, **kw)
        segments = [
            par.segment_field(ps.positions, ps.charges, rank, p_space)
            for rank in range(p_space)
        ]
        state, _ = par.cache.state(ps.positions, par.leaf_size)
        order = state.tree.order
        far = [value[1].far_pairs for key, (value, _)
               in state._memo._items.items() if key[0] == "layout"]
        if p_space == 4:
            assert min(far) == 0 < max(far)  # the case under test
        vel = np.concatenate([seg[0] for seg in segments])
        grad = np.concatenate([seg[1] for seg in segments])
        assert np.array_equal(vel, ref.velocity[order])
        assert np.array_equal(grad, ref.gradient[order])


class TestShardAndBranches:
    def test_shard_segments_partition_particles(self, cloud):
        positions, charges = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)
        state, _ = ev.cache.state(positions, ev.leaf_size)
        for p in (2, 3, 5):
            shard = compute_shard(state, p)
            assert shard.bounds[0] == 0
            assert shard.bounds[-1] == positions.shape[0]
            assert np.all(np.diff(shard.bounds) > 0)
            # leaf-aligned: every boundary is some group's slot start
            starts = set(state.tree.node_start[state.groups].tolist())
            for b in shard.bounds[1:-1]:
                assert int(b) in starts
            # group masks partition the groups
            total = sum(shard.group_mask(r, len(state.groups)).sum()
                        for r in range(p))
            assert total == len(state.groups)

    def test_shard_cached_per_state(self, cloud):
        positions, _ = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)
        state, _ = ev.cache.state(positions, ev.leaf_size)
        assert compute_shard(state, 2) is compute_shard(state, 2)

    def test_too_many_ranks_raises(self, cloud):
        positions, _ = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)
        state, _ = ev.cache.state(positions, ev.leaf_size)
        with pytest.raises(ValueError, match="leaf groups"):
            compute_shard(state, 10_000)

    def test_exchanged_branches_rebuild_root_moments(self, cloud):
        positions, charges = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)
        state, _ = ev.cache.state(positions, ev.leaf_size)
        moments, _ = state.vortex_moments(charges)
        tree = state.tree
        p = 4
        shard = compute_shard(state, p)
        charges_sorted = charges[tree.order]
        branches = [branch_payload(tree, shard, charges_sorted, r)
                    for r in range(p)]
        count, m0, m1, m2 = assemble_root(tree, branches)
        assert count == tree.n_particles
        np.testing.assert_allclose(m0, moments.m0[0], rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(m1, moments.m1[0], rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(m2, moments.m2[0], rtol=1e-9, atol=1e-13)

    def test_tampered_branch_fails_verification(self, cloud):
        """A corrupted exchange must be caught, not silently accepted."""
        positions, charges = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)

        def program(comm):
            if comm.rank == 1:
                charges_bad = charges * 1.5  # inconsistent source data
                f = yield from ev.field_program(comm, positions, charges_bad)
            else:
                f = yield from ev.field_program(comm, positions, charges)
            return f

        with pytest.raises(SpaceConsistencyError):
            Scheduler(2).run(program)


def _vortex_setup(n=120, seed=3):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    vorticity = rng.normal(size=(n, 3)) * 0.2
    volumes = np.full(n, 1.0 / n)
    return pack_state(positions, vorticity), volumes


def _specs(volumes):
    ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.1, theta=0.3,
                                    leaf_size=16)
    fine = VortexProblem(volumes, ev)
    coarse = fine.coarsened(0.6)
    return [LevelSpec(fine, 3, sweeps=1), LevelSpec(coarse, 2, sweeps=1)]


class TestGridPfasst:
    def test_grid_run_matches_time_only_run(self):
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=3)
        ref = run_pfasst(cfg, _specs(volumes), u0, p_time=2, p_space=1)
        res = run_pfasst(cfg, _specs(volumes), u0, p_time=2, p_space=2)
        np.testing.assert_allclose(res.u_end, ref.u_end, rtol=1e-12)
        assert res.residuals == ref.residuals
        assert len(res.slice_end_values) == 2  # one per *time* rank
        assert len(res.clocks) == 4  # one per world rank

    def test_grid_run_times_computed_segments(self):
        """``timer`` / ``mean_cost`` cover sharded evaluations as they
        cover ``field()``: every computed segment, no memo hit."""
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=3)
        specs = _specs(volumes)
        run_pfasst(cfg, specs, u0, p_time=2, p_space=2)
        fine, coarse = (spec.problem.evaluator for spec in specs)
        assert fine.cache is coarse.cache
        computed = fine.cache_stats.field_misses
        assert fine.timer.count + coarse.timer.count == computed > 0
        for ev in (fine, coarse):
            assert 0 < ev.timer.count <= ev.calls
            assert ev.mean_cost > 0
        # the run repeats evaluations, so the memo answered some calls
        assert fine.calls + coarse.calls > computed

    def test_grid_trace_has_space_spans_and_counters(self):
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=2,
                           trace=True)
        tracer = Tracer()
        res = run_pfasst(cfg, _specs(volumes), u0, p_time=2, p_space=2,
                         tracer=tracer)
        names = {s.name for s in tracer.spans}
        assert "space:branch-exchange" in names
        assert "space:compute" in names
        assert "space:rhs-allgather" in names
        # per-space-rank spans live on each world rank's track
        tracks = {s.track for s in tracer.spans
                  if s.name == "space:branch-exchange"}
        assert tracks == {f"rank{r}" for r in range(4)}
        assert any("branch_bytes{" in k
                   for k in res.metrics["counters"])

    def test_grid_fault_plan_fail_policy_propagates(self):
        """Fault plans now compose with the grid; ``recovery="fail"``
        (the default) still lets the injected crash kill the run."""
        from repro.parallel import FaultPlan, RankCrash, RankFailure

        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=2)
        plan = FaultPlan(crashes=(RankCrash(rank=0, after_ops=5),))
        with pytest.raises(RankFailure):
            run_pfasst(cfg, _specs(volumes), u0, p_time=2, p_space=2,
                       fault_plan=plan)


def _old_cover(lo, hi, depth):
    """The per-key cover loop ``_cover_cells`` replaced when it was
    vectorised."""
    cells = []
    pos = lo
    while pos <= hi:
        span, level = 1, depth
        while level > 0 and pos % (span << 3) == 0 and pos + (span << 3) - 1 <= hi:
            span <<= 3
            level -= 1
        cells.append((pos, level))
        pos += span
    return cells


def _old_branch_payload(tree, shard, charges_sorted, rank):
    """Oracle: the branch payload as built with one ``cell_of_key``
    formula per tree level."""
    from repro.tree.morton import morton_decode
    from repro.tree.multipole import _segment_sum

    depth = tree.depth
    p_lo, p_hi = int(shard.bounds[rank]), int(shard.bounds[rank + 1])
    keys = shard.keys[p_lo:p_hi]
    cells = _old_cover(int(keys[0]), int(keys[-1]), depth)
    ckey = np.array([c[0] for c in cells], dtype=np.uint64)
    clevel = np.array([c[1] for c in cells], dtype=np.int64)
    span = np.uint64(1) << (
        np.uint64(3) * (np.uint64(depth) - clevel.astype(np.uint64))
    )
    bs = np.searchsorted(keys, ckey, side="left")
    be = np.searchsorted(keys, ckey + span, side="left")
    centers = np.empty((len(cells), 3))
    for lvl in np.unique(clevel):
        sel = clevel == lvl
        key_at_lvl = ckey[sel] >> np.uint64(3 * (depth - int(lvl)))
        ijk = morton_decode(key_at_lvl, int(lvl)).astype(np.float64)
        edge = tree.cube.size / (1 << int(lvl))
        centers[sel] = tree.cube.corner[None, :] + (ijk + 0.5) * edge
    alpha = charges_sorted[p_lo:p_hi]
    pos = tree.positions[p_lo:p_hi]
    s0 = _segment_sum(alpha, bs, be)
    s1 = _segment_sum(np.einsum("ni,nj->nij", alpha, pos), bs, be)
    s2 = _segment_sum(np.einsum("ni,nj,nk->nijk", alpha, pos, pos), bs, be)
    return {
        "key": ckey, "level": clevel, "count": (be - bs).astype(np.int64),
        "center": centers, "m0": s0,
        "m1": s1 - np.einsum("bi,bj->bij", s0, centers),
        "m2": 0.5 * (
            s2
            - np.einsum("bij,bk->bijk", s1, centers)
            - np.einsum("bik,bj->bijk", s1, centers)
            + np.einsum("bi,bj,bk->bijk", s0, centers, centers)
        ),
    }


class TestBranchExchangeCost:
    """The event-loop half of the branch exchange: vectorised payloads,
    bit for bit the per-level ones, memoised per state and charge set,
    and no moment pass outside the segment."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p_space", [2, 3, 4])
    def test_payload_bitwise_equals_per_level_formula(self, seed, p_space):
        rng = np.random.default_rng(seed)
        n = 300 + 100 * seed
        positions = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, 3)
        charges = rng.normal(size=(n, 3))
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=8)
        state, _ = ev.cache.state(positions, ev.leaf_size)
        tree = state.tree
        shard = compute_shard(state, p_space)
        charges_sorted = charges[tree.order]
        for rank in range(p_space):
            got = branch_payload(tree, shard, charges_sorted, rank)
            want = _old_branch_payload(tree, shard, charges_sorted, rank)
            assert sorted(got) == sorted(want)
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                assert got[name].tobytes() == want[name].tobytes(), name

    def _run(self, ev, positions, charges, p_space=2):
        def program(comm):
            return (yield from ev.field_program(comm, positions, charges))

        return Scheduler(p_space).run(program)

    def test_payload_memoised_per_state_and_charges(self, cloud,
                                                    monkeypatch):
        import repro.tree.parallel as parallel

        built = []
        original = parallel.branch_payload

        def spy(tree, shard, charges_sorted, rank):
            built.append(rank)
            return original(tree, shard, charges_sorted, rank)

        monkeypatch.setattr(parallel, "branch_payload", spy)
        positions, charges = cloud
        ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.05,
                                        leaf_size=16)
        first = self._run(ev, positions, charges)
        assert built == [0, 1]
        again = self._run(ev, positions, charges)
        assert built == [0, 1]  # served from the memo
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.velocity, b.velocity)
        self._run(ev, positions, charges * 2.0)
        assert built == [0, 1, 0, 1]  # a new charge set is rebuilt
        state, _ = ev.cache.state(positions, ev.leaf_size)
        assert sum(key[0] == "branch" for key in state._memo._items) == 4

    def test_process_event_loop_runs_no_moment_pass(self, monkeypatch):
        """Under a process backend the event loop builds trees for the
        branch exchange but leaves every moment pass to the workers; the
        inline run's moments come from its segments."""
        import repro.tree.state as state_module
        from repro.parallel.executor import ProcessExecutor, SerialExecutor

        calls = []
        original = state_module.compute_vortex_moments

        def spy(tree, charges):
            calls.append(tree.n_particles)
            return original(tree, charges)

        monkeypatch.setattr(state_module, "compute_vortex_moments", spy)
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2, iterations=2)
        with SerialExecutor() as ex:
            serial = run_pfasst(cfg, _specs(volumes), u0, p_time=2,
                                p_space=2, executor=ex)
        assert calls  # the spy sees the in-process moment passes
        calls.clear()
        with ProcessExecutor(max_workers=2) as ex:
            process = run_pfasst(cfg, _specs(volumes), u0, p_time=2,
                                 p_space=2, executor=ex)
        assert calls == []
        np.testing.assert_array_equal(process.u_end, serial.u_end)
