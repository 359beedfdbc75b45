"""Tests for the third parallel dimension: P_T x P_S x P_N runs.

The node dimension shards collocation-node RHS evaluations across a
per-node sub-communicator and ring-allgathers the rows back, so every
rank ends each round with the full F array bit-for-bit equal to the
serial evaluation — node parallelism must never change numerics, only
the cost model.
"""

import numpy as np
import pytest

from repro.parallel.chaos import ChaosODE
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.faults import FaultPlan, RankCrash
from repro.parallel.topology import SpaceTimeGrid
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex.particles import pack_state
from repro.vortex.problem import VortexProblem


class TestSpaceTimeNodeGrid:
    def test_world_size(self):
        assert SpaceTimeGrid(3, 2, 4).world_size == 24

    def test_coords_world_rank_roundtrip(self):
        grid = SpaceTimeGrid(2, 3, 2)
        for r in range(grid.world_size):
            t, s, n = grid.coords(r)
            assert grid.world_rank(t, s, n) == r

    def test_node_dimension_is_innermost(self):
        """Node ranks of one (t, s) cell are contiguous world ranks, so
        the node ring is the tightest loop — mirroring how node sweeps
        nest inside space exchanges inside the time ring."""
        grid = SpaceTimeGrid(2, 2, 3)
        assert grid.node_comm(0) == [0, 1, 2]
        assert grid.node_comm(4) == [3, 4, 5]

    def test_comms_partition_the_world(self):
        grid = SpaceTimeGrid(2, 2, 2)
        for comm_of in (grid.space_comm, grid.time_comm, grid.node_comm):
            seen = sorted(
                r for lead in range(grid.world_size)
                for r in comm_of(lead) if lead in comm_of(lead)
            )
            # every rank appears in exactly one comm of each flavour,
            # and that comm contains it
            assert sorted(set(seen)) == list(range(grid.world_size))

    def test_comm_members_share_the_other_coords(self):
        grid = SpaceTimeGrid(2, 3, 2)
        r = grid.world_rank(1, 2, 1)
        t, s, n = grid.coords(r)
        assert all(grid.coords(m)[0] == t and grid.coords(m)[2] == n
                   for m in grid.space_comm(r))
        assert all(grid.coords(m)[1] == s and grid.coords(m)[2] == n
                   for m in grid.time_comm(r))
        assert all(grid.coords(m)[0] == t and grid.coords(m)[1] == s
                   for m in grid.node_comm(r))

    def test_time_row_collects_all_space_and_node_ranks(self):
        grid = SpaceTimeGrid(2, 2, 2)
        row = grid.time_row(1)
        assert row == [r for r in range(8) if grid.coords(r)[0] == 1]
        assert len(row) == 4

    def test_p_nodes_one_matches_2d_numbering(self):
        grid = SpaceTimeGrid(3, 2, 1)
        for r in range(grid.world_size):
            t, s = divmod(r, 2)
            assert grid.coords(r) == (t, s, 0)
            assert grid.space_comm(r) == [2 * t, 2 * t + 1]
            assert grid.time_comm(r) == [s, 2 + s, 4 + s]
            assert grid.time_row(t) == [2 * t, 2 * t + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(0, 1, 1)
        with pytest.raises(ValueError):
            SpaceTimeGrid(1, 1, -1)
        grid = SpaceTimeGrid(2, 2, 2)
        with pytest.raises(ValueError):
            grid.coords(8)
        with pytest.raises(ValueError):
            grid.world_rank(0, 0, 2)


def _vortex_setup(n=80, seed=5):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    vorticity = rng.normal(size=(n, 3)) * 0.2
    volumes = np.full(n, 1.0 / n)
    return pack_state(positions, vorticity), volumes


def _vortex_specs(volumes, sweeper="gauss-seidel"):
    ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.1, theta=0.3,
                                    leaf_size=16)
    fine = VortexProblem(volumes, ev)
    coarse = fine.coarsened(0.6)
    return [
        LevelSpec(fine, 3, sweeps=1, sweeper=sweeper),
        LevelSpec(coarse, 2, sweeps=1, sweeper=sweeper),
    ]


def _linear_specs(problem, sweeper="gauss-seidel"):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1, sweeper=sweeper),
        LevelSpec(problem, num_nodes=2, sweeps=2, sweeper=sweeper),
    ]


class TestNodeParallelRuns:
    def test_p_nodes_validation(self, linear_problem):
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=2)
        with pytest.raises(ValueError, match="p_nodes"):
            run_pfasst(cfg, _linear_specs(linear_problem),
                       np.array([1.0, 0.0]), p_time=2, p_nodes=0)

    def test_p_nodes_two_bitwise_matches_serial_nodes(self, linear_problem):
        """Gauss-Seidel on P_N=2: node sharding changes not a single
        bit of the trajectory."""
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=4)
        ref = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2)
        res = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2,
                         p_nodes=2)
        assert np.array_equal(res.u_end, ref.u_end)
        assert res.residuals == ref.residuals
        assert len(res.slice_end_values) == 2
        assert len(res.clocks) == 4  # one virtual clock per world rank

    def test_diagonal_p_nodes_matches_p_nodes_one(self, linear_problem):
        """The PFASST-ER diagonal sweeper across P_N=3 node ranks."""
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=4)
        specs = lambda: _linear_specs(linear_problem, sweeper="diagonal")
        ref = run_pfasst(cfg, specs(), u0, p_time=2, p_nodes=1)
        res = run_pfasst(cfg, specs(), u0, p_time=2, p_nodes=3)
        np.testing.assert_allclose(res.u_end, ref.u_end, rtol=1e-12,
                                   atol=0.0)
        assert res.residuals == ref.residuals

    def test_diagonal_agrees_with_gauss_seidel_at_convergence(
        self, linear_problem
    ):
        """Both sweepers contract to the same collocation fixed point."""
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=10)
        gs = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2)
        dg = run_pfasst(
            cfg, _linear_specs(linear_problem, sweeper="diagonal"), u0,
            p_time=2, p_nodes=2,
        )
        np.testing.assert_allclose(dg.u_end, gs.u_end, atol=1e-10)

    def test_node_rhs_counters_per_rank(self, linear_problem):
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=2)
        res = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2,
                         p_nodes=2)
        counters = res.metrics["counters"]
        assert counters.get("node.rhs_bytes", 0) > 0
        per_rank = [k for k in counters if k.startswith("node.rhs_bytes{")]
        assert len(per_rank) == 4  # every world rank ships node rows
        assert all(counters[k] > 0 for k in per_rank)


class TestFullGrid:
    """P_T=2 x P_S=2 x P_N=2: all three dimensions at once."""

    def test_2x2x2_bitwise_matches_2x2x1_gauss_seidel(self):
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.04, n_steps=2, iterations=2)
        ref = run_pfasst(cfg, _vortex_specs(volumes), u0, p_time=2,
                         p_space=2)
        res = run_pfasst(cfg, _vortex_specs(volumes), u0, p_time=2,
                         p_space=2, p_nodes=2)
        assert np.array_equal(res.u_end, ref.u_end)
        assert res.residuals == ref.residuals
        assert len(res.slice_end_values) == 2  # one per time rank
        assert len(res.clocks) == 8  # one per world rank

    def test_2x2x2_diagonal_close_to_node_serial(self):
        u0, volumes = _vortex_setup()
        cfg = PfasstConfig(t0=0.0, t_end=0.04, n_steps=2, iterations=2)
        specs = lambda: _vortex_specs(volumes, sweeper="diagonal")
        ref = run_pfasst(cfg, specs(), u0, p_time=2, p_space=2)
        res = run_pfasst(cfg, specs(), u0, p_time=2, p_space=2, p_nodes=2)
        np.testing.assert_allclose(res.u_end, ref.u_end, rtol=1e-12,
                                   atol=0.0)

    def test_grid_run_verifies_and_certifies(self, linear_problem):
        """verify=True replays the schedule; certify=True builds the
        happens-before certificate — both must accept the 3D grid."""
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=2)
        res = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2,
                         p_nodes=2, verify=True, certify=True)
        assert res.certificate is not None
        assert res.certificate.race_free
        assert res.certificate.n_ranks == 4


class TestExecutorDeterminism:
    def test_certificate_identical_across_executors(self):
        """Moving compute payloads onto worker processes must not
        reorder a single message of the node-parallel schedule."""
        # ChaosODE, not the conftest LinearODE: the process backend
        # pickles the problem by qualified name, which a conftest-local
        # class cannot provide when several conftests are collected
        problem = ChaosODE()
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=2)
        serial = run_pfasst(
            cfg, _linear_specs(problem), u0, p_time=2, p_nodes=2,
            executor=SerialExecutor(), certify=True,
        )
        with ProcessExecutor(max_workers=2) as ex:
            proc = run_pfasst(
                cfg, _linear_specs(problem), u0, p_time=2,
                p_nodes=2, executor=ex, certify=True,
            )
        assert serial.certificate.digest == proc.certificate.digest
        assert serial.certificate.channels == proc.certificate.channels
        assert np.array_equal(serial.u_end, proc.u_end)
        assert serial.clocks == proc.clocks


class TestNodeParallelRecovery:
    def test_warm_restart_survives_node_rank_crash(self, linear_problem):
        """A crash on a node rank of a P_T=2 x P_N=2 run is absorbed by
        the recovery plane and the run still converges."""
        u0 = np.array([1.0, 0.0])
        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=4,
                           recovery="warm-restart", recovery_timeout=2e-4)
        ref = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2,
                         p_nodes=2)
        plan = FaultPlan(crashes=(RankCrash(rank=1, after_ops=40),))
        res = run_pfasst(cfg, _linear_specs(linear_problem), u0, p_time=2,
                         p_nodes=2, fault_plan=plan)
        assert np.allclose(res.u_end, ref.u_end, atol=1e-6)
