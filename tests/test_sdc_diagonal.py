"""Tests for the PFASST-ER diagonal (node-parallel) SDC sweeper."""

import numpy as np
import pytest

from repro.parallel.simmpi import Scheduler
from repro.sdc.diagonal import DiagonalSDCSweeper
from repro.sdc.nodes import available_node_types
from repro.sdc.quadrature import make_rule
from repro.sdc.sweeper import (
    ExplicitSDCSweeper,
    RhsContext,
    node_slice,
)


def _dense_collocation(problem, rule, dt, u0):
    """Direct solve of the linear collocation system (the fixed point)."""
    A = problem.matrix
    m1, n = rule.num_nodes, u0.size
    QA = np.kron(rule.Q, dt * A)
    out = np.linalg.solve(np.eye(m1 * n) - QA, np.tile(u0, m1))
    return out.reshape(m1, n)


def _picard_residual(problem, rule, dt, u0, sweeps):
    """Residual after ``sweeps`` plain Picard sweeps (no diagonal)."""
    sw = ExplicitSDCSweeper(problem, rule)
    times = sw.node_times(0.0, dt)
    U, F = sw.initialize(0.0, dt, u0)
    for _ in range(sweeps):
        U = u0 + dt * rule.integrate_from_start(F)
        F = np.stack([problem.rhs(t, u) for t, u in zip(times, U)])
    return sw.residual(dt, U, F, u0)


class TestCoefficients:
    def test_min_is_nodes_over_m(self, linear_problem):
        rule = make_rule(4)
        sw = DiagonalSDCSweeper(linear_problem, rule)
        assert np.array_equal(sw.d, rule.nodes / 4.0)

    @pytest.mark.parametrize("node_type", available_node_types())
    def test_min_makes_iteration_matrix_nilpotent(self, linear_problem,
                                                  node_type):
        """The MIN-SR-NS property: ``Q - diag(tau/M)`` has spectral
        radius ~0, while the implicit-Euler diagonal leaves it O(1)."""
        rule = make_rule(4, node_type)

        def rho(d):
            return np.max(np.abs(np.linalg.eigvals(rule.Q - np.diag(d))))

        # nilpotent eigenvalues are ill-conditioned (~eps^(1/M)), so the
        # numerical radius is ~1e-7 rather than exactly 0 — still orders
        # of magnitude under the implicit-Euler diagonal's O(1)
        assert rho(DiagonalSDCSweeper(linear_problem, rule).d) < 1e-4
        assert rho(rule.nodes) > 0.1


class TestConvergence:
    @pytest.mark.parametrize("node_type", available_node_types())
    def test_converges_to_dense_collocation_solve(self, linear_problem,
                                                  node_type):
        rule = make_rule(3, node_type)
        ref = _dense_collocation(linear_problem, rule, 0.2,
                                 np.array([1.0, 0.0]))
        sw = DiagonalSDCSweeper(linear_problem, rule)
        u0 = np.array([1.0, 0.0])
        U, F = sw.initialize(0.0, 0.2, u0)
        for _ in range(40):
            U, F = sw.sweep(0.0, 0.2, U, F, u0=u0)
        assert np.max(np.abs(U - ref)) < 1e-12
        assert sw.residual(0.2, U, F, u0) < 1e-12

    @pytest.mark.parametrize("node_type", available_node_types())
    def test_gauss_seidel_shares_the_fixed_point(self, linear_problem,
                                                 node_type):
        """Both sweepers converge to the same collocation solution."""
        rule = make_rule(4, node_type)
        u0 = np.array([1.0, 0.0])
        ref = _dense_collocation(linear_problem, rule, 0.2, u0)
        sw = ExplicitSDCSweeper(linear_problem, rule)
        U, F = sw.initialize(0.0, 0.2, u0)
        for _ in range(60):
            U, F = sw.sweep(0.0, 0.2, U, F, u0=u0)
        assert np.max(np.abs(U - ref)) < 1e-12
        assert sw.residual(0.2, U, F, u0) < 1e-12

    def test_min_converges_faster_than_picard(self, linear_problem):
        """The diagonal correction must genuinely matter: with the
        nilpotent diagonal, few sweeps reach a residual plain Picard
        cannot at the same sweep count."""
        rule = make_rule(4)
        u0 = np.array([1.0, 0.0])
        dt = 0.5
        sw = DiagonalSDCSweeper(linear_problem, rule)
        U, F = sw.initialize(0.0, dt, u0)
        for _ in range(6):
            U, F = sw.sweep(0.0, dt, U, F, u0=u0)
        picard = _picard_residual(linear_problem, rule, dt, u0, 6)
        assert sw.residual(dt, U, F, u0) < picard * 1e-1

    def test_needs_u0(self, linear_problem):
        """The Q-form update starts every node from u0, not from U[0]."""
        sw = DiagonalSDCSweeper(linear_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.2, np.array([1.0, 0.0]))
        u0 = np.array([2.0, 0.0])
        U_kept, _ = sw.sweep(0.0, 0.2, U, F)
        U_new, _ = sw.sweep(0.0, 0.2, U, F, u0=u0)
        assert np.array_equal(U_new[0], u0)
        assert np.all(U_new[1:] != U_kept[1:])

    def test_u0_none_lobatto_uses_node0(self, linear_problem):
        sw = DiagonalSDCSweeper(linear_problem, make_rule(3))
        U, F = sw.initialize(0.0, 0.2, np.array([1.0, 0.0]))
        U2, _ = sw.sweep(0.0, 0.2, U, F)  # must not raise
        assert U2.shape == U.shape

    def test_tau_shifts_the_fixed_point(self, linear_problem):
        rule = make_rule(3)
        sw = DiagonalSDCSweeper(linear_problem, rule)
        u0 = np.array([1.0, 0.0])
        dt = 0.1
        tau = np.zeros((3, 2))
        tau[1] = [0.01, -0.02]
        U, F = sw.initialize(0.0, dt, u0)
        for _ in range(40):
            U, F = sw.sweep(0.0, dt, U, F, u0=u0, tau=tau)
        assert sw.residual(dt, U, F, u0, tau=tau) < 1e-12
        assert sw.residual(dt, U, F, u0) > 1e-4


class TestNodeSlice:
    def test_partition_covers_everything(self):
        for n in (1, 3, 4, 7):
            for parts in (1, 2, 3, 5):
                spans = [node_slice(n, parts, i) for i in range(parts)]
                got = [m for lo, hi in spans for m in range(lo, hi)]
                assert got == list(range(n))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in
                 (node_slice(7, 3, i) for i in range(3))]
        assert sorted(sizes) == [2, 2, 3]
        assert sizes[0] == 3  # leading ranks take the remainder


class TestShardedEvaluation:
    def test_sharded_allgather_bitwise_matches_serial(self, linear_problem):
        """Node sharding must not change a single bit of F."""
        rule = make_rule(4)
        times = rule.nodes * 0.3
        values = np.array([[1.0 + m, 0.5 * m] for m in range(4)])

        # serial path (default ctx) makes no yields for this problem
        gen = RhsContext().node_values(linear_problem, times, values)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            serial = stop.value

        def prog(comm, problem, times, values):
            out = yield from RhsContext(node=comm).node_values(
                problem, times, values
            )
            return out

        for p_nodes in (2, 3):
            sched = Scheduler(p_nodes)
            results = sched.run(
                prog, args=(linear_problem, times, values)
            )
            for out in results:
                assert np.array_equal(out, serial)
            counters = sched.metrics.as_dict()["counters"]
            assert counters.get("node.rhs_bytes", 0) > 0
            for r in range(p_nodes):
                assert counters.get(f"node.rhs_bytes{{rank={r}}}", 0) > 0


class TestSweepGenEquivalence:
    def test_sweep_matches_drained_sweep_gen(self, linear_problem):
        sw = DiagonalSDCSweeper(linear_problem, make_rule(3))
        u0 = np.array([1.0, 0.0])
        U, F = sw.initialize(0.0, 0.2, u0)
        U_s, F_s = sw.sweep(0.0, 0.2, U, F, u0=u0)
        gen = sw.sweep_gen(0.0, 0.2, U, F, u0=u0)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            U_g, F_g = stop.value
        assert np.array_equal(U_s, U_g)
        assert np.array_equal(F_s, F_g)
