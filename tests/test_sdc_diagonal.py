"""Tests for the PFASST-ER diagonal (node-parallel) SDC sweeper."""

import numpy as np
import pytest

from repro.parallel.simmpi import Scheduler
from repro.sdc.diagonal import DiagonalSDCSweeper
from repro.sdc.nodes import available_node_types
from repro.sdc.quadrature import (
    DIAGONAL_COEFFICIENT_CHOICES,
    diagonal_coefficients,
    make_rule,
)
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


class TestCoefficients:
    def test_ie_is_the_nodes(self):
        rule = make_rule(4, "equidistant")
        assert np.allclose(diagonal_coefficients(rule, "ie"), rule.nodes)

    def test_min_is_nodes_over_m(self):
        rule = make_rule(4)
        assert np.allclose(
            diagonal_coefficients(rule, "min"), rule.nodes / 4.0
        )

    def test_picard_is_zero(self):
        rule = make_rule(3)
        assert not diagonal_coefficients(rule, "picard").any()

    def test_custom_array_passes_through(self):
        rule = make_rule(3)
        d = np.array([0.1, 0.2, 0.3])
        out = diagonal_coefficients(rule, d)
        assert np.array_equal(out, d)
        out[0] = 99.0  # returned array is a copy
        assert d[0] == 0.1

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValueError, match="unknown diagonal"):
            diagonal_coefficients(make_rule(3), "magic")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            diagonal_coefficients(make_rule(3), np.zeros(4))

    def test_choices_tuple_complete(self):
        for kind in DIAGONAL_COEFFICIENT_CHOICES:
            diagonal_coefficients(make_rule(3), kind)  # none raise

    @pytest.mark.parametrize("node_type", available_node_types())
    def test_min_makes_iteration_matrix_nilpotent(self, node_type):
        """The MIN-SR-NS property: ``Q - diag(tau/M)`` has spectral
        radius ~0, while the implicit-Euler diagonal leaves it O(1)."""
        rule = make_rule(4, node_type)

        def rho(kind):
            E = rule.Q - np.diag(diagonal_coefficients(rule, kind))
            return np.max(np.abs(np.linalg.eigvals(E)))

        # nilpotent eigenvalues are ill-conditioned (~eps^(1/M)), so the
        # numerical radius is ~1e-7 rather than exactly 0 — still orders
        # of magnitude under the implicit-Euler diagonal's O(1)
        assert rho("min") < 1e-4
        assert rho("ie") > 0.1

    def test_inner_iterations_validated(self, linear_problem):
        with pytest.raises(ValueError, match="inner_iterations"):
            DiagonalSDCSweeper(linear_problem, make_rule(3),
                               inner_iterations=-1)


class TestConvergence:
    @pytest.mark.parametrize("node_type", available_node_types())
    @pytest.mark.parametrize("coeffs", ["min", "ie", "picard"])
    def test_converges_to_dense_collocation_solve(self, linear_problem,
                                                  node_type, coeffs):
        rule = make_rule(3, node_type)
        ref = _dense_collocation(linear_problem, rule, 0.2,
                                 np.array([1.0, 0.0]))
        sw = DiagonalSDCSweeper(linear_problem, rule, coefficients=coeffs)
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
        nilpotent ``min`` diagonal, few sweeps reach a residual plain
        Picard cannot at the same sweep count."""
        rule = make_rule(4)
        u0 = np.array([1.0, 0.0])
        dt = 0.5

        def run(coeffs, sweeps):
            sw = DiagonalSDCSweeper(linear_problem, rule,
                                    coefficients=coeffs)
            U, F = sw.initialize(0.0, dt, u0)
            for _ in range(sweeps):
                U, F = sw.sweep(0.0, dt, U, F, u0=u0)
            return sw.residual(dt, U, F, u0)

        assert run("min", 6) < run("picard", 6) * 1e-1

    def test_inner_zero_reduces_to_picard(self, linear_problem):
        """With no inner iterations ``d`` drops out of the update."""
        rule = make_rule(3)
        u0 = np.array([1.0, 0.0])
        a = DiagonalSDCSweeper(linear_problem, rule, coefficients="min",
                               inner_iterations=0)
        b = DiagonalSDCSweeper(linear_problem, rule, coefficients="picard")
        Ua, Fa = a.initialize(0.0, 0.2, u0)
        Ub, Fb = b.initialize(0.0, 0.2, u0)
        for _ in range(3):
            Ua, Fa = a.sweep(0.0, 0.2, Ua, Fa, u0=u0)
            Ub, Fb = b.sweep(0.0, 0.2, Ub, Fb, u0=u0)
        assert np.array_equal(Ua, Ub)
        assert np.array_equal(Fa, Fb)

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
