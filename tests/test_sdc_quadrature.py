"""Tests for spectral integration matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sdc.nodes import available_node_types
from repro.sdc.quadrature import (
    barycentric_weights,
    lagrange_integration_weights,
    lagrange_interpolation_matrix,
    make_rule,
)


class TestBarycentric:
    def test_two_nodes(self):
        w = barycentric_weights(np.array([0.0, 1.0]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_interpolation_reproduces_nodes(self):
        nodes = np.array([0.0, 0.3, 0.7, 1.0])
        P = lagrange_interpolation_matrix(nodes, nodes)
        assert np.allclose(P, np.eye(4), atol=1e-14)

    def test_interpolation_exact_for_polynomials(self):
        nodes = np.array([0.0, 0.25, 0.6, 1.0])
        x = np.linspace(0, 1, 17)
        P = lagrange_interpolation_matrix(nodes, x)
        for deg in range(4):
            vals = nodes**deg
            assert np.allclose(P @ vals, x**deg, atol=1e-12)

    def test_partition_of_unity(self):
        nodes = np.array([0.0, 0.5, 1.0])
        P = lagrange_interpolation_matrix(nodes, np.linspace(-0.2, 1.2, 9))
        assert np.allclose(P.sum(axis=1), 1.0)


class TestIntegrationWeights:
    def test_exact_polynomial_integrals(self):
        nodes = np.array([0.0, 0.5, 1.0])
        W = lagrange_integration_weights(nodes, [(0.0, 1.0), (0.25, 0.75)])
        for deg in range(3):
            vals = nodes**deg
            exact_full = 1.0 / (deg + 1)
            exact_mid = (0.75 ** (deg + 1) - 0.25 ** (deg + 1)) / (deg + 1)
            assert W[0] @ vals == pytest.approx(exact_full, abs=1e-14)
            assert W[1] @ vals == pytest.approx(exact_mid, abs=1e-14)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="b < a"):
            lagrange_integration_weights(np.array([0.0, 1.0]), [(1.0, 0.0)])


@pytest.mark.parametrize("family", available_node_types())
@pytest.mark.parametrize("n", [2, 3, 5])
class TestRuleStructure:
    def test_full_integral_of_one(self, family, n):
        """The last row of Q integrates the full step: node M is its end."""
        rule = make_rule(n, family)
        assert rule.Q[-1] @ np.ones(n) == pytest.approx(1.0, abs=1e-13)

    def test_row_zero_vanishes(self, family, n):
        """Node 0 is the step start: Q and S integrate nothing up to it."""
        rule = make_rule(n, family)
        assert not rule.Q[0].any() and not rule.S[0].any()

    def test_cumsum_s_equals_q(self, family, n):
        rule = make_rule(n, family)
        assert np.allclose(np.cumsum(rule.S, axis=0), rule.Q, atol=1e-13)

    def test_q_exact_on_polynomials(self, family, n):
        rule = make_rule(n, family)
        tau = rule.nodes
        for deg in range(n):
            vals = tau**deg
            exact = tau ** (deg + 1) / (deg + 1)
            assert np.allclose(rule.Q @ vals, exact, atol=1e-12)

    def test_delta_positive(self, family, n):
        rule = make_rule(n, family)
        assert np.all(rule.delta > 0)
        assert rule.delta.shape == (n - 1,)


class TestRuleApply:
    def test_integrate_tensor_shapes(self):
        rule = make_rule(3)
        f = np.ones((3, 4, 5))
        assert rule.integrate_from_start(f).shape == (3, 4, 5)
        assert rule.integrate_node_to_node(f).shape == (3, 4, 5)

    def test_integrate_constant_vector_field(self):
        rule = make_rule(3)
        f = np.ones((3, 2))
        out = rule.integrate_from_start(f)
        assert np.allclose(out[:, 0], rule.nodes)

    def test_gauss_lobatto_superconvergent_end_weight(self):
        """3-pt Lobatto integrates cubics over the full step exactly."""
        rule = make_rule(3, "lobatto")
        tau = rule.nodes
        assert rule.Q[-1] @ tau**3 == pytest.approx(0.25, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=3),
    family=st.sampled_from(["lobatto", "equidistant"]),
)
def test_q_matrix_integrates_arbitrary_polys(coeffs, family):
    """Q applied to p(tau) equals the exact primitive at every node."""
    rule = make_rule(3, family)
    tau = rule.nodes
    vals = sum(c * tau**i for i, c in enumerate(coeffs))
    exact = sum(c * tau ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
    assert np.allclose(rule.Q @ vals, exact, atol=1e-10)
