"""Tests for collocation node families."""

import numpy as np
import pytest

from repro.sdc.nodes import NodeSet, available_node_types, collocation_nodes


class TestFamilies:
    def test_available(self):
        assert available_node_types() == ("equidistant", "lobatto")

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown node type"):
            collocation_nodes(3, "chebyshev")

    @pytest.mark.parametrize("family", available_node_types())
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_sorted_in_unit_interval(self, family, n):
        ns = collocation_nodes(n, family)
        assert ns.num_nodes == n
        assert np.all(np.diff(ns.nodes) > 0)
        assert ns.nodes[0] == 0.0
        assert ns.nodes[-1] == 1.0

    def test_lobatto_3_exact(self):
        assert np.allclose(collocation_nodes(3).nodes, [0.0, 0.5, 1.0])

    def test_lobatto_2_exact(self):
        assert np.allclose(collocation_nodes(2).nodes, [0.0, 1.0])

    def test_lobatto_endpoint_flags(self):
        ns = collocation_nodes(4, "lobatto")
        assert ns.nodes[0] == 0.0 and ns.nodes[-1] == 1.0

    @pytest.mark.parametrize("nodes", [
        [1e-3, 0.5, 1.0],      # first node inside the step
        [0.0, 0.5, 0.999],     # last node inside the step
        [0.2, 0.5, 0.8],       # neither endpoint
        [0.0, 1.0, 1.0],       # endpoints, not increasing
        [0.0],                 # one point cannot span a step
    ])
    def test_node_set_enforces_endpoint_contract(self, nodes):
        with pytest.raises(ValueError):
            NodeSet(nodes=np.array(nodes), node_type="custom", order=1)

    def test_node_set_names_endpoint_contract(self):
        with pytest.raises(ValueError, match="step start 0.0"):
            NodeSet(nodes=np.array([0.1, 1.0]), node_type="custom", order=1)

    def test_equidistant(self):
        assert np.allclose(
            collocation_nodes(5, "equidistant").nodes, np.linspace(0, 1, 5)
        )

    def test_lobatto_nesting_3_in_5(self):
        """Paper: coarse nodes chosen as a subset of the fine nodes."""
        fine = collocation_nodes(5, "lobatto").nodes
        coarse = collocation_nodes(3, "lobatto").nodes
        for c in coarse:
            assert np.min(np.abs(fine - c)) < 1e-12

    def test_lobatto_2_nested_in_3(self):
        fine = collocation_nodes(3, "lobatto").nodes
        coarse = collocation_nodes(2, "lobatto").nodes
        for c in coarse:
            assert np.min(np.abs(fine - c)) < 1e-12

    def test_symmetry_of_lobatto(self):
        nodes = collocation_nodes(6, "lobatto").nodes
        assert np.allclose(nodes + nodes[::-1], 1.0)

    def test_minimum_counts(self):
        with pytest.raises(ValueError):
            collocation_nodes(1, "lobatto")
        with pytest.raises(ValueError):
            collocation_nodes(1, "equidistant")

    def test_order_metadata(self):
        assert collocation_nodes(3, "lobatto").order == 4
        assert collocation_nodes(3, "equidistant").order == 3
