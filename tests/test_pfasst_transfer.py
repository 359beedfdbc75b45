"""Tests for PFASST transfer operators."""

import numpy as np
import pytest

from repro.pfasst.transfer import TimeSpaceTransfer
from repro.sdc.quadrature import make_rule


@pytest.fixture
def transfer():
    return TimeSpaceTransfer(make_rule(3, "lobatto"), make_rule(2, "lobatto"))


class TestTimeMatrices:
    def test_restriction_is_injection_for_nested_nodes(self, transfer):
        """2-pt Lobatto {0,1} is a subset of 3-pt {0,.5,1}: injection."""
        R = transfer.R_time
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(R, expected, atol=1e-13)

    def test_interpolation_exact_for_linear(self, transfer):
        coarse_vals = np.array([1.0, 3.0])  # linear in t
        fine = transfer.P_time @ coarse_vals
        assert np.allclose(fine, [1.0, 2.0, 3.0])

    def test_restriction_exact_for_quadratic(self, transfer):
        tau_f = make_rule(3).nodes
        vals = 2 * tau_f**2 - tau_f + 1
        coarse = transfer.R_time @ vals
        tau_c = make_rule(2).nodes
        assert np.allclose(coarse, 2 * tau_c**2 - tau_c + 1)

    def test_five_to_three_nodes(self):
        tr = TimeSpaceTransfer(make_rule(5), make_rule(3))
        tau_f, tau_c = make_rule(5).nodes, make_rule(3).nodes
        vals = tau_f**4 - 2 * tau_f**2
        assert np.allclose(tr.R_time @ vals, tau_c**4 - 2 * tau_c**2)

    def test_restrict_then_interpolate_roundtrip_for_coarse_poly(self, transfer):
        """P R is identity on functions representable at the coarse level."""
        tau_f = make_rule(3).nodes
        vals = 3 * tau_f + 2  # linear: exactly representable on 2 nodes
        roundtrip = transfer.P_time @ (transfer.R_time @ vals)
        assert np.allclose(roundtrip, vals)


class TestNodeArrays:
    def test_restrict_nodes_shape(self, transfer, rng):
        vals = rng.normal(size=(3, 4, 3))
        out = transfer.restrict_nodes(vals)
        assert out.shape == (2, 4, 3)

    def test_interpolate_nodes_shape(self, transfer, rng):
        vals = rng.normal(size=(2, 4, 3))
        assert transfer.interpolate_nodes(vals).shape == (3, 4, 3)

    def test_node_arrays_move_in_time_only(self, transfer, rng):
        """Every level holds the same particles: for nested nodes the
        restriction is plain injection of whole states."""
        u = rng.normal(size=(3, 4))
        restricted = transfer.restrict_nodes(u)
        assert np.array_equal(restricted[0], u[0])
        assert np.array_equal(restricted[1], u[2])


class TestFamilyPairing:
    """Level pairs must agree on whether node 0 is the left endpoint."""

    def test_mixed_left_endpoint_families_rejected(self):
        with pytest.raises(ValueError, match="unsupported level pairing"):
            TimeSpaceTransfer(make_rule(3, "lobatto"),
                              make_rule(2, "radau-right"))

    def test_error_names_both_families(self):
        with pytest.raises(ValueError, match="radau-right.*lobatto"):
            TimeSpaceTransfer(make_rule(3, "radau-right"),
                              make_rule(2, "lobatto"))

    def test_matching_non_left_families_accepted(self):
        tr = TimeSpaceTransfer(make_rule(3, "radau-right"),
                               make_rule(2, "radau-right"))
        assert tr.R_time.shape == (2, 3)

    def test_legendre_radau_pair_accepted(self):
        """Both exclude the left endpoint — a legal (if unusual) pairing."""
        tr = TimeSpaceTransfer(make_rule(3, "legendre"),
                               make_rule(2, "radau-right"))
        assert tr.P_time.shape == (3, 2)
