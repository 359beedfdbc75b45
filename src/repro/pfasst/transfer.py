"""Transfer operators between PFASST levels.

Time direction: node values live on collocation nodes; restriction and
interpolation are Lagrange evaluation matrices between the two node sets
(exact injection when the coarse nodes are a subset of the fine ones, the
paper's recommended choice).

Space direction: the paper's particle coarsening keeps the *same particle
set* on every level and changes only the multipole acceptance parameter of
the RHS evaluator, so there is no spatial transfer: a state restricts and
interpolates to itself, and node arrays move in time only.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitize import boundary
from repro.sdc.quadrature import QuadratureRule, lagrange_interpolation_matrix

__all__ = ["TimeSpaceTransfer"]


class TimeSpaceTransfer:
    """Couples a fine and a coarse quadrature rule (one level interface).

    Attributes
    ----------
    R_time : (Mc+1, Mf+1)
        Evaluates the fine nodal interpolant at the coarse nodes
        (restriction; exact injection for nested nodes).
    P_time : (Mf+1, Mc+1)
        Evaluates the coarse nodal interpolant at the fine nodes
        (interpolation).
    """

    def __init__(
        self, fine_rule: QuadratureRule, coarse_rule: QuadratureRule
    ) -> None:
        fine_set = fine_rule.node_set
        coarse_set = coarse_rule.node_set
        if fine_set.includes_left != coarse_set.includes_left:
            # the controller's FAS/initial-value handling treats node 0
            # uniformly per hierarchy: a left-including family paired
            # with a non-left one would silently mix "node 0 is u0"
            # with "node 0 is an unknown" across the level interface
            raise ValueError(
                "unsupported level pairing: fine node family "
                f"{fine_set.node_type!r} "
                f"{'includes' if fine_set.includes_left else 'excludes'} "
                "the left endpoint but coarse family "
                f"{coarse_set.node_type!r} "
                f"{'includes' if coarse_set.includes_left else 'excludes'} "
                "it; use families that agree on the left endpoint on "
                "every level"
            )
        self.fine_rule = fine_rule
        self.coarse_rule = coarse_rule
        self.R_time = lagrange_interpolation_matrix(
            fine_rule.nodes, coarse_rule.nodes
        )
        self.P_time = lagrange_interpolation_matrix(
            coarse_rule.nodes, fine_rule.nodes
        )

    # -- node arrays: shape (M+1, *state) -----------------------------
    @boundary("restrict_nodes", arrays=["values_fine"])
    def restrict_nodes(self, values_fine: np.ndarray) -> np.ndarray:
        """Restrict node values fine -> coarse."""
        return np.tensordot(self.R_time, values_fine, axes=(1, 0))

    @boundary("interpolate_nodes", arrays=["values_coarse"])
    def interpolate_nodes(self, values_coarse: np.ndarray) -> np.ndarray:
        """Interpolate node values coarse -> fine."""
        return np.tensordot(self.P_time, values_coarse, axes=(1, 0))
