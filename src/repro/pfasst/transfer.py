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
from repro.sdc.quadrature import _node_matmul

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
        return _node_matmul(self.R_time, values_fine)

    @boundary("interpolate_nodes", arrays=["values_coarse"])
    def interpolate_nodes(self, values_coarse: np.ndarray) -> np.ndarray:
        """Interpolate node values coarse -> fine."""
        return _node_matmul(self.P_time, values_coarse)
