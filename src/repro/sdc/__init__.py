"""Spectral deferred corrections: nodes, quadrature, sweeps, serial stepper."""

from repro.sdc.nodes import NodeSet, collocation_nodes, available_node_types
from repro.sdc.quadrature import (
    QuadratureRule,
    make_rule,
    barycentric_weights,
    lagrange_interpolation_matrix,
    lagrange_integration_weights,
    diagonal_coefficients,
    DIAGONAL_COEFFICIENT_CHOICES,
)
from repro.sdc.sweeper import (
    SWEEPERS,
    ExplicitSDCSweeper,
    RhsContext,
    make_sweeper,
    node_slice,
)
from repro.sdc.diagonal import DiagonalSDCSweeper
from repro.sdc.sdc_stepper import SDCStepper, SDCRunStats

__all__ = [
    "NodeSet",
    "collocation_nodes",
    "available_node_types",
    "QuadratureRule",
    "make_rule",
    "barycentric_weights",
    "lagrange_interpolation_matrix",
    "lagrange_integration_weights",
    "ExplicitSDCSweeper",
    "DiagonalSDCSweeper",
    "RhsContext",
    "SWEEPERS",
    "make_sweeper",
    "node_slice",
    "diagonal_coefficients",
    "DIAGONAL_COEFFICIENT_CHOICES",
    "SDCStepper",
    "SDCRunStats",
]
