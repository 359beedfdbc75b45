"""Collocation node families for spectral deferred corrections.

Nodes are returned on the unit interval ``[0, 1]``; a time step
``[t_n, t_n + dt]`` uses ``t_n + dt * tau``.  The paper uses Gauss-Lobatto
nodes (3 fine / 2 coarse); equidistant nodes serve the node-choice
ablation.  Every family contains both endpoints: node 0 is the step start
and node M its end, which :class:`NodeSet` checks and the sweepers, the
stepper and the PFASST levels rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["NodeSet", "collocation_nodes", "available_node_types"]


def _legendre_poly(n: int) -> np.polynomial.Legendre:
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return np.polynomial.Legendre(coeffs)


def _lobatto_nodes(n: int) -> np.ndarray:
    """n Gauss-Lobatto points on [-1, 1] (includes both endpoints)."""
    if n == 2:
        return np.array([-1.0, 1.0])
    interior = _legendre_poly(n - 1).deriv().roots()
    return np.concatenate(([-1.0], np.sort(np.real(interior)), [1.0]))


def _equidistant_nodes(n: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n)


#: family name -> (n points on [-1, 1], order of its n-point quadrature)
_FAMILIES = {
    "equidistant": (_equidistant_nodes, lambda n: n),
    "lobatto": (_lobatto_nodes, lambda n: 2 * n - 2),
}


def available_node_types() -> Tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


@dataclass(frozen=True)
class NodeSet:
    """Collocation nodes on [0, 1]: ``nodes[0] == 0.0``, ``nodes[-1] == 1.0``.

    Attributes
    ----------
    nodes : (M+1,) strictly increasing array from 0.0 to 1.0
    node_type : family name
    order : formal order of the underlying quadrature rule
    """

    nodes: np.ndarray
    node_type: str
    order: int

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("nodes must be a 1-D array of >= 2 points")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError(
                "node 0 must be the step start 0.0 and the last node its "
                f"end 1.0, got {nodes[0]!r} and {nodes[-1]!r}"
            )
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)


def collocation_nodes(num_nodes: int, node_type: str = "lobatto") -> NodeSet:
    """Build a :class:`NodeSet` with ``num_nodes`` points of the family.

    >>> collocation_nodes(3).nodes
    array([0. , 0.5, 1. ])
    """
    try:
        fn, order = _FAMILIES[node_type]
    except KeyError:
        raise ValueError(
            f"unknown node type {node_type!r}; available: {available_node_types()}"
        ) from None
    if num_nodes < 2:
        raise ValueError(f"{node_type} needs >= 2 nodes, got {num_nodes}")
    nodes = 0.5 * (fn(num_nodes) + 1.0)
    return NodeSet(nodes=nodes, node_type=node_type, order=order(num_nodes))
