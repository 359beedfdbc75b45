"""Spectral integration matrices for SDC (paper Eqs. 10-12).

Given collocation nodes ``tau_0 < ... < tau_M`` on [0, 1], this module
builds the matrices (all square ``(M+1) x (M+1)`` acting on node values of
``f``):

* ``Q``    — row ``m`` integrates the interpolating polynomial from
  0 (the step start ``t_n``) to ``tau_m``; the paper's rectangular ``Q``
  is rows 1..M.  Row 0 is zero: node 0 is the step start (``tau_0 = 0``,
  see :class:`~repro.sdc.nodes.NodeSet`), so ``Q[M]`` integrates the
  full step.
* ``S``    — row ``m >= 1`` integrates from ``tau_{m-1}`` to ``tau_m``
  (node-to-node, used by the sweep Eq. 13); row 0 integrates over the
  empty interval ``[0, tau_0]`` and is zero, so ``cumsum(S) == Q``.

All weights are exact for polynomials through degree ``M``: Lagrange basis
polynomials are integrated with a Gauss-Legendre rule of sufficient order,
evaluated stably via barycentric interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.sdc.nodes import NodeSet, collocation_nodes

__all__ = [
    "barycentric_weights",
    "lagrange_interpolation_matrix",
    "lagrange_integration_weights",
    "QuadratureRule",
    "make_rule",
    "diagonal_coefficients",
    "DIAGONAL_COEFFICIENT_CHOICES",
]


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights ``w_j = 1 / prod_{k != j} (x_j - x_k)``."""
    nodes = np.asarray(nodes, dtype=np.float64)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def lagrange_interpolation_matrix(
    src_nodes: np.ndarray, dst_points: np.ndarray
) -> np.ndarray:
    """Matrix ``P`` with ``P[i, j] = L_j(dst_i)`` (Lagrange basis on src).

    Evaluation uses the barycentric formula; destination points that
    coincide with a source node reproduce the unit vector exactly.
    """
    src = np.asarray(src_nodes, dtype=np.float64)
    dst = np.asarray(dst_points, dtype=np.float64)
    w = barycentric_weights(src)
    out = np.zeros((dst.size, src.size))
    for i, x in enumerate(dst):
        d = x - src
        hit = np.nonzero(np.abs(d) < 1e-14)[0]
        if hit.size:
            out[i, hit[0]] = 1.0
            continue
        terms = w / d
        out[i] = terms / terms.sum()
    return out


def lagrange_integration_weights(
    nodes: np.ndarray, intervals: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """``W[i, j] = integral over intervals[i] of L_j`` (exact).

    Each interval integral uses Gauss-Legendre with ``ceil((M+1)/2)``
    points, exact for the degree-M Lagrange basis.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    m = nodes.size
    n_gauss = (m + 2) // 2
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_gauss)
    out = np.zeros((len(intervals), m))
    for i, (a, b) in enumerate(intervals):
        if b < a:
            raise ValueError(f"interval {i} has b < a: ({a}, {b})")
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        pts = mid + half * gl_x
        basis = lagrange_interpolation_matrix(nodes, pts)  # (G, M)
        out[i] = half * (gl_w @ basis)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Node set plus its integration matrices on the unit interval."""

    node_set: NodeSet
    Q: np.ndarray
    S: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.node_set.nodes

    @property
    def num_nodes(self) -> int:
        return self.node_set.num_nodes

    @property
    def delta(self) -> np.ndarray:
        """Node spacings ``delta[m] = tau_{m+1} - tau_m`` (length M)."""
        return np.diff(self.nodes)

    def integrate_node_to_node(self, f_nodes: np.ndarray) -> np.ndarray:
        """Apply S: ``out[m] = int_{tau_{m-1}}^{tau_m}``.

        ``f_nodes`` may have arbitrary trailing shape: (M+1, ...).
        """
        return np.tensordot(self.S, f_nodes, axes=(1, 0))

    def integrate_from_start(self, f_nodes: np.ndarray) -> np.ndarray:
        """Apply Q: ``out[m] = int_0^{tau_m}``."""
        return np.tensordot(self.Q, f_nodes, axes=(1, 0))


#: named diagonal-preconditioner coefficient choices for PFASST-ER
#: Jacobi-style sweeps (``Q_delta = diag(d)``)
DIAGONAL_COEFFICIENT_CHOICES = ("ie", "min", "picard")


def diagonal_coefficients(rule: QuadratureRule, kind: str = "min") -> np.ndarray:
    """Diagonal preconditioner coefficients ``d`` with ``Q_delta = diag(d)``.

    The Jacobi-style (node-parallel) SDC iteration solves

        u_m - dt d_m f(t_m, u_m) = u0 + dt ((Q - Q_delta) F^k)_m + Tau_m

    independently per node.  Supported choices:

    * ``"ie"`` — implicit-Euler diagonal ``d_m = tau_m`` (the ``IEpar``
      preconditioner of the parallel-SDC literature: the diagonal of the
      implicit-Euler ``Q_delta``).
    * ``"min"`` — optimized non-stiff diagonal ``d_m = tau_m / M`` with
      ``M`` the node count (the MIN-SR-NS choice): it renders
      ``Q - Q_delta`` nilpotent, so the non-stiff iteration matrix
      ``dt L (Q - Q_delta)`` has spectral radius ~0 and the sweep
      converges like the Gauss-Seidel substitution despite being fully
      node-parallel.  This is the default.
    * ``"picard"`` — ``d = 0``: the plain Picard/spectral iteration,
      the zero-cost reference point (one evaluation per node per sweep).

    An array of length ``num_nodes`` may be passed instead of a name.
    """
    if isinstance(kind, str):
        if kind == "ie":
            return rule.nodes.copy()
        if kind == "min":
            return rule.nodes / float(rule.num_nodes)
        if kind == "picard":
            return np.zeros(rule.num_nodes, dtype=np.float64)
        raise ValueError(
            f"unknown diagonal coefficient choice {kind!r}: expected one "
            f"of {DIAGONAL_COEFFICIENT_CHOICES} or an array of length "
            f"{rule.num_nodes}"
        )
    d = np.asarray(kind, dtype=np.float64)
    if d.shape != (rule.num_nodes,):
        raise ValueError(
            f"diagonal coefficient array has shape {d.shape}, "
            f"expected ({rule.num_nodes},)"
        )
    return d.copy()


def make_rule(num_nodes: int, node_type: str = "lobatto") -> QuadratureRule:
    """Construct the :class:`QuadratureRule` for a node family.

    >>> rule = make_rule(3)
    >>> rule.Q[2] @ np.ones(3)  # integral of 1 over [0, 1]
    1.0
    """
    node_set = collocation_nodes(num_nodes, node_type)
    tau = node_set.nodes
    m = node_set.num_nodes
    Q = lagrange_integration_weights(tau, [(0.0, tau[k]) for k in range(m)])
    s_intervals = [(0.0, tau[0])] + [(tau[k - 1], tau[k]) for k in range(1, m)]
    S = lagrange_integration_weights(tau, s_intervals)
    return QuadratureRule(node_set=node_set, Q=Q, S=S)
