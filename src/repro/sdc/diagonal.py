"""Diagonal (Jacobi-style) SDC sweeps — PFASST-ER's third parallel axis.

The Gauss-Seidel sweep of :mod:`repro.sdc.sweeper` substitutes node by
node: node ``m+1``'s update consumes node ``m``'s *new* value, so the M
evaluations of one sweep are inherently sequential.  PFASST-ER (Schöbel
& Speck; see PAPERS.md) replaces the lower-triangular substitution with
a **diagonal** preconditioner ``Q_delta = diag(d)``:

    u^{k+1}_m - dt d_m f(t_m, u^{k+1}_m)
        = u0 + dt ((Q - Q_delta) F^k)_m + Tau_m

Each node's equation involves only that node's unknown, so all nodes of
a sweep update **independently** — the collocation nodes become a third
process dimension next to time and space.  Executed under a node
sub-comm (``p_nodes`` ranks per time-space cell), each node rank
evaluates only its own slice of the node axis and the full ``F`` block
is reassembled with an allgather (:meth:`repro.sdc.sweeper.
RhsContext.node_values`).

The diagonal is MIN-SR-NS, ``d_m = tau_m / M`` with ``M`` the node
count: it renders ``Q - Q_delta`` nilpotent, so the non-stiff iteration
matrix ``dt L (Q - Q_delta)`` has spectral radius ~0 and the sweep
converges like the Gauss-Seidel substitution despite being fully
node-parallel.  For the explicit N-body right-hand sides of this
repository the per-node implicit relation is resolved by one fixed-point
(Picard) iteration on the node equation, started from the plain Picard
value ``u0 + dt (Q F^k)_m + Tau_m``: a sweep makes two evaluation
rounds, the inner one applying the diagonal correction.

A round evaluates only the nodes that moved: a node the diagonal
correction left bitwise where the previous round evaluated it (every
node with ``d_m = 0``, and converged ones) reuses that evaluation, and
node 0, the step start, is ``u0`` itself and takes the caller's ``f0``
instead of a call.

Cost trade-off vs Gauss-Seidel: one diagonal sweep makes two
evaluation *rounds*, each round node-parallel over ``min(p_nodes, M+1)``
ranks, against ``M + 1`` strictly sequential evaluations for
Gauss-Seidel.  With full node parallelism the per-sweep critical path
drops from ``M + 1`` to two evaluations.

The fixed point is the collocation solution — identical to the
Gauss-Seidel sweeper's — so PFASST's FAS machinery, residual monitor
and transfer operators apply unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sdc.quadrature import QuadratureRule
from repro.sdc.sweeper import ExplicitSDCSweeper, RhsContext
from repro.vortex.problem import ODEProblem

__all__ = ["DiagonalSDCSweeper"]


class DiagonalSDCSweeper(ExplicitSDCSweeper):
    """SDC sweeper with mutually independent node updates.

    ``problem`` and ``rule`` as for
    :class:`~repro.sdc.sweeper.ExplicitSDCSweeper`; :attr:`d` is the
    MIN-SR-NS diagonal of the module docstring.
    """

    def __init__(self, problem: ODEProblem, rule: QuadratureRule) -> None:
        super().__init__(problem, rule)
        self.d = rule.nodes / float(rule.num_nodes)

    def sweep_gen(
        self,
        t0: float,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: Optional[np.ndarray] = None,
        tau: Optional[np.ndarray] = None,
        ctx: RhsContext = RhsContext(),
        f0: Optional[np.ndarray] = None,
    ):
        """One Jacobi-style sweep; node-parallel over ``ctx.node`` when live.

        All node updates read only the previous iterate ``(U, F)``,
        ``u0`` and ``f0`` (the RHS of ``u0``, if the caller holds it), so
        the evaluation rounds shard over the node comm and every node
        rank returns the same ``(U_new, F_new)`` bitwise.
        """
        m1 = self.num_nodes
        times = self.node_times(t0, dt)
        if u0 is None:
            u0 = U[0]
        base = u0 + dt * self.rule.integrate_from_start(F)
        if tau is not None:
            base = base + np.cumsum(tau, axis=0)
        # node 0 is u0 (row 0 of Q and tau_0 vanish), whose RHS the
        # caller may hold
        known = (None if f0 is None or not np.array_equal(base[0], u0)
                 else {0: f0})
        # the Picard value is the first fixed-point iterate started from
        # the previous sweep's values (d_m F^k_m cancels exactly); the
        # inner round applies the diagonal correction to it
        d_eff = (dt * self.d).reshape((m1,) + (1,) * (U.ndim - 1))
        F_star = yield from ctx.node_values(self.problem, times, base, known)
        U_new = base - d_eff * F + d_eff * F_star
        known = {m: F_star[m] for m in range(m1)
                 if np.array_equal(U_new[m], base[m])}
        F_new = yield from ctx.node_values(self.problem, times, U_new, known)
        return U_new, F_new
