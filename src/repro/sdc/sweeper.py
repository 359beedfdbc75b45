"""Explicit SDC sweeps (paper Eq. 13) with optional FAS corrections.

State layout: node-value arrays ``U`` and ``F`` have shape
``(M+1, *state_shape)`` where ``M+1`` is the number of collocation nodes.
FAS corrections ``tau`` use the *node-to-node* convention matching the
``S`` matrix: ``tau[m]`` corrects the integral over ``[tau_{m-1}, tau_m]``
and ``tau[0]`` is zero (node 0 is the step start); cumulative form is
``tau.cumsum(axis=0)``.

One sweep applies the first-order (forward-Euler type) corrector

    U^{k+1}_{m+1} = U^{k+1}_m
                    + dt_m [ f(t_m, U^{k+1}_m) - f(t_m, U^k_m) ]
                    + dt (S F^k)_{m+1} + tau_{m+1}

and each sweep raises the formal order by one, up to the order of the
underlying quadrature.  Node 0 is the step start and node M its end
(:class:`~repro.sdc.nodes.NodeSet`): node 0 holds the initial value
``u0`` and ``U[-1]`` is the solution at the end of the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import boundary
from repro.parallel import tags
from repro.parallel.collectives import allgather
from repro.parallel.executor import Compute, ComputeTask
from repro.sdc.quadrature import QuadratureRule
from repro.utils.validation import check_in
from repro.vortex.problem import ODEProblem

__all__ = [
    "ExplicitSDCSweeper",
    "RhsContext",
    "SWEEPERS",
    "make_sweeper",
    "node_slice",
]

#: sweeper names accepted by :func:`make_sweeper` (and by ``LevelSpec``,
#: ``SDCStepper`` and the ``--sweeper`` CLI options)
SWEEPERS = ("gauss-seidel", "diagonal")


def node_slice(n_nodes: int, parts: int, index: int) -> Tuple[int, int]:
    """Contiguous balanced slice ``[lo, hi)`` of ``n_nodes`` for one rank.

    Remainder nodes go to the lowest ranks; ranks beyond ``n_nodes`` get
    an empty slice (a node comm may be wider than a coarse level's node
    count).
    """
    base, extra = divmod(n_nodes, parts)
    lo = index * base + min(index, extra)
    return lo, lo + base + (1 if index < extra else 0)


@dataclass(frozen=True)
class RhsContext:
    """Where and how one rank evaluates right-hand sides.

    Built once per rank program and handed to every sweeper/controller
    RHS site as ``ctx=``.  ``space`` is the rank's space communicator (a
    row of the paper's Fig. 2 grid), ``node`` its PFASST-ER node
    communicator and ``executor`` the scheduler's
    :class:`~repro.parallel.executor.ExecutionBackend`, whose
    :meth:`~repro.parallel.executor.ExecutionBackend.key_of` names a
    registered problem.  A communicator of size 1 is as good as none, so
    the default context evaluates serially with *zero* yields and serial
    op streams stay byte-identical to direct ``problem.rhs`` calls.
    """

    space: Optional[Any] = None
    node: Optional[Any] = None
    executor: Optional[Any] = None

    def rhs(self, problem: ODEProblem, t: float, u: np.ndarray):
        """One RHS evaluation (generator); the one place that chooses how.

        With a live space comm and a problem whose evaluator exposes
        ``field_program`` (the space-parallel tree evaluator) the
        evaluation is driven collectively over the row by
        ``problem.rhs_program``, which yields the rank's field segment as
        a :class:`~repro.parallel.executor.Compute` operation when the
        problem is registered with the executor.  Otherwise a registered
        problem's whole call is yielded as a ``Compute`` operation — the
        scheduler's dispatch unit: on a process backend, independent
        evaluations across time ranks run concurrently on real cores.
        Failing both it is a plain ``problem.rhs`` call.
        """
        space, executor = self.space, self.executor
        key = None if executor is None else executor.key_of(problem)
        evaluator = getattr(problem, "evaluator", None)
        if (space is not None and space.size > 1
                and hasattr(evaluator, "field_program")):
            return (yield from problem.rhs_program(space, t, u, key))
        if key is not None:
            return (yield Compute(
                ComputeTask(key, "rhs", args=(t,), arrays=(u,))
            ))
        return problem.rhs(t, u)

    def node_values(self, problem: ODEProblem, times, values, known=None):
        """Evaluate the RHS at a set of collocation nodes (generator).

        ``known`` maps node indices to evaluations the caller already
        holds (``f(u0)`` at node 0, say); those nodes make no call.
        With a live node comm each node rank evaluates only its own
        contiguous slice of the ``(t, u)`` pairs via :meth:`rhs` and the
        full ``F`` block is reassembled with a ring allgather, a known
        entry contributed by the rank owning it as if computed.  Every
        node rank returns the same array *bitwise*: each entry is
        computed on exactly one rank and shared, which is what keeps
        ``p_nodes > 1`` runs bit-comparable to ``p_nodes = 1``.  Without
        one the loop runs inline with no extra yields.
        """
        node = self.node
        known = known or {}
        serial = node is None or node.size <= 1
        lo, hi = 0, len(times)
        if not serial:
            lo, hi = node_slice(hi, node.size, node.rank)
        mine = []
        for m in range(lo, hi):
            f = known.get(m)
            if f is None:
                f = yield from self.rhs(problem, times[m], values[m])
            mine.append(f)
        if serial:
            return np.stack(mine, axis=0)
        yield node.annotate("begin:node:rhs-allgather")
        nbytes = int(sum(np.asarray(f).nbytes for f in mine))
        node.counter("node.rhs_bytes").inc(nbytes)
        node.counter("node.rhs_bytes", per_rank=True).inc(nbytes)
        parts = yield from allgather(node, mine, tag=tags.NODE_F)
        yield node.annotate("end:node:rhs-allgather")
        return np.stack([f for part in parts for f in part], axis=0)


def _drain(gen):
    """Run a generator expected to perform zero yields; return its value."""
    try:
        op = next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(
        f"synchronous sweep drove a communicating generator (yielded "
        f"{op!r}); space-parallel evaluation requires the generator API"
    )


class ExplicitSDCSweeper:
    """Sweeps the explicit SDC corrector over one time step.

    The sweeper is stateless with respect to the solution: callers own the
    node arrays and thread them through :meth:`initialize` / :meth:`sweep`;
    this makes the PFASST controller's bookkeeping explicit and testable.
    """

    def __init__(self, problem: ODEProblem, rule: QuadratureRule) -> None:
        self.problem = problem
        self.rule = rule

    @property
    def num_nodes(self) -> int:
        return self.rule.num_nodes

    def node_times(self, t0: float, dt: float) -> np.ndarray:
        """Physical times of the collocation nodes for step ``[t0, t0+dt]``."""
        return t0 + dt * self.rule.nodes

    # ------------------------------------------------------------------
    def initialize_gen(
        self,
        t0: float,
        dt: float,
        u0: np.ndarray,
        ctx: RhsContext = RhsContext(),
        f0: Optional[np.ndarray] = None,
    ):
        """Generator form of :meth:`initialize` (RHS via ``ctx.rhs``).

        Drive with ``yield from`` inside a rank program to shard the RHS
        work over ``ctx.space`` and/or dispatch it to an execution
        backend; with the default context it performs zero yields and
        computes exactly what :meth:`initialize` does.  Spreading makes
        at most one evaluation, so ``ctx.node`` is unused here.  ``f0``,
        when given, is the RHS of ``u0`` at node 0's time and replaces
        that call.
        """
        U = np.empty((self.num_nodes,) + u0.shape, dtype=np.float64)
        F = np.empty_like(U)
        if f0 is None:
            t = self.node_times(t0, dt)[0]
            f0 = yield from ctx.rhs(self.problem, t, u0)
        U[:] = u0
        F[:] = f0
        return U, F

    def initialize(
        self,
        t0: float,
        dt: float,
        u0: np.ndarray,
        f0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Provisional node values ``U^0`` and their evaluations ``F^0``.

        Spreads ``u0`` and its RHS to every node: one RHS evaluation,
        none when ``f0`` is given.
        """
        return _drain(self.initialize_gen(t0, dt, u0, f0=f0))

    # ------------------------------------------------------------------
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
        """Generator form of :meth:`sweep` (RHS via ``ctx.rhs``).

        The Gauss-Seidel substitution chain is inherently
        node-sequential, so ``ctx.node`` is unused here (node ranks
        compute redundantly and stay bitwise identical).
        """
        m1 = self.num_nodes
        times = self.node_times(t0, dt)
        delta = dt * self.rule.delta
        integral = dt * self.rule.integrate_node_to_node(F)
        if tau is not None:
            integral = integral + tau

        U_new = np.empty_like(U)
        F_new = np.empty_like(F)
        if u0 is None:
            u0, f0 = U[0], F[0]
        U_new[0] = u0
        if f0 is None:
            f0 = yield from ctx.rhs(self.problem, times[0], u0)
        F_new[0] = f0
        for m in range(m1 - 1):
            U_new[m + 1] = (
                U_new[m]
                + delta[m] * (F_new[m] - F[m])
                + integral[m + 1]
            )
            F_new[m + 1] = yield from ctx.rhs(
                self.problem, times[m + 1], U_new[m + 1]
            )
        return U_new, F_new

    @boundary("sweep", arrays=["U", "F", "u0", "tau", "f0"])
    def sweep(
        self,
        t0: float,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: Optional[np.ndarray] = None,
        tau: Optional[np.ndarray] = None,
        f0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One correction sweep; returns new ``(U, F)`` (inputs untouched).

        ``u0`` overrides the step initial value (PFASST passes the
        freshly received left-boundary value here).  It lands directly
        on node 0, whose evaluation is ``f0`` when given (the RHS of
        ``u0``) and one call otherwise; when ``u0`` is omitted, ``U[0]``
        is kept and its evaluation ``F[0]`` is reused.
        """
        return _drain(self.sweep_gen(t0, dt, U, F, u0=u0, tau=tau, f0=f0))

    # ------------------------------------------------------------------
    def residual(
        self,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> float:
        """Max-norm collocation residual ``|u0 + dt (QF)_m + Tau_m - U_m|``.

        This is the discrete analogue of the Picard equation (paper Eq. 12)
        and the convergence monitor the paper reports in Sec. IV-B.
        """
        rhs = dt * self.rule.integrate_from_start(F)
        if tau is not None:
            rhs = rhs + np.cumsum(tau, axis=0)
        res = 0.0
        # node 0 is the step start, exact by construction
        for m in range(1, self.num_nodes):
            res = max(res, self.problem.norm(u0 + rhs[m] - U[m]))
        return res


def make_sweeper(
    problem: ODEProblem, rule: QuadratureRule, kind: str
) -> ExplicitSDCSweeper:
    """The sweeper named ``kind`` (one of :data:`SWEEPERS`) on ``rule``.

    ``"gauss-seidel"`` is this module's sequential node-to-node
    substitution, ``"diagonal"`` the PFASST-ER Jacobi-style
    :class:`~repro.sdc.diagonal.DiagonalSDCSweeper` (MIN-SR-NS diagonal).
    """
    check_in("sweeper", kind, SWEEPERS)
    if kind == "diagonal":
        # diagonal.py subclasses this module's sweeper
        from repro.sdc.diagonal import DiagonalSDCSweeper

        return DiagonalSDCSweeper(problem, rule)
    return ExplicitSDCSweeper(problem, rule)
