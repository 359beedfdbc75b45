"""Level specification and per-rank runtime storage for PFASST."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sdc.nodes import available_node_types
from repro.sdc.quadrature import QuadratureRule, make_rule
from repro.sdc.sweeper import (
    SWEEPERS,
    ExplicitSDCSweeper,
    RhsContext,
    make_sweeper,
)
from repro.utils.validation import check_in
from repro.vortex.problem import ODEProblem

__all__ = ["LevelSpec", "Level", "paper_levels"]

#: the paper's two levels: 3 fine nodes x 1 sweep, 2 coarse nodes x Y = 2
#: sweeps (the ``2, 2`` of PFASST(2, 2, P_T) is iterations and Y)
FINE_NODES, COARSE_NODES, COARSE_SWEEPS = 3, 2, 2


@dataclass(frozen=True)
class LevelSpec:
    """Static description of one PFASST level.

    Parameters
    ----------
    problem :
        The IVP with this level's RHS accuracy.  The paper's particle
        coarsening supplies the *same* problem with a tree evaluator using
        a larger ``theta`` on coarser levels.
    num_nodes :
        Collocation nodes at this level (paper: 3 fine / 2 coarse).
    sweeps :
        SDC sweeps performed at this level per PFASST iteration
        (``n_ell``; paper: 1 fine, Y coarse).
    node_type :
        Collocation family (one of
        :func:`~repro.sdc.nodes.available_node_types`); coarse nodes
        should be (near-)nested in the fine ones.
    sweeper :
        ``"gauss-seidel"`` (the sequential node-to-node substitution,
        default) or ``"diagonal"`` (the PFASST-ER Jacobi-style
        :class:`~repro.sdc.diagonal.DiagonalSDCSweeper` with mutually
        independent node updates — required for sweep-level ``p_nodes``
        parallelism).
    """

    problem: ODEProblem
    num_nodes: int
    sweeps: int = 1
    node_type: str = "lobatto"
    sweeper: str = "gauss-seidel"

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need >= 2 nodes per level, got {self.num_nodes}")
        if self.sweeps < 1:
            raise ValueError(f"need >= 1 sweep per level, got {self.sweeps}")
        check_in("sweeper", self.sweeper, SWEEPERS)
        check_in("node_type", self.node_type, available_node_types())


def paper_levels(fine: ODEProblem, coarse: ODEProblem,
                 sweeper: str) -> List[LevelSpec]:
    """The paper's level pair: ``fine`` on :data:`FINE_NODES` Lobatto
    nodes with one sweep, ``coarse`` on :data:`COARSE_NODES` with
    :data:`COARSE_SWEEPS` sweeps, both swept by ``sweeper``."""
    return [LevelSpec(fine, FINE_NODES, 1, sweeper=sweeper),
            LevelSpec(coarse, COARSE_NODES, COARSE_SWEEPS, sweeper=sweeper)]


class Level:
    """Mutable per-rank storage of one level's node data.

    ``dt`` is the slice length every sweep and residual of this level is
    taken over; a level built without one can hold state but not
    advance it.

    The level owns the pair ``(u0, f0)``: :attr:`f0` is the RHS of
    :attr:`u0` at node 0's time, evaluated once and handed to every
    spread, sweep and re-evaluation that needs it.  Assigning ``u0``
    keeps ``f0`` only when the new value is bitwise equal to the held
    one; ``f0 is None`` means the next RHS site evaluates it.  ``f0``
    belongs to one slice time: whoever moves the level to another slice
    clears it.
    """

    #: the array-valued runtime state: node values and evaluations
    #: ``(M+1, *state)``, the node-to-node FAS term, the current initial
    #: value and its RHS, and the snapshots taken when this level is
    #: filled by restriction (the coarse corrections on the way up the
    #: V-cycle are ``U - U_snap`` / ``F - F_snap``).  :meth:`reset` and
    #: checkpoint snapshot/adopt iterate it, so no field can be left out
    #: of either; ``f0`` follows ``u0``, whose assignment may clear it.
    STATE = ("U", "F", "tau", "u0", "f0", "U_at_restriction",
             "F_at_restriction")

    def __init__(self, spec: LevelSpec, dt: Optional[float] = None) -> None:
        self.spec = spec
        self.dt = dt
        self.rule: QuadratureRule = make_rule(spec.num_nodes, spec.node_type)
        self.sweeper: ExplicitSDCSweeper = make_sweeper(
            spec.problem, self.rule, spec.sweeper
        )
        self._u0: Optional[np.ndarray] = None
        self.reset()

    def reset(self) -> None:
        """Discard all runtime state, as if the owning rank's node died.

        Used by the fault-tolerant PFASST controller: a crashed rank's
        replacement starts from wiped levels and rebuilds them from a
        neighbour's coarse solution (warm restart) or from the block's
        predictor (cold restart).
        """
        for name in self.STATE:
            setattr(self, name, None)

    @property
    def u0(self) -> Optional[np.ndarray]:
        """The slice's initial value."""
        return self._u0

    @u0.setter
    def u0(self, value: Optional[np.ndarray]) -> None:
        if value is None or not np.array_equal(value, self._u0):
            self.f0 = None
        self._u0 = value

    def _hold_f0(self) -> None:
        """Keep ``F[0]`` as :attr:`f0` if node 0 holds ``u0`` bitwise."""
        if self.f0 is None and np.array_equal(self.U[0], self.u0):
            self.f0 = self.F[0].copy()

    @property
    def end_value(self) -> np.ndarray:
        """Solution at the right edge of the slice: the last node's value."""
        if self.U is None or self.F is None or self.u0 is None:
            raise RuntimeError("level has not been initialised")
        return self.U[-1]

    def residual(self) -> float:
        """Max-norm collocation residual of the current node values."""
        return self.sweeper.residual(self.dt, self.U, self.F, self.u0)

    def evaluate_all(self, t: float, ctx: RhsContext):
        """Set :attr:`F` to the RHS at every node of the slice at ``t``
        (a ``ctx`` generator); node 0 takes :attr:`f0` if it holds
        :attr:`u0`."""
        held = self.f0 is not None and np.array_equal(self.U[0], self.u0)
        self.F = yield from ctx.node_values(
            self.spec.problem, self.sweeper.node_times(t, self.dt), self.U,
            {0: self.f0} if held else None,
        )
        self._hold_f0()

    def spread(self, t: float, ctx: RhsContext):
        """Spread :attr:`u0` and :attr:`f0` over the slice at ``t``.

        A block starts here, before any restriction of its own, so the
        previous block's FAS term :attr:`tau` goes.
        """
        self.U, self.F = yield from self.sweeper.initialize_gen(
            t, self.dt, self.u0, ctx=ctx, f0=self.f0
        )
        self.tau = None
        self._hold_f0()

    def sweep(self, t: float, ctx: RhsContext,
              u0: Optional[np.ndarray] = None):
        """One SDC sweep of the slice at ``t`` (generator).

        ``u0`` is a new initial value (a neighbour's end value, say): it
        becomes :attr:`u0`.  The sweeper always gets :attr:`u0` and
        :attr:`f0`, so node 0 costs a call only when ``f0`` is unknown.
        """
        if u0 is not None:
            self.u0 = u0
        self.U, self.F = yield from self.sweeper.sweep_gen(
            t, self.dt, self.U, self.F, u0=self.u0, tau=self.tau, ctx=ctx,
            f0=self.f0,
        )
        self._hold_f0()
