"""The PFASST controller (paper Sec. III-B-3, Algorithm 1, Fig. 6).

The algorithm is written once, as a *rank program* for the simulated MPI
scheduler (:mod:`repro.parallel.simmpi`): ``P_T`` ranks each own one time
slice per block, sweep SDC on a level hierarchy, and exchange slice
boundary values with their neighbours.  Running the program under the
scheduler yields both the numerics (identical regardless of the timing
model) and per-rank virtual wall-clocks for the speedup studies (Fig. 8).

Structure per block:

1. **Predictor** — staggered coarse sweeps: rank ``n`` performs ``n + 1``
   coarse sweeps, receiving an updated initial value from rank ``n - 1``
   before each sweep after the first (the staircase of Fig. 6, same
   aggregate cost as one serial coarse sweep per slice).  The result is
   interpolated up through the hierarchy.
2. **Iterations** — each iteration runs Algorithm 1's V-cycle:
   going *down*: sweep, send the slice end value forward, restrict,
   compute the FAS correction; at the *coarsest* level: receive the new
   initial value, sweep, send forward; going *up*: add the interpolated
   coarse correction to the node values and to their evaluations,
   receive the new fine initial value and apply the initial-value
   correction.

Multi-block runs chain blocks by broadcasting the last slice's end value.

Fault tolerance (``config.recovery``): the PFASST iteration is naturally
resilient — the coarse level carries a usable copy of the solution — so a
rank lost to a simulated hard fault (:mod:`repro.parallel.faults`) can be
recovered *algorithmically* instead of by global checkpoint-restart:

* ``"fail"`` (default) — no recovery protocol; a crash kills the run
  exactly as before this subsystem existed.  The message pattern is
  byte-identical to the fault-free controller.
* ``"cold-restart"`` — all ranks abandon the current block and re-run its
  predictor from the block initial value (which the replacement rank
  re-fetches from a surviving rank).
* ``"warm-restart"`` — only the lost rank rebuilds: its left neighbour
  sends the *coarse-level* end value (the paper's "less accurate but
  usable copy"), the replacement interpolates it to the fine level, runs
  predictor-quality coarse sweeps, and iterating continues; surviving
  ranks keep their state, so reconvergence needs fewer extra iterations
  than a cold restart.

With recovery enabled, every iteration ends in a small status allreduce
(crash detection is collective) and neighbour receives carry a timeout so
a dead sender surfaces as a :class:`~repro.parallel.faults.RecvTimeout`
instead of a deadlock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Tracer
from repro.parallel import tags
from repro.parallel.collectives import allgather, allreduce, bcast
from repro.parallel.executor import ExecutionBackend
from repro.parallel.faults import FaultPlan, RankFailure, RecvTimeout
from repro.parallel.simmpi import (
    CommCostModel,
    EpochComm,
    Scheduler,
    VirtualComm,
)
from repro.parallel.topology import SpaceTimeGrid
from repro.pfasst.checkpoint import (
    RunCheckpoint,
    RunCheckpointer,
    adopt_levels,
    snapshot_levels,
)
from repro.pfasst.fas import fas_correction
from repro.pfasst.level import Level, LevelSpec
from repro.pfasst.transfer import TimeSpaceTransfer
from repro.sdc.sweeper import RhsContext
from repro.utils.validation import check_in, check_nonnegative, check_positive

__all__ = [
    "PfasstConfig",
    "PfasstResult",
    "RECOVERY_POLICIES",
    "run_pfasst",
    "pfasst_rank_program",
]

RECOVERY_POLICIES = ("fail", "cold-restart", "warm-restart")


@dataclass(frozen=True)
class PfasstConfig:
    """Run parameters for PFASST over ``[t0, t_end]``.

    ``PFASST(X, Y, P_T)`` in the paper's notation maps to ``iterations=X``,
    coarsest level ``sweeps=Y``, and ``p_time=P_T`` scheduler ranks.
    """

    t0: float
    t_end: float
    n_steps: int
    iterations: int
    #: optional residual-based early stopping, positive when given (adds
    #: one allreduce per iteration)
    residual_tol: Optional[float] = None
    #: yield begin/end annotations around every sweep, which the tracer
    #: passed to ``run_pfasst(tracer=)`` folds into phase spans — the
    #: schedule diagrams of the paper's Fig. 6
    trace: bool = False
    #: crash-recovery policy: ``"fail"`` (no protocol, byte-identical to
    #: the pre-fault-tolerance controller), ``"cold-restart"`` (redo the
    #: block from its predictor) or ``"warm-restart"`` (rebuild only the
    #: lost rank from a neighbour's coarse solution)
    recovery: str = "fail"
    #: virtual-time timeout on neighbour receives when recovery is on —
    #: lazy semantics: it only ever fires at a global stall, so any value
    #: works and it never expires spuriously (see simmpi docs)
    recovery_timeout: float = 0.05
    #: link-layer retransmits per receive before a timeout/corruption is
    #: escalated to the recovery protocol
    recovery_retries: int = 1
    #: restarts allowed per block before the run gives up
    max_restarts: int = 3

    def __post_init__(self) -> None:
        for name in ("n_steps", "iterations", "max_restarts"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not self.t_end > self.t0:
            raise ValueError(f"t_end {self.t_end} must be > t0 {self.t0}")
        check_in("recovery", self.recovery, RECOVERY_POLICIES)
        check_positive("recovery_timeout", self.recovery_timeout)
        check_nonnegative("recovery_retries", self.recovery_retries)
        if self.residual_tol is not None:
            check_positive("residual_tol", self.residual_tol)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps


@dataclass
class PfasstResult:
    """Outcome of a PFASST run."""

    u_end: np.ndarray
    #: slice end values of the final block, one per time rank
    slice_end_values: List[np.ndarray]
    #: fine-level residual history: residuals[rank][iteration] (last block)
    residuals: List[List[float]]
    #: virtual wall-clock per rank (seconds)
    clocks: List[float]
    #: iterations actually performed per block (== config.iterations unless
    #: residual_tol triggered early exit)
    iterations_done: List[int] = field(default_factory=list)
    #: V-cycle iterations *attempted* per block, including iterations
    #: discarded by a restart — ``total_iterations[b] -
    #: iterations_done[b]`` is the algorithmic recovery overhead
    total_iterations: List[int] = field(default_factory=list)
    #: one entry per recovery action the protocol took (block, attempt,
    #: phase, iteration, policy, failed ranks)
    recoveries: List[Dict[str, Any]] = field(default_factory=list)
    #: the scheduler's :class:`~repro.parallel.faults.ResilienceReport`
    #: (``None``-ish/empty when no fault plan was active)
    resilience: Optional[Any] = None
    #: snapshot of the scheduler's metrics registry, the run's counts:
    #: ``mpi.*`` messages, bytes and retransmissions, ``sched.*``,
    #: ``executor.*`` and the ``tree.*`` work of every evaluation, inline
    #: or dispatched (see :class:`~repro.parallel.simmpi.Scheduler`)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: the run's :class:`repro.analysis.commgraph.DeterminismCertificate`
    #: when ``certify=True`` was requested; ``None`` otherwise
    certificate: Optional[Any] = None

    @property
    def makespan(self) -> float:
        return max(self.clocks) if self.clocks else 0.0

    @property
    def recovery_iterations(self) -> int:
        """Total iterations spent on recovery across all blocks."""
        return sum(self.total_iterations) - sum(self.iterations_done)


def _check_run_shape(config, specs, p_time: int) -> None:
    """Reject a hierarchy or step count the rank programs cannot run.

    Shared by :func:`run_pfasst` (before anything is built) and the
    rank-program entry (programs also run bare under a ``Scheduler``).
    """
    if len(specs) < 2:
        raise ValueError("PFASST needs at least 2 levels (fine + coarse)")
    if config.n_steps % p_time != 0:
        raise ValueError(
            f"n_steps={config.n_steps} must be a multiple of p_time={p_time}"
        )


def _build_levels(
    specs: Sequence[LevelSpec], dt: Optional[float] = None
) -> tuple[List[Level], List[TimeSpaceTransfer]]:
    levels = [Level(spec, dt) for spec in specs]
    transfers = [TimeSpaceTransfer(fine.rule, coarse.rule)
                 for fine, coarse in zip(levels, levels[1:])]
    return levels, transfers


def _merge_ranks(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Allreduce op combining failed-rank sets (commutative, associative)."""
    return tuple(sorted(set(a) | set(b)))


def _merge_status(a, b):
    """Combine per-rank ``(failed_ranks, residual)`` iteration statuses.

    Piggybacking the residual on the failure-detection allreduce keeps
    fault-tolerant runs at *one* collective per iteration (instead of a
    status sync plus a separate ``residual_tol`` reduction) — and, more
    importantly, keeps the separate reduction out of the unrecoverable
    window: a crash during a collective is fatal, so fewer collectives
    mean fewer ops where a crash cannot be recovered.
    """
    return (_merge_ranks(a[0], b[0]), max(a[1], b[1]))


class Step:
    """One time rank's share of a PFASST run: its levels and its program.

    The state the algorithm works on — the level hierarchy and its
    transfers, the block initial value ``u_block`` and ``u0_block``, the
    value of it every level of the active phase starts from, the
    ``block`` / ``attempt`` counters every message tag carries, the
    histories — lives in attributes; the predictor, the V-cycle and the
    block loop (:meth:`run`) are generator methods over it.
    :func:`pfasst_rank_program` builds ``ctx`` and passes the checkpoint
    arguments.  :attr:`recovery` is ``None`` under ``config.recovery ==
    "fail"`` (exactly the fault-free op stream), else the
    :class:`Recovery` layer the loop consults.
    """

    def __init__(self, comm: VirtualComm, config: PfasstConfig, specs, u0,
                 ctx: RhsContext, checkpointer, resume) -> None:
        _check_run_shape(config, specs, comm.size)
        self.comm, self.config, self.ctx = comm, config, ctx
        self.rank, self.p_time = comm.rank, comm.size
        self.levels, self.transfers = _build_levels(specs, config.dt)
        self.checkpointer, self.resume = checkpointer, resume
        self.recovery = Recovery(self) if config.recovery != "fail" else None
        self.u_block = np.array(u0 if resume is None else resume.u_block,
                                dtype=np.float64)
        self.u0_block: Optional[np.ndarray] = None
        self.block = self.attempt = self.iters_attempted = 0
        self.t_slice = config.t0
        self.residuals: List[float] = []  # fine level, active block
        self.iterations_done: List[int] = []
        self.total_iterations: List[int] = []
        self.recoveries: List[Dict[str, Any]] = []
        if resume is not None:
            self.iterations_done = [int(x) for x in resume.iterations_done]
            self.total_iterations = [int(x) for x in resume.total_iterations]
            self.recoveries = [dict(r) for r in resume.recoveries]

    def _mark(self, label: str, data: Optional[Dict[str, Any]] = None):
        """Trace marker (generator): one ``Annotate`` op under
        ``config.trace``."""
        if self.config.trace:
            yield self.comm.annotate(label, data=data)

    def _interpolate_up(self):
        """Fill the finer levels from the coarsest (predictor epilogue)."""
        for lev in range(len(self.levels) - 2, -1, -1):
            tr = self.transfers[lev]
            fine, coarse = self.levels[lev], self.levels[lev + 1]
            fine.U = tr.interpolate_nodes(coarse.U)
            fine.u0 = fine.U[0].copy()
            # interpolated F[0] is approximate: the next sweep takes f0
            # instead, evaluating it if the new u0 cleared it
            fine.F = tr.interpolate_nodes(coarse.F)
            fine.tau = None

    def _predictor(self):
        """Staggered coarse sweeps (the staircase of Fig. 6), then up."""
        comm, rank, ctx, t_slice = self.comm, self.rank, self.ctx, self.t_slice
        block, attempt, coarsest = self.block, self.attempt, self.levels[-1]
        # no timeout with recovery off: every Recv op is byte-identical
        # to the fault-free controller's
        recv_kw = self.recovery.neighbour if self.recovery else {}
        coarsest.u0 = self.u0_block
        yield from coarsest.spread(t_slice, ctx)
        for j in range(rank + 1):
            new_u0 = None
            if j > 0:
                new_u0 = yield comm.recv(
                    rank - 1, (tags.PRED, block, attempt, j), **recv_kw
                )
            yield from self._mark(f"begin:predict:{j}")
            yield from coarsest.sweep(t_slice, ctx, new_u0)
            yield from self._mark(f"end:predict:{j}")
            if rank < comm.size - 1:
                yield comm.send(
                    rank + 1, (tags.PRED, block, attempt, j + 1),
                    coarsest.end_value,
                )
        # interpolate the predicted solution up through the hierarchy
        self._interpolate_up()

    def _iteration(self, k: int):
        """One V-cycle of Algorithm 1; returns the fine-level residual."""
        comm, rank, ctx, t_slice = self.comm, self.rank, self.ctx, self.t_slice
        block, attempt, levels = self.block, self.attempt, self.levels
        recv_kw = self.recovery.neighbour if self.recovery else {}
        bottom, coarsest = len(levels) - 1, levels[-1]
        # ---- down: sweep, send the end value forward, restrict, FAS ----
        for lev, tr in enumerate(self.transfers):
            level, coarse = levels[lev], levels[lev + 1]
            yield from self._mark(f"begin:sweep:L{lev}:k{k}")
            for _ in range(level.spec.sweeps):
                yield from level.sweep(t_slice, ctx)
            yield from self._mark(f"end:sweep:L{lev}:k{k}")
            if rank < comm.size - 1:
                yield comm.send(
                    rank + 1, (tags.LVL, block, attempt, lev, k),
                    level.end_value,
                )
            yield from self._mark(f"begin:restrict:L{lev}:k{k}")
            coarse.U = tr.restrict_nodes(level.U)
            coarse.U_at_restriction = coarse.U.copy()
            coarse.u0 = level.u0
            yield from coarse.evaluate_all(t_slice, ctx)
            coarse.F_at_restriction = coarse.F.copy()
            coarse.tau = fas_correction(
                level.dt, tr, level.F, coarse.F, tau_fine=level.tau
            )
            yield from self._mark(f"end:restrict:L{lev}:k{k}")
        # ---- coarsest: new initial value, sweep, send forward ----
        if rank > 0:
            new_u0 = yield comm.recv(
                rank - 1, (tags.LVL, block, attempt, bottom, k), **recv_kw
            )
        else:
            new_u0 = self.u0_block
        yield from self._mark(f"begin:sweep:L{bottom}:k{k}")
        for s in range(coarsest.spec.sweeps):
            yield from coarsest.sweep(t_slice, ctx, new_u0 if s == 0 else None)
        yield from self._mark(f"end:sweep:L{bottom}:k{k}")
        if rank < comm.size - 1:
            yield comm.send(
                rank + 1, (tags.LVL, block, attempt, bottom, k),
                coarsest.end_value,
            )
        # ---- up: coarse correction, new initial value, (re)sweep ----
        for lev in range(bottom - 1, -1, -1):
            yield from self._mark(f"begin:interp:L{lev}:k{k}")
            tr = self.transfers[lev]
            level, coarse = levels[lev], levels[lev + 1]
            level.U = level.U + tr.interpolate_nodes(
                coarse.U - coarse.U_at_restriction
            )
            # correct F by the interpolated increment of the coarse
            # evaluations since restriction, not by re-evaluating it
            level.F = level.F + tr.interpolate_nodes(
                coarse.F - coarse.F_at_restriction
            )
            yield from self._mark(f"end:interp:L{lev}:k{k}")
            if rank > 0:
                recv_u0 = yield comm.recv(
                    rank - 1, (tags.LVL, block, attempt, lev, k), **recv_kw
                )
                level.u0 = recv_u0 + (coarse.u0 - recv_u0)
            else:
                level.u0 = self.u0_block
            level.U[0] = level.u0
            if lev > 0:
                # intermediate levels sweep once more on the way up
                yield from level.sweep(t_slice, ctx)
        res = levels[0].residual()
        yield from self._mark("residual", {"k": k, "residual": float(res)})
        return res

    def _begin_block(self, block: int) -> Optional[int]:
        """Enter ``block``; returns the first iteration to run.

        ``None`` stands for "the predictor first".  The block a
        checkpoint was taken in adopts that state bitwise and skips the
        predictor: the continuation executes exactly the ops the
        uninterrupted run would have from iteration ``k + 1`` on.
        """
        resume, config = self.resume, self.config
        self.block, self.attempt, self.iters_attempted = block, 0, 0
        step = block * self.p_time + self.rank
        self.t_slice = config.t0 + step * config.dt
        self.residuals = []
        if resume is None or block != resume.block:
            for lv in self.levels:
                lv.f0 = None  # an evaluation at the previous slice's time
            return None
        self.attempt = resume.attempt
        self.iters_attempted = resume.iters_attempted
        self.residuals = [float(x) for x in resume.residuals[self.rank]]
        adopt_levels(self.levels, resume.levels[self.rank])
        self.u0_block = self.u_block
        return resume.k + 1

    def run(self):
        """The block loop (generator); returns this rank's result dict.

        Per block one loop over phases: ``k is None`` is the predictor,
        then iteration ``k``.  After each the recovery layer, if any,
        reports the ranks that ``failed`` in it and names the phase to
        redo; without one a fault propagates and no op is added.
        """
        comm, config, rec = self.comm, self.config, self.recovery
        ckpt = self.checkpointer
        first = 0 if self.resume is None else self.resume.block
        for block in range(first, config.n_steps // self.p_time):
            k = self._begin_block(block)
            while k is None or k < config.iterations:
                res = fault = worst = None
                try:
                    if k is None:
                        # the block initial value on every level
                        self.u0_block = self.u_block
                        yield from self._predictor()
                    else:
                        self.iters_attempted += 1
                        res = yield from self._iteration(k)
                except (RankFailure, RecvTimeout) as exc:
                    if rec is None:
                        raise
                    fault = exc
                if rec is not None:
                    worst, failed = yield from rec.detect(k, res, fault)
                    if failed:
                        k = yield from rec.restart(k, failed)
                        continue
                if k is None:
                    k, self.residuals = 0, []
                    continue
                self.residuals.append(res)
                if config.residual_tol is not None:
                    if rec is None:
                        # the ftsync allreduce already carried the
                        # residual when recovery is on
                        worst = yield from allreduce(
                            comm, res, op=max,
                            tag=(tags.RTOL, block, self.attempt, k),
                        )
                    if worst <= config.residual_tol:
                        break
                if ckpt is not None and ckpt.wants(k):
                    # a plain in-process call — no ops, no clock movement:
                    # attaching a checkpointer keeps the run byte-identical
                    ckpt.contribute(self.rank, block, k, self.attempt, {
                        "u_block": np.array(self.u_block, copy=True),
                        "levels": snapshot_levels(self.levels),
                        "residuals": list(self.residuals),
                        "iterations_done": list(self.iterations_done),
                        "total_iterations": list(self.total_iterations),
                        "recoveries": [dict(r) for r in self.recoveries],
                        "iters_attempted": self.iters_attempted,
                    })
                k += 1
            self.iterations_done.append(len(self.residuals))
            self.total_iterations.append(self.iters_attempted)
            # chain blocks: broadcast the final slice's end value
            end, last = self.levels[0].end_value, self.p_time - 1
            tag = (tags.BLOCKEND, block, self.attempt)
            if rec is None:
                self.u_block = yield from bcast(comm, end, root=last, tag=tag)
            else:
                self.u_block = yield from rec.protocol(bcast(
                    comm, end, root=last, tag=tag, **rec.collective,
                ), "block-end broadcast")
        return {
            "rank": self.rank,
            "end_value": self.levels[0].end_value,
            "residuals": self.residuals,  # the last block's history
            "iterations_done": self.iterations_done,
            "total_iterations": self.total_iterations,
            "recoveries": self.recoveries,
        }


class Recovery:
    """Crash detection and restart protocol around a :class:`Step`'s loop.

    Built only when ``config.recovery != "fail"``.  After every phase
    :meth:`detect` merges the crashed ranks with a status allreduce and,
    if there are any, voids the attempt for everyone; :meth:`restart`
    applies the policy and names the phase to redo.  It also owns the
    timeouts that turn a dead sender into a
    :class:`~repro.parallel.faults.RecvTimeout`.  ``world`` (the comm
    detection runs over), ``grid``, ``row`` and ``epoch_comms`` are the
    grid context :func:`pfasst_rank_program` builds; without it the world
    is the step's time comm: the op stream of the time-only controller.
    """

    def __init__(self, step: Step, world=None, grid=None, row=None,
                 epoch_comms: Tuple[EpochComm, ...] = ()) -> None:
        config = step.config
        self.step = step
        self.world = step.comm if world is None else world
        self.world_rank = self.world.rank
        self.grid, self.row, self.epoch_comms = grid, row, epoch_comms
        self.retries = config.recovery_retries
        #: timeout keywords of the neighbour (detection) receives
        self.neighbour = {"timeout": config.recovery_timeout,
                          "retries": self.retries}
        #: protocol collectives (status allreduces, block-end broadcast)
        #: use a longer timeout: a dropped collective leg still recovers
        #: by shadow retransmit, but at a crash stall the scheduler
        #: expires the *shortest* timeout first, so the neighbour
        #: receive — whose RecvTimeout the block loop catches — always
        #: fires before a collective leg, which cannot catch it
        self.collective = {"timeout": config.recovery_timeout * 8,
                           "retries": self.retries}

    def protocol(self, gen, what: str):
        """Escalate a timeout on a protocol collective to a hard error.

        The collectives themselves recover dropped legs by shadow
        retransmission (``retries``); a timeout surfacing here means a
        peer rank crashed *inside* the recovery protocol or a message
        was lost beyond the retransmit budget — both unrecoverable.
        """
        try:
            result = yield from gen
        except RecvTimeout as exc:
            raise RuntimeError(
                f"PFASST recovery protocol failure in {what}: a collective "
                "leg timed out — a peer rank crashed inside the protocol or "
                "a message was lost beyond the retransmit budget "
                f"(retries={self.retries}); original: {exc}"
            ) from exc
        return result

    @staticmethod
    def _survivors(failed, size: int) -> List[int]:
        alive = [r for r in range(size) if r not in failed]
        if not alive:
            raise RuntimeError(
                f"PFASST recovery impossible: all {size} ranks failed "
                "simultaneously"
            )
        return alive

    def _failed_time_ranks(self, failed) -> List[int]:
        """Time ranks touched by a failed world-rank set (grid only)."""
        return sorted({self.grid.coords(w)[0] for w in failed})

    def detect(self, k: Optional[int], result, fault):
        """Settle the phase just run (``k is None``: the predictor).

        ``fault`` is the crash or receive timeout it ended in, if any.
        A status allreduce over the world merges the failed ranks (the
        iteration's also carries the residual: ``worst`` is its
        maximum).  A non-empty ``failed`` voids the phase for everyone:
        ``attempt`` is bumped into every later tag, the epoch comms are
        bumped, the action is recorded and ``u_block`` re-fetched.
        Returns ``(worst, failed)``.
        """
        step, config, worst = self.step, self.step.config, None
        mine = (self.world_rank,) if isinstance(fault, RankFailure) else ()
        if k is None:
            failed = yield from self.protocol(allreduce(
                self.world, mine, op=_merge_ranks,
                tag=(tags.FTPRED, step.block, step.attempt),
                **self.collective,
            ), "predictor status allreduce")
        else:
            status = (mine, float("inf") if result is None else result)
            failed, worst = yield from self.protocol(allreduce(
                self.world, status, op=_merge_status,
                tag=(tags.FTSYNC, step.block, step.attempt, k),
                **self.collective,
            ), "iteration status allreduce")
        if not failed:
            if fault is not None:
                raise RuntimeError(
                    "PFASST recovery protocol hole: a receive timed out but "
                    "the status allreduce reports no failed rank — a "
                    "message was lost past its retransmit budget "
                    f"(retries={self.retries}); original timeout: {fault}"
                )
            return worst, failed
        phase = "predictor" if k is None else "iteration"
        if step.attempt + 1 > config.max_restarts:
            raise RuntimeError(
                f"PFASST recovery gave up: block {step.block} exceeded "
                f"max_restarts={config.max_restarts} (policy "
                f"{config.recovery!r}, last failure in {phase} phase, "
                f"failed ranks {sorted(failed)})"
            )
        step.attempt += 1
        entry = {
            "block": step.block, "attempt": step.attempt, "phase": phase,
            "k": k, "policy": config.recovery, "failed_ranks": list(failed),
        }
        if self.grid is not None:
            # orphan in-flight space/node-ring traffic from the aborted
            # attempt; ``failed_ranks`` are world ranks here, so record
            # the affected time slices too
            for c in self.epoch_comms:
                c.epoch += 1
            entry["failed_time_ranks"] = self._failed_time_ranks(failed)
        step.recoveries.append(entry)
        # replacement ranks re-fetch the block initial value: a
        # broadcast from the lowest surviving rank of the world, which
        # doubles as the barrier that keeps the recovery lock-step
        step.u_block = yield from bcast(
            self.world, step.u_block,
            root=self._survivors(failed, self.world.size)[0],
            tag=(tags.FTUB, step.block, step.attempt), **self.neighbour,
        )
        return worst, failed

    def restart(self, k: Optional[int], failed):
        """Apply the policy to a voided phase; returns the phase to redo.

        ``None`` sends everyone back to the predictor: a predictor-phase
        loss voids the staircase for everyone downstream under both
        policies, and a cold restart redoes the whole block (the lost
        ranks from wiped levels).  A warm restart rebuilds the lost
        ranks in place and redoes iteration ``k``; on the grid it first
        bitwise-resyncs every space row (members abort at different
        points), then rebuilds only rows that lost *all* members —
        partially-crashed rows recover via the resync.
        """
        step = self.step
        if k is None or step.config.recovery == "cold-restart":
            if self.world_rank in failed:
                for lv in step.levels:
                    lv.reset()
            return None
        if self.grid is not None:
            yield from self._row_resync(failed)
            failed = tuple(
                t for t in self._failed_time_ranks(failed)
                if set(self.grid.time_row(t)) <= set(failed)
            )
        if failed:
            yield from self._warm_rebuild(failed)
        return k

    def _row_resync(self, failed):
        """Bitwise-resync this rank's space row after a warm restart.

        Row members abort an interrupted iteration at different receive
        boundaries, so even rows with no crashed member can have diverged
        from each other mid-V-cycle; every row therefore adopts the level
        state of its lowest non-crashed member.  A row with *no*
        surviving member resets instead — ``_warm_rebuild`` rebuilds it
        from a column donor.  With ``p_nodes > 1`` the "row" is the whole
        time-slice plane (``p_space * p_nodes`` ranks).
        """
        step = self.step
        alive = [i for i, w in enumerate(self.grid.time_row(step.rank))
                 if w not in failed]
        if not alive:
            for lv in step.levels:
                lv.reset()
            return
        root = alive[0]
        blob = snapshot_levels(step.levels) if self.row.rank == root else None
        blob = yield from self.protocol(bcast(
            self.row, blob, root=root,
            tag=(tags.FTROW, step.block, step.attempt), **self.neighbour,
        ), "row-resync broadcast")
        if self.row.rank != root:
            adopt_levels(step.levels, blob)

    def _warm_rebuild(self, failed):
        """Rebuild the ``failed`` time ranks from a coarse hand-off.

        The nearest *surviving* left neighbour donates its coarse-level
        slice end value — for a single crash exactly the failed slice's
        initial condition; with neighbouring crashes an earlier-time
        approximation, still a usable predictor seed.  The replacement
        interpolates it to the fine level, re-restricts and, like the
        predictor, spread-initialises the coarsest level, sweeps it and
        interpolates up.  Survivors keep all their state.
        """
        step = self.step
        comm, rank, coarsest = step.comm, step.rank, step.levels[-1]
        block, attempt = step.block, step.attempt
        alive = self._survivors(failed, step.p_time)
        if rank not in failed:
            for f in failed:
                donors = [r for r in alive if r < f]
                if donors and rank == donors[-1]:
                    yield comm.send(
                        f, (tags.FTWARM, block, attempt, f), coarsest.end_value
                    )
            return
        # --- this rank is the replacement: rebuild from scratch ---
        donors = [r for r in alive if r < rank]
        if donors:
            u0 = yield comm.recv(
                donors[-1], (tags.FTWARM, block, attempt, rank),
                **self.neighbour,
            )
        else:
            # no live rank to the left: this is the block's first slice,
            # whose initial condition is the (re-fetched) block value
            u0 = step.u_block.copy()
        for lv in step.levels:
            lv.reset()
        coarsest.u0 = u0
        yield from coarsest.spread(step.t_slice, step.ctx)
        yield from step._mark("begin:warm-rebuild")
        for s in range(coarsest.spec.sweeps):
            yield from coarsest.sweep(
                step.t_slice, step.ctx, coarsest.u0 if s == 0 else None
            )
        yield from step._mark("end:warm-rebuild")
        step._interpolate_up()
        if rank == 0:
            # rank 0 consumes u0_block every iteration; its rebuilt one
            # is a copy of u_block, which is exactly what it must be
            step.u0_block = u0


def pfasst_rank_program(
    comm: VirtualComm, config: PfasstConfig, specs: Sequence[LevelSpec],
    u0: np.ndarray, grid: SpaceTimeGrid,
    executor: Optional[ExecutionBackend] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    resume: Optional[RunCheckpoint] = None,
) -> Generator[Any, Any, Dict[str, Any]]:
    """Rank program for the P_T x P_S x P_N grid (paper Fig. 2, PFASST-ER).

    Yields simulated-MPI operations; returns a dict with the rank's end
    value, residual history, bookkeeping and grid coordinates.  Splits
    the world into this rank's space row (vary ``s``), time column (vary
    ``t``) and — when ``p_nodes > 1`` — node group (vary ``n``), then
    runs one :class:`Step`'s :meth:`~Step.run` over the time comm.  A
    grid with extent-1 space *and* node axes makes no split at all: the
    world is the time comm and the op stream is the plain time-parallel
    one.

    The step's :class:`~repro.sdc.sweeper.RhsContext` says where every
    RHS evaluation runs: collectively over the space comm (sharding the
    tree work), sharded over the node comm in multi-node evaluation
    rounds (the diagonal sweeper's, the controller's restriction
    re-evaluations), and/or as ``Compute`` ops on problems registered
    with ``executor``, which a process backend runs concurrently on real
    cores.  None of the three changes the time algorithm: sharding is
    bitwise-neutral (each RHS is computed exactly once from the same
    inputs).  All
    members of a time slice drive identical time logic over identical
    full states, so after the run the end values are cross-checked
    bitwise across the space row and the node group.

    With ``config.recovery != "fail"`` the program survives injected rank
    crashes (:class:`~repro.parallel.faults.RankFailure` thrown at an op
    boundary) during the predictor or a V-cycle iteration: detection is
    collective, the block ``attempt`` counter is bumped into every
    message tag so stale messages from the abandoned phase can never be
    mistaken for live traffic, and the failed rank rebuilds per the
    policy (:class:`Recovery`).  A crash that lands *inside* the
    recovery protocol itself (status allreduce, block refetch, donor
    hand-off, block-end broadcast) is fatal — the same caveat a real
    fault-tolerant MPI has when the recovery collective itself fails.
    On a grid the space and node comms are then wrapped in
    :class:`~repro.parallel.simmpi.EpochComm` (restart-safe collectives:
    default timeouts on every receive, epoch-tagged messages that
    restarts orphan) and the step's :class:`Recovery` layer moves
    failure detection to the world communicator.  Its resync row is the
    space comm at ``p_nodes = 1``; otherwise one more split builds the
    *plane* comm of all ``p_space * p_nodes`` ranks of this time slice,
    ordered like ``grid.time_row(t)``.

    ``checkpointer`` / ``resume`` attach durable checkpoint/restart
    (:mod:`repro.pfasst.checkpoint`): contributions are plain in-process
    calls after each iteration — zero extra ops, so the op stream stays
    byte-identical — and a resumed program jumps to the checkpointed
    block, adopts the level state bitwise and continues at iteration
    ``k + 1``, reproducing the uninterrupted run exactly.  Only the
    ``(s, n) = (0, 0)`` member of each slice contributes to the
    checkpointer — slice state is replicated bitwise, so one column
    describes the whole grid.
    """
    t_idx, s_idx, n_idx = grid.coords(comm.rank)
    tcomm, space, node, row = comm, None, None, None
    ft = config.recovery != "fail"
    epoch_comms: List[EpochComm] = []

    def view(sub):
        """``sub`` itself, or its epoch-tagged view when recovery is on."""
        if ft:
            sub = EpochComm(sub, timeout=config.recovery_timeout,
                            retries=config.recovery_retries)
            epoch_comms.append(sub)
        return sub

    if grid.world_size > grid.p_time:
        # p_nodes = 1 keeps the scalar split colours of the paper's 2D
        # grid: colours are part of every sub-comm tag, so widening them
        # to tuples would change that grid's certificates and clocks
        flat = grid.p_nodes == 1
        space = view((yield from comm.split(
            color=t_idx if flat else (t_idx, n_idx), key=s_idx)))
        tcomm = yield from comm.split(
            color=s_idx if flat else (s_idx, n_idx), key=t_idx)
        if not flat:
            node = view((yield from comm.split(
                color=(t_idx, s_idx), key=n_idx)))
        if ft:
            row = space
            if not flat:
                row = view((yield from comm.split(
                    color=t_idx, key=s_idx * grid.p_nodes + n_idx)))
    step = Step(
        tcomm, config, specs, u0, RhsContext(space, node, executor),
        checkpointer if (s_idx, n_idx) == (0, 0) else None, resume,
    )
    if row is not None:
        step.recovery = Recovery(step, comm, grid, row, tuple(epoch_comms))
    result = yield from step.run()
    # every member of a time slice drives identical time logic over
    # identical full states, so end values must agree *bitwise* — any
    # divergence means a space or node collective leaked rank-dependent
    # data
    digest = hashlib.blake2b(
        np.ascontiguousarray(result["end_value"]).tobytes(), digest_size=16
    ).hexdigest()
    if grid.p_space > 1:
        digests = yield from allgather(space, digest, tag=tags.SPACE_DIGEST)
        if len(set(digests)) != 1:
            raise RuntimeError(
                f"space row (t={t_idx}, n={n_idx}) diverged across its "
                f"{space.size} ranks: end-value digests {digests}"
            )
    if grid.p_nodes > 1:
        digests = yield from allgather(node, digest, tag=tags.NODE_DIGEST)
        if len(set(digests)) != 1:
            raise RuntimeError(
                f"node group (t={t_idx}, s={s_idx}) diverged across its "
                f"{node.size} ranks: end-value digests {digests}"
            )
    result.update(space_rank=s_idx, node_rank=n_idx)
    return result


def _run_config_digest(
    config: PfasstConfig, p_time: int, p_space: int, p_nodes: int = 1
) -> str:
    """Stable digest binding a checkpoint to its run configuration.

    A checkpoint resumed under a different config, ``p_time``,
    ``p_space`` or ``p_nodes`` cannot reproduce the uninterrupted run
    bitwise, so ``run_pfasst(resume_from=...)`` rejects digest
    mismatches.  ``p_nodes = 1`` keeps the historical digest input so
    pre-existing checkpoints stay resumable.
    """
    key: Tuple[Any, ...] = (config, p_time, p_space)
    if p_nodes != 1:
        key = key + (p_nodes,)
    return hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8
    ).hexdigest()


def run_pfasst(
    config: PfasstConfig,
    specs: Sequence[LevelSpec],
    u0: np.ndarray,
    p_time: int,
    cost_model: Optional[CommCostModel] = None,
    measure_compute: bool = False,
    verify: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    p_space: int = 1,
    p_nodes: int = 1,
    executor: Optional[ExecutionBackend] = None,
    certify: bool = False,
    checkpoint: Optional[Any] = None,
    checkpoint_interval: int = 1,
    resume_from: Optional[Any] = None,
) -> PfasstResult:
    """Execute PFASST with ``p_time`` simulated time ranks.

    ``specs`` orders the level hierarchy fine-to-coarse (one
    :class:`LevelSpec` per level) and ``u0`` is the packed initial
    state at ``config.t0``.  ``cost_model`` prices message traffic for
    the virtual clocks (:class:`~repro.parallel.simmpi.CommCostModel`;
    default free communication).

    ``p_space > 1`` runs the full ``p_time x p_space`` space-time grid
    (paper Fig. 2): the scheduler world holds ``p_time * p_space`` ranks,
    each splitting into its space row and time column, with every RHS
    evaluation sharded over the row (requires problems whose evaluator is
    a :class:`repro.tree.parallel.SpaceParallelTreeEvaluator`; other
    problems silently fall back to redundant serial evaluation).  The
    numerics are identical to ``p_space=1`` up to floating-point
    accumulation order (the run cross-checks that all space columns agree
    bitwise with each other).  Fault injection composes with the grid:
    with ``config.recovery != "fail"`` failure detection runs over the
    whole ``p_time * p_space`` world, warm restarts bitwise-resync every
    space row from its lowest surviving member (rows that lost *all*
    members are rebuilt from a column donor), and all space traffic is
    epoch-tagged so a restart orphans stale ring messages.

    ``p_nodes > 1`` adds PFASST-ER's third dimension: the scheduler
    world grows to ``p_time * p_space * p_nodes`` ranks (one
    :class:`~repro.parallel.topology.SpaceTimeGrid`, the same rank
    program at every shape), and every multi-node RHS evaluation round
    shards the collocation nodes over the ``p_nodes`` ranks of each
    time-space cell (ring allgather over the node comm).  Under the
    default Gauss-Seidel sweeper only the controller's restriction
    re-evaluations are multi-node rounds (the sweep substitution chain stays sequential) and the run
    is *bitwise identical* to ``p_nodes = 1``; sweep-level node
    parallelism needs levels built with ``LevelSpec(sweeper="diagonal")``,
    whose Jacobi-style updates agree with ``p_nodes = 1`` bitwise as
    well (node sharding never changes what is computed, only where).
    The run cross-checks bitwise agreement across each node group.

    ``checkpoint=`` (a path) writes a durable, versioned
    :class:`~repro.pfasst.checkpoint.RunCheckpoint` every
    ``checkpoint_interval`` iterations — atomic temp-file + fsync +
    rename, CRC-protected; each write replaces the previous checkpoint.
    ``resume_from=`` (a path or a loaded ``RunCheckpoint``) restarts a
    killed run from its last checkpoint: the resumed run adopts the
    level state bitwise, skips the completed blocks and iterations, and
    reaches final u-blocks and residuals identical to an uninterrupted
    run.  Resuming under a different config/``p_time``/``p_space``/
    ``p_nodes`` is rejected (digest mismatch).

    Set ``measure_compute=True`` (and a cost model) for speedup studies;
    leave it off for pure accuracy experiments, where virtual time is
    irrelevant and scheduling overhead should be minimal.
    ``verify=True`` re-runs the whole block pipeline under the reversed
    rank-service order and requires byte-identical results (the
    scheduler's race-detector replay; roughly doubles the run time —
    fault injection is replay-stable, so this composes with a plan).
    ``fault_plan`` injects crashes / link faults
    (:mod:`repro.parallel.faults`); pair it with
    ``config.recovery != "fail"`` for the run to survive them.
    ``tracer`` attaches a :class:`repro.obs.Tracer` to the scheduler;
    combined with ``config.trace=True`` the recording carries one
    virtual-time span per predictor step / sweep / restrict / interp
    (with per-iteration residual instants) per rank — export it with
    :func:`repro.obs.export_chrome_trace` or render it with
    ``repro-trace gantt`` to reproduce the paper's Fig. 6.  The tracer
    is the one record of the annotations; the run's counts are in
    ``result.metrics``.

    ``executor`` selects the *execution backend*
    (:mod:`repro.parallel.executor`): every level problem is registered
    with it and RHS evaluations become scheduler ``Compute`` ops.  With a
    :class:`~repro.parallel.executor.ProcessExecutor` the independent
    evaluations of one scheduling round run concurrently on real cores;
    the numerics, message stream and (``measure_compute=False``) virtual
    clocks are byte-identical to :class:`~repro.parallel.executor.
    SerialExecutor` and to ``executor=None``, and so are the
    ``tree.*`` work counters of ``result.metrics``.

    ``certify=True`` turns on the scheduler's happens-before log
    (:mod:`repro.analysis.commgraph`): every message carries its send's
    event index, deliveries log the DAG's send -> receive edges, and the
    run's
    :class:`~repro.analysis.commgraph.DeterminismCertificate` (digest +
    channel census + any message races) lands in ``result.certificate``
    and in the ``comm.certificate`` metric.  Combined with ``verify=True``
    the replay's digest must match or the run fails.
    """
    check_positive("p_time", p_time)
    check_positive("p_space", p_space)
    check_positive("p_nodes", p_nodes)
    _check_run_shape(config, specs, p_time)
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    if certify and resume_from is not None:
        raise NotImplementedError(
            "certify=True cannot be combined with resume_from=: a "
            "determinism certificate's channel census covers a whole "
            "run, but a resumed run executes only the tail — certify "
            "the uninterrupted run instead"
        )
    scheduler = Scheduler(
        p_time * p_space * p_nodes, cost_model=cost_model,
        measure_compute=measure_compute,
        verify=verify, fault_plan=fault_plan,
        tracer=tracer, executor=executor, certify=certify,
    )
    if executor is not None:
        for i, spec in enumerate(specs):
            executor.register(f"level{i}", spec.problem)
    run_digest = _run_config_digest(config, p_time, p_space, p_nodes)
    checkpointer: Optional[RunCheckpointer] = None
    if checkpoint is not None:
        checkpointer = RunCheckpointer(
            checkpoint, p_time, interval=checkpoint_interval,
            config_digest=run_digest,
            metrics_source=lambda: scheduler.metrics.as_dict(),
        )
    resume: Optional[RunCheckpoint] = None
    if resume_from is not None:
        resume = (resume_from if isinstance(resume_from, RunCheckpoint)
                  else RunCheckpoint.load(resume_from))
        if resume.p_time != p_time:
            raise ValueError(
                f"checkpoint was written by a p_time={resume.p_time} run; "
                f"cannot resume it with p_time={p_time}"
            )
        if resume.config_digest and resume.config_digest != run_digest:
            raise ValueError(
                "checkpoint config digest mismatch: the checkpoint was "
                "written under a different (config, p_time, p_space, "
                "p_nodes); resume with the original run configuration"
            )
    results = scheduler.run(
        pfasst_rank_program,
        args=(config, specs, np.asarray(u0),
              SpaceTimeGrid(p_time, p_space, p_nodes), executor,
              checkpointer, resume),
    )
    # space columns and node groups are bitwise-identical (checked inside
    # the program); report (s, n) = (0, 0) as canonical
    results = [
        r for r in results if (r["space_rank"], r["node_rank"]) == (0, 0)
    ]
    by_rank = sorted(results, key=lambda r: r["rank"])
    return PfasstResult(
        u_end=by_rank[-1]["end_value"],
        slice_end_values=[r["end_value"] for r in by_rank],
        residuals=[r["residuals"] for r in by_rank],
        clocks=list(scheduler.clocks),
        iterations_done=by_rank[0]["iterations_done"],
        total_iterations=by_rank[0]["total_iterations"],
        recoveries=by_rank[0]["recoveries"],
        resilience=scheduler.resilience,
        metrics=scheduler.metrics.as_dict(),
        certificate=scheduler.certificate,
    )
