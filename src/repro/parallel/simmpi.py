"""Deterministic discrete-event simulated MPI.

The paper's Fig. 8 runs PFASST with ``P_T`` MPI ranks along the time axis on
a Blue Gene/P.  Here each rank is a Python *generator* that yields
communication operations; a scheduler matches sends to receives, advances
per-rank **virtual clocks**, and thereby measures the parallel wall-clock
the same program would need on a message-passing machine:

* compute time   — real ``perf_counter`` time a rank spends between yields,
  scaled by ``compute_scale`` (so a Python tree walk can stand in for a
  Fortran one), plus explicit ``work(seconds)`` charges for modelled costs;
* message time   — LogP-style ``latency + bytes/bandwidth`` per message,
  charged between the sender's send instant and the receiver's completion.

Sends are *eager* (buffered): the sender only pays an overhead and
continues, mirroring MPI_Isend-based pipelined PFASST where fine-level
sends overlap with computation.  Receives block until the matching message
has arrived in virtual time.

The scheduler is deterministic: message matching is FIFO per
``(source, dest, tag)`` channel and independent of the interleaving chosen,
so numerical results never depend on the (virtual) timing model.

Fault injection (:mod:`repro.parallel.faults`) is opt-in per run: pass a
``fault_plan`` and the scheduler throws :class:`~repro.parallel.faults.
RankFailure` into crashing rank programs, drops/duplicates/delays/corrupts
matching messages, and records everything in a
:class:`~repro.parallel.faults.ResilienceReport` (``scheduler.resilience``).
Receives accept ``timeout=`` / ``retries=`` for link-layer recovery: a
lost or corrupted message is retransmitted from a pristine shadow copy
(bounded by ``retries``), and a receive that can never be satisfied raises
:class:`~repro.parallel.faults.RecvTimeout` into the program instead of
deadlocking.  Timeouts are *lazy*: they only fire when the scheduler has
proven that no further progress is possible without them, so a timeout
never fires spuriously, and the fault-free path with no plan installed is
byte-identical to the plain scheduler.

Example
-------
>>> def program(comm):
...     if comm.rank == 0:
...         yield comm.send(1, "token", 42)
...     else:
...         value = yield comm.recv(0, "token")
...         return value
>>> sched = Scheduler(2)
>>> sched.run(program)
[None, 42]
"""

from __future__ import annotations

import pickle
import time
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, Hashable, List, Optional, Tuple

import numpy as np

from repro.obs.ledger import LEDGER, new_run_id
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.parallel import tags as _tags
from repro.parallel.executor import (
    Compute,
    ComputeTask,
    DispatchResult,
    ExecutionBackend,
    PayloadPicklingError,
)
from repro.parallel.faults import (
    CorruptionError,
    FaultEvent,
    FaultPlan,
    FaultRuntime,
    RankFailure,
    RecvTimeout,
    ResilienceReport,
    corrupt_payload,
    payload_checksum,
)

__all__ = [
    "CommCostModel",
    "Send",
    "Recv",
    "Work",
    "VirtualComm",
    "SubComm",
    "EpochComm",
    "Scheduler",
    "DeadlockError",
    "OrphanMessageWarning",
    "payload_bytes",
]


class OrphanMessageWarning(UserWarning):
    """Messages were sent but never received by program exit."""


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked on receives that can never arrive."""


@dataclass(frozen=True)
class CommCostModel:
    """LogP-flavoured communication cost parameters (seconds, bytes/s).

    Defaults are Blue Gene/P-like interconnect figures (MPI latency a few
    microseconds, ~375 MB/s per link); they only affect virtual clocks,
    never numerics.
    """

    latency: float = 3.5e-6
    bandwidth: float = 375e6
    send_overhead: float = 1.0e-6
    #: multiplier applied to measured real compute time
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.send_overhead < 0:
            raise ValueError(
                f"send_overhead must be >= 0, got {self.send_overhead}"
            )
        if self.compute_scale <= 0:
            raise ValueError(
                f"compute_scale must be > 0, got {self.compute_scale}"
            )

    def transfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


def payload_bytes(payload: Any, strict: bool = False) -> int:
    """Estimate the on-wire size of a message payload.

    With ``strict=True`` (the scheduler sets it when a process execution
    backend is attached) an unpicklable payload raises
    :class:`~repro.parallel.executor.PayloadPicklingError` instead of
    falling back to the advisory 64-byte guess — under real multi-process
    execution such a payload is a correctness bug, not a cost-model
    inaccuracy.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if payload is None:
        return 8
    if isinstance(payload, (int, float, bool, np.floating, np.integer)):
        return 8
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        if strict:
            raise PayloadPicklingError(
                type(payload).__name__, cause=exc
            ) from exc
        warnings.warn(
            f"payload of type {type(payload).__name__!r} is unpicklable; "
            "assuming 64 bytes on the wire — communication cost-model "
            "figures for this message are a guess",
            UserWarning,
            stacklevel=2,
        )
        return 64


# -- operations a rank program may yield -----------------------------------
@dataclass(frozen=True)
class Send:
    dest: int
    tag: Hashable
    payload: Any


@dataclass(frozen=True)
class Recv:
    source: int
    tag: Hashable
    #: virtual-second budget after which the receive gives up (lazy: only
    #: expires when the scheduler has proven no progress is possible)
    timeout: Optional[float] = None
    #: bounded retransmit attempts for lost/corrupted messages
    retries: int = 0
    #: extra virtual seconds charged per retransmit (backoff model)
    backoff: float = 0.0


@dataclass(frozen=True)
class Work:
    """Charge ``seconds`` of *modelled* compute time to the rank's clock."""

    seconds: float


@dataclass(frozen=True)
class Annotate:
    """Record a labelled instant on the rank's virtual timeline.

    Used to reconstruct schedule diagrams (paper Fig. 6): a rank program
    yields ``comm.annotate("fine_sweep")`` / ``comm.annotate("end")``
    around its phases and the scheduler stores ``TraceEvent`` entries.
    ``begin:<label>`` / ``end:<label>`` pairs are additionally folded
    into virtual-time spans by an attached :class:`repro.obs.Tracer`.
    """

    label: str
    #: optional structured payload forwarded to the tracer (residuals, ...)
    data: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class TraceEvent:
    """One annotated instant: ``(rank, label, virtual_time)``."""

    rank: int
    label: str
    time: float
    data: Optional[Dict[str, Any]] = None


@dataclass
class _Message:
    payload: Any
    arrival: float
    #: pristine-payload checksum, set only on fault-injected channels
    checksum: Optional[int] = None
    #: sender's virtual clock at the send instant (orphan diagnostics)
    sent: float = 0.0
    #: sender's send stamp (a globally unique sequence number), set only
    #: under ``certify``; the full vector clock is reconstructed offline
    #: from the event log
    vc: Optional[int] = None


class VirtualComm:
    """Per-rank handle: op constructors plus rank/size/clock introspection.

    Rank programs *yield* the operations::

        yield comm.send(dest, tag, payload)
        value = yield comm.recv(source, tag)
        yield comm.work(0.01)
    """

    def __init__(self, rank: int, size: int, scheduler: "Scheduler") -> None:
        self.rank = rank
        self.size = size
        self._scheduler = scheduler
        #: collective-call counter giving each ``split`` a distinct comm id;
        #: consistent across ranks because splits are collective (every
        #: member calls them in the same order, like MPI communicators)
        self._split_seq = 0

    def send(self, dest: int, tag: Hashable, payload: Any) -> Send:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range 0..{self.size - 1}")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        return Send(dest, tag, payload)

    def recv(
        self,
        source: int,
        tag: Hashable,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.0,
    ) -> Recv:
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range 0..{self.size - 1}")
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 when given, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        return Recv(source, tag, timeout=timeout, retries=retries,
                    backoff=backoff)

    def work(self, seconds: float) -> Work:
        if seconds < 0:
            raise ValueError(f"work seconds must be >= 0, got {seconds}")
        return Work(seconds)

    def annotate(self, label: str,
                 data: Optional[Dict[str, Any]] = None) -> Annotate:
        return Annotate(label, data=data)

    @property
    def clock(self) -> float:
        """Current virtual time of this rank (seconds)."""
        return self._scheduler.clocks[self.rank]

    @property
    def world_rank(self) -> int:
        """This rank's identity in the scheduler world (= ``rank`` here)."""
        return self.rank

    @property
    def metrics(self) -> MetricsRegistry:
        """The scheduler's per-run metrics registry (for rank programs)."""
        return self._scheduler.metrics

    def translate(self, rank: int) -> int:
        """Map a rank of *this* communicator to its scheduler-world rank."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return rank

    def split(
        self, color: Optional[Hashable], key: Optional[int] = None
    ) -> Generator[Any, Any, Optional["SubComm"]]:
        """Collective ``MPI_Comm_split``: partition this comm by ``color``.

        Every rank of the communicator must call ``split`` (it is a
        collective built from point-to-point messages: a flat gather of
        ``(rank, color, key)`` to rank 0 followed by a broadcast of the
        grouping).  Ranks sharing a ``color`` form one :class:`SubComm`,
        ordered by ``(key, rank)`` — ``key`` defaults to the caller's
        rank, so omitting it preserves parent order.  Passing
        ``color=None`` opts out (returns ``None``), mirroring
        ``MPI_UNDEFINED``.

        Works recursively: splitting a :class:`SubComm` wraps tags one
        level deeper, so a P_T x P_S world can be split into per-row
        space comms and per-column time comms (paper Fig. 2) from one
        scheduler world.  Use with ``yield from`` inside a rank program::

            space = yield from world.split(color=t_index, key=s_index)
        """
        seq = self._split_seq
        self._split_seq += 1
        tag = (_tags.SPLIT, seq)
        entry = (self.rank, color, self.rank if key is None else key)
        if self.rank == 0:
            entries = [entry]
            for src in range(1, self.size):
                entries.append((yield self.recv(src, (tag, src))))
            groups: Dict[Hashable, List[Tuple[int, int]]] = {}
            for r, c, k in entries:
                if c is not None:
                    groups.setdefault(c, []).append((k, r))
            table = {c: [r for _, r in sorted(pairs)]
                     for c, pairs in groups.items()}
            for dest in range(1, self.size):
                yield self.send(dest, (tag, "b", dest), table)
        else:
            yield self.send(0, (tag, self.rank), entry)
            table = yield self.recv(0, (tag, "b", self.rank))
        if color is None:
            return None
        members = table[color]
        return SubComm(self, members, members.index(self.rank),
                       (_tags.SUBCOMM, seq, color))


class _TagView(VirtualComm):
    """A communicator that is a pure tag-translation view of ``parent``.

    Ops are constructed by the parent comm with peers mapped through
    :meth:`_parent_rank` and tags wrapped by :meth:`_wrap`, so traffic on
    different views can never collide even when they share scheduler-world
    rank pairs.  The scheduler itself is untouched.
    """

    def __init__(self, parent: VirtualComm, rank: int, size: int) -> None:
        super().__init__(rank, size, parent._scheduler)
        self.parent = parent

    def _parent_rank(self, rank: int) -> int:
        """Rank of this view's member ``rank`` on the parent comm."""
        return rank

    def _wrap(self, tag: Hashable) -> Hashable:
        """The parent-level tag carrying this view's ``tag``."""
        raise NotImplementedError

    def send(self, dest: int, tag: Hashable, payload: Any) -> Send:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range 0..{self.size - 1}")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        return self.parent.send(
            self._parent_rank(dest), self._wrap(tag), payload
        )

    def recv(
        self,
        source: int,
        tag: Hashable,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.0,
    ) -> Recv:
        if not 0 <= source < self.size:
            raise ValueError(
                f"source {source} out of range 0..{self.size - 1}"
            )
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        return self.parent.recv(
            self._parent_rank(source), self._wrap(tag),
            timeout=timeout, retries=retries, backoff=backoff,
        )

    @property
    def clock(self) -> float:
        """Virtual time of the underlying world rank (not the sub-rank)."""
        return self.parent.clock

    @property
    def world_rank(self) -> int:
        return self.parent.world_rank

    def translate(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return self.parent.translate(self._parent_rank(rank))


class SubComm(_TagView):
    """A sub-communicator produced by :meth:`VirtualComm.split`.

    Ranks map through the member list and tags wrap as
    ``(comm_id, tag)``.
    """

    def __init__(self, parent: VirtualComm, members: List[int], rank: int,
                 comm_id: Hashable) -> None:
        super().__init__(parent, rank, len(members))
        self.members = list(members)
        self._comm_id = comm_id

    def _parent_rank(self, rank: int) -> int:
        return self.members[rank]

    def _wrap(self, tag: Hashable) -> Hashable:
        return (self._comm_id, tag)


class EpochComm(_TagView):
    """An attempt-stamped view of a communicator for grid recovery.

    Every tag becomes ``(("ftepoch", epoch), tag)`` on the parent.  The
    PFASST controller bumps :attr:`epoch` whenever a recovery attempt
    abandons in-flight collective traffic: partial messages from the
    aborted attempt stay on the old epoch's channels and are orphaned
    instead of being consumed FIFO-style by the redo (space collectives
    such as the branch-exchange ring carry no attempt component of their
    own).

    ``recv`` additionally injects a default ``timeout``/``retries``/
    ``backoff`` when the call site passes none, so collectives written
    for the fault-free path become abortable when a row peer dies.
    """

    def __init__(
        self,
        parent: VirtualComm,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.0,
    ) -> None:
        super().__init__(parent, parent.rank, parent.size)
        #: monotonically increasing; never reset (inner tags may not
        #: carry a block component, so reuse across blocks would collide)
        self.epoch = 0
        self._default_timeout = timeout
        self._default_retries = retries
        self._default_backoff = backoff

    def _wrap(self, tag: Hashable) -> Hashable:
        return ((_tags.FTEPOCH, self.epoch), tag)

    def recv(
        self,
        source: int,
        tag: Hashable,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.0,
    ) -> Recv:
        if timeout is None and self._default_timeout is not None:
            timeout = self._default_timeout
            if retries == 0:
                retries = self._default_retries
            if backoff == 0.0:
                backoff = self._default_backoff
        return super().recv(source, tag, timeout=timeout, retries=retries,
                            backoff=backoff)


RankProgram = Callable[[VirtualComm], Generator[Any, Any, Any]]


@dataclass
class _RankState:
    gen: Generator[Any, Any, Any]
    comm: VirtualComm
    blocked_on: Optional[Tuple[int, Hashable]] = None
    finished: bool = False
    result: Any = None
    send_value: Any = None  # value fed into the generator on next resume
    recv_op: Optional[Recv] = None  # full op while blocked (timeout/retries)
    retries_left: int = 0
    #: task awaiting the next dispatch barrier (non-inline executor)
    compute_pending: Optional[ComputeTask] = None
    #: exception from a dispatched task, thrown into the generator on resume
    pending_throw: Optional[BaseException] = None


class Scheduler:
    """Run ``n_ranks`` rank programs to completion under virtual time.

    Parameters
    ----------
    n_ranks :
        Number of simulated ranks.
    cost_model :
        Communication/compute cost parameters.
    measure_compute :
        When True (default), real wall time between yields is added to the
        rank's virtual clock (scaled by ``compute_scale``).  The clock
        means "one machine per rank": every resume names the rank as the
        compute owner on :data:`repro.obs.ledger.LEDGER`, and seconds a
        shared cache bills there — a result another rank computed (see
        :mod:`repro.tree.state`) — are charged like measured ones.
        Disable for pure-numerics runs where timing is irrelevant;
        nothing is owned or billed then.
    verify :
        Replay mode (a practical race detector): after the primary run,
        re-execute the whole program under the *reversed* rank-service
        order and require byte-identical results
        (:func:`repro.analysis.commcheck.freeze`).  Schedule-dependent
        numerics — shared mutable state across rank generators, matching
        that leaks the interleaving — raise
        :class:`repro.analysis.commcheck.VerificationError`.  With
        ``measure_compute=False`` the virtual clocks must also agree.
        The program runs twice, so rank programs must tolerate
        re-execution from scratch.
    service_order :
        Order in which runnable ranks are advanced per scheduling round:
        ``"ascending"`` (default) or ``"descending"``.  Deterministic
        numerics must not depend on it; ``verify=True`` checks exactly
        that.
    warn_orphans :
        Emit an :class:`OrphanMessageWarning` when messages remain
        undelivered after every rank finished (see
        :func:`repro.analysis.commcheck.find_orphans`); the structured
        report is kept in :attr:`orphans` either way.
    fault_plan :
        Optional :class:`~repro.parallel.faults.FaultPlan`.  When set,
        crash rules throw :class:`~repro.parallel.faults.RankFailure`
        into the matching rank programs, message rules drop / duplicate /
        delay / corrupt matching sends, and :attr:`resilience` records
        every injection and recovery action.  When ``None`` (default)
        the fault hooks are never entered and results and virtual clocks
        are byte-identical to the plain scheduler.
    tracer :
        Optional :class:`repro.obs.Tracer`.  When attached, every run
        records virtual-time spans per rank (``compute`` / ``work`` /
        ``wait:recv``), ``send`` / ``recv`` instants, fault-injection
        and recovery instants, and folds the rank programs'
        ``begin:<x>`` / ``end:<x>`` annotations into named phase spans
        — one Perfetto thread per rank after export.  The default is
        the zero-cost no-op tracer; virtual clocks and results are
        identical either way.
    executor :
        Optional :class:`repro.parallel.executor.ExecutionBackend`
        handling :class:`~repro.parallel.executor.Compute` operations.
        An *inline* backend (:class:`~repro.parallel.executor.
        SerialExecutor`) runs each task at the yield point — results and
        virtual clocks are byte-identical to ``executor=None`` runs of a
        program that never yields ``Compute``.  A non-inline backend
        (:class:`~repro.parallel.executor.ProcessExecutor`) makes the
        service loop a ``ready-set -> dispatch -> barrier`` pipeline:
        ``Compute``-blocked ranks accumulate while the event loop drains
        every other runnable rank, and when no further progress is
        possible the whole batch is dispatched to worker processes at
        once.  Results and (with ``measure_compute=False``) virtual
        clocks remain byte-identical between backends; worker metric
        deltas are merged into :attr:`metrics` sorted by worker id at
        the end of the run, alongside ``executor.dispatches`` /
        ``executor.shm_bytes`` / ``executor.batch_width`` instruments.
        With a backend that ``requires_pickling``, unpicklable *message*
        payloads raise :class:`~repro.parallel.executor.
        PayloadPicklingError` instead of the advisory size warning.
    certify :
        When True, the scheduler stamps every message with a scalar send
        stamp and logs every send/delivery in per-rank program order —
        one list append per event on the hot path; the **vector
        clocks** of the happens-before DAG are reconstructed offline
        from that log after the run.  Then,
        :func:`repro.analysis.commgraph.hb.build_certificate` derives a
        :class:`~repro.analysis.commgraph.hb.DeterminismCertificate`
        (service-order-independent clock digest + per-channel census,
        kept in :attr:`certificate` and in the ``comm.certificate``
        metric) and flags **message races**: deliveries on one exact
        ``(src, dst, tag)`` channel whose send events are not ordered by
        happens-before — e.g. fault-injected duplicates.  With
        ``verify=True`` the replay's digest must match the primary's.
        When False (default) the clock plumbing is never entered and
        message streams are byte-identical to the plain scheduler.

    Attributes
    ----------
    metrics :
        A :class:`repro.obs.MetricsRegistry` owned by the scheduler,
        repopulated on every :meth:`run`: ``mpi.messages`` /
        ``mpi.bytes`` (global and per ``{src,dest}`` pair) and
        ``mpi.retransmissions``.  The legacy ``stats_messages`` /
        ``stats_bytes`` integers remain as fast aliases.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: CommCostModel | None = None,
        measure_compute: bool = True,
        verify: bool = False,
        service_order: str = "ascending",
        warn_orphans: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        executor: Optional[ExecutionBackend] = None,
        certify: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least 1 rank, got {n_ranks}")
        if service_order not in ("ascending", "descending"):
            raise ValueError(
                f"service_order must be 'ascending' or 'descending', "
                f"got {service_order!r}"
            )
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CommCostModel()
        self.measure_compute = measure_compute
        self.verify = verify
        self.service_order = service_order
        self.warn_orphans = warn_orphans
        self.fault_plan = fault_plan
        self.tracer: Tracer | NullTracer = tracer or NULL_TRACER
        self.executor = executor
        self.certify = certify
        self._strict_payloads = (
            executor is not None and executor.requires_pickling
        )
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run state; called from ``__init__`` and ``run``.

        A ``Scheduler`` instance may be reused: each ``run()`` starts
        from zeroed clocks, statistics, trace, channels and fault state
        rather than silently accumulating the previous run's.
        """
        self.clocks: List[float] = [0.0] * self.n_ranks
        #: messages in flight / delivered, FIFO per (src, dest, tag)
        self._channels: Dict[Tuple[int, int, Hashable], deque] = defaultdict(
            deque
        )
        self.stats_messages = 0
        self.stats_bytes = 0
        #: per-run message/byte/retransmission instruments
        self.metrics = MetricsRegistry()
        #: annotated timeline instants (populated by Annotate ops)
        self.trace: List[TraceEvent] = []
        #: undelivered-message report of the last completed run
        self.orphans: List[Any] = []
        #: injected faults and recovery actions of the last run
        self.resilience = ResilienceReport()
        #: pristine copies of dropped/corrupted messages for retransmit
        self._shadow: Dict[Tuple[int, int, Hashable], deque] = defaultdict(
            deque
        )
        #: certificate of the last completed ``certify=True`` run
        self.certificate: Optional[Any] = None
        #: per-rank program-order event logs (certify only): an ``int``
        #: entry is a send stamp, a tuple entry is the raw delivery
        #: record ``(src, dst, tag, send_stamp, None, sent, t)``; vector
        #: clocks are reconstructed from these offline, keeping the hot
        #: path to one list append per event
        self._events: Optional[List[List[Any]]] = (
            [[] for _ in range(self.n_ranks)] if self.certify else None
        )
        #: monotonically increasing send-stamp counter (certify only)
        self._send_counter = 0
        #: vector-clocked delivery records ``(src, dst, tag, send_vc,
        #: recv_vc_after, sent, t)``, populated by the certificate's
        #: offline reconstruction — plain tuples so commgraph stays a
        #: lazy import
        self._deliveries: List[Tuple[Any, ...]] = []
        #: wire-message census per exact channel (certify only)
        self._census: Dict[Tuple[int, int, Hashable], int] = {}
        #: (rank, task) pairs awaiting the next dispatch barrier
        self._compute_queue: List[Tuple[int, ComputeTask]] = []
        #: ledger owner per rank, unique to this run so nothing paid for
        #: in an earlier run is free in this one (``measure_compute``)
        self._owners: Optional[List[Tuple[int, int]]] = None
        if self.measure_compute:
            run_id = new_run_id()
            self._owners = [(run_id, r) for r in range(self.n_ranks)]
        if self.executor is not None:
            self.executor.reset_run()
        #: operations yielded per rank (crash triggers, diagnostics)
        self.op_counts: List[int] = [0] * self.n_ranks
        #: uncaught RankFailure per crashed rank
        self._crashed: Dict[int, RankFailure] = {}
        self._faults: Optional[FaultRuntime] = (
            FaultRuntime(self.fault_plan, self.resilience)
            if self.fault_plan is not None
            else None
        )
        self._sanitize_recv = False
        if self.fault_plan is not None:
            from repro.analysis.sanitize import enabled as _sanitize_enabled

            self._sanitize_recv = _sanitize_enabled()

    # ------------------------------------------------------------------
    def run(self, program: RankProgram, args: Tuple = ()) -> List[Any]:
        """Execute ``program(comm, *args)`` on every rank; return results.

        With ``verify=True`` the program is executed a second time under
        the reversed rank-service order on a scratch scheduler and the
        two result lists must freeze to identical bytes.
        """
        self._reset_run_state()
        try:
            results = self._run_pass(program, args)
        finally:
            LEDGER.owner = None
            LEDGER.drain()
            if self._faults is not None:
                # per-rule activation counts (zero-activation rules are
                # worth surfacing) — folded even when the run fails
                self.resilience.rule_activations = (
                    self._faults.activation_summary()
                )
        if self.executor is not None:
            # deterministic fold of per-worker compute metrics deltas
            self.executor.collect_into(self.metrics)
        if self.certify:
            self._build_certificate()
        self._report_orphans()
        if self.tracer.enabled:
            self._trace_resilience()
        active = get_metrics()
        if active.enabled and active is not self.metrics:
            active.merge(self.metrics)
        if self.verify:
            self._verify_replay(program, args, results)
        return results

    def _run_pass(self, program: RankProgram, args: Tuple) -> List[Any]:
        states: List[_RankState] = []
        for rank in range(self.n_ranks):
            comm = VirtualComm(rank, self.n_ranks, self)
            gen = program(comm, *args)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "rank program must be a generator function "
                    "(use 'yield comm.send(...)' style)"
                )
            states.append(_RankState(gen=gen, comm=comm))

        descending = self.service_order == "descending"
        pending = set(range(self.n_ranks))
        while pending:
            progressed = False
            for rank in sorted(pending, reverse=descending):
                state = states[rank]
                if state.compute_pending is not None:
                    continue  # parked until the dispatch barrier
                if state.blocked_on is not None:
                    if not self._try_unblock(rank, state):
                        continue
                throw, state.pending_throw = state.pending_throw, None
                self._advance(rank, state, throw=throw)
                progressed = True
                if state.finished:
                    pending.discard(rank)
            if not progressed:
                # ready-set exhausted: flush the accumulated compute
                # batch through the execution backend (barrier), then
                # let a timed-out receive expire (retransmit or
                # RecvTimeout) — lazy timeouts
                if self._flush_compute(states):
                    continue
                if self._expire_one_timeout(states, pending):
                    continue
                self._raise_deadlock(
                    {r: states[r].blocked_on for r in sorted(pending)}
                )
        if self._crashed:
            first = self._crashed[min(self._crashed)]
            raise RankFailure(
                first.rank,
                first.time,
                detail=(
                    "crash was not handled by the rank program "
                    f"(crashed ranks: {sorted(self._crashed)})"
                ),
            )
        return [states[r].result for r in range(self.n_ranks)]

    # ------------------------------------------------------------------
    def _raise_deadlock(
        self, blocked: Dict[int, Optional[Tuple[int, Hashable]]]
    ) -> None:
        from repro.analysis.commcheck import WaitForGraph

        edges = {r: b for r, b in blocked.items() if b is not None}
        graph = WaitForGraph(edges, crashed=frozenset(self._crashed))
        message = (
            f"simulated MPI deadlock; blocked ranks: {blocked}\n"
            + graph.render()
        )
        if self._faults is not None:
            dropped = [
                ev for ev in self.resilience.injected if ev.kind == "drop"
            ]
            if dropped:
                message += "\nmessages dropped by fault injection:\n" + (
                    "\n".join("  " + ev.render() for ev in dropped)
                )
        if self._crashed:
            # a crashed rank is the root cause, not the deadlock itself
            first = self._crashed[min(self._crashed)]
            raise RankFailure(
                first.rank, first.time,
                detail="crash left the remaining ranks blocked\n" + message,
            )
        raise DeadlockError(message)

    def _report_orphans(self) -> None:
        from repro.analysis.commcheck import find_orphans

        self.orphans = find_orphans(self._channels)
        if self.orphans and self.resilience.recovered:
            # messages abandoned by a recovery protocol (a retag-and-redo
            # after a crash) are an expected byproduct, not a protocol
            # mismatch — keep the structured report, skip the warning
            return
        if self.orphans and self.warn_orphans:
            report = "\n".join(o.render() for o in self.orphans)
            warnings.warn(
                "simulated MPI program exited with undelivered messages "
                f"(protocol mismatch?):\n{report}",
                OrphanMessageWarning,
                stacklevel=3,
            )

    def _build_certificate(self) -> None:
        """Derive the run's happens-before certificate (certify only)."""
        from repro.analysis.commgraph.hb import (
            build_certificate,
            reconstruct_vector_clocks,
        )

        deliveries, clocks = reconstruct_vector_clocks(
            self.n_ranks, self._events or []
        )
        self._deliveries = deliveries
        cert = build_certificate(
            self.n_ranks, deliveries, self._census, clocks,
        )
        self.certificate = cert
        self.metrics.counter("comm.certificate", digest=cert.digest).inc()
        self.metrics.counter("comm.races").inc(len(cert.races))

    def _verify_replay(
        self, program: RankProgram, args: Tuple, primary: List[Any]
    ) -> None:
        from repro.analysis.commcheck import VerificationError, compare_replays

        replay = Scheduler(
            self.n_ranks,
            cost_model=self.cost_model,
            measure_compute=self.measure_compute,
            service_order=(
                "descending" if self.service_order == "ascending"
                else "ascending"
            ),
            warn_orphans=False,
            # the plan's pseudo-randomness is hash-derived from message
            # identity, so the replay sees identical injections
            fault_plan=self.fault_plan,
            # replay determinism is about op streams, not wall-clock:
            # dispatched tasks re-run inline on a serial twin sharing
            # the payload registry
            executor=(
                self.executor.serial_clone()
                if self.executor is not None else None
            ),
            certify=self.certify,
        )
        replay_results = replay._run_pass(program, args)
        compare_replays(
            primary, replay_results,
            detail=f"service orders: {self.service_order} vs "
                   f"{replay.service_order}",
        )
        if not self.measure_compute:
            compare_replays(
                self.clocks, replay.clocks,
                detail="virtual clocks diverged under the replay order",
            )
        if self.certify:
            replay._build_certificate()
            if replay.certificate.digest != self.certificate.digest:
                raise VerificationError(
                    "determinism certificate diverged under the replay "
                    f"service order: {self.certificate.digest} vs "
                    f"{replay.certificate.digest}"
                )

    # ------------------------------------------------------------------
    def _try_unblock(self, rank: int, state: _RankState) -> bool:
        source, tag = state.blocked_on  # type: ignore[misc]
        channel = self._channels.get((source, rank, tag))
        if not channel:
            return False
        msg: _Message = channel.popleft()
        if msg.checksum is not None or self._sanitize_recv:
            verdict = self._payload_verdict(msg)
            if verdict is not None:
                return self._recover_corruption(
                    rank, state, source, tag, msg, verdict
                )
        t_blocked = self.clocks[rank]
        self.clocks[rank] = max(self.clocks[rank], msg.arrival)
        if self._events is not None:
            # _record_delivery inlined on the delivery hot path
            self._events[rank].append(
                (source, rank, tag, msg.vc, None, msg.sent,
                 self.clocks[rank])
            )
        if self.tracer.enabled:
            track = f"rank{rank}"
            if self.clocks[rank] > t_blocked:
                self.tracer.vspan(
                    "wait:recv", t_blocked, self.clocks[rank], track=track,
                    cat="comm", args={"source": source, "tag": str(tag)},
                )
            self.tracer.instant(
                "recv", t=self.clocks[rank], track=track, cat="comm",
                args={"source": source, "tag": str(tag)},
            )
        state.blocked_on = None
        state.recv_op = None
        state.send_value = msg.payload
        return True

    def _payload_verdict(self, msg: _Message) -> Optional[str]:
        """None when the payload is intact, else a diagnostic string."""
        if (
            msg.checksum is not None
            and payload_checksum(msg.payload) != msg.checksum
        ):
            return "payload checksum mismatch (injected corruption)"
        if self._sanitize_recv:
            from repro.analysis.sanitize import SanitizeError, check_payload

            try:
                check_payload("recv", msg.payload)
            except SanitizeError as exc:
                return f"sanitizer rejected payload: {exc}"
        return None

    def _recover_corruption(
        self,
        rank: int,
        state: _RankState,
        source: int,
        tag: Hashable,
        msg: _Message,
        verdict: str,
    ) -> bool:
        """Bounded retransmit of a corrupted message from the shadow copy."""
        t_detect = max(self.clocks[rank], msg.arrival)
        self.resilience.recovered.append(
            FaultEvent(
                kind="corruption-detected", time=t_detect, rank=rank,
                source=source, dest=rank, tag=tag, detail=verdict,
            )
        )
        recv_op = state.recv_op
        shadow = self._shadow.get((source, rank, tag))
        if recv_op is not None and state.retries_left > 0 and shadow:
            pristine: _Message = shadow.popleft()
            state.retries_left -= 1
            cost = recv_op.backoff + self.cost_model.transfer_time(
                payload_bytes(pristine.payload)
            )
            self.clocks[rank] = t_detect + cost
            self._record_delivery(rank, source, tag, pristine)
            self.metrics.counter("mpi.retransmissions").inc()
            self.resilience.recovered.append(
                FaultEvent(
                    kind="retransmit", time=self.clocks[rank], rank=rank,
                    source=source, dest=rank, tag=tag, cost=cost,
                    detail="pristine copy delivered after corruption",
                )
            )
            state.blocked_on = None
            state.recv_op = None
            state.send_value = pristine.payload
            return True
        detail = verdict
        if recv_op is None or recv_op.retries == 0:
            detail += "; receive specified no retries"
        elif not shadow:
            detail += "; no pristine copy available for retransmit"
        else:
            detail += f"; {recv_op.retries} retransmit attempt(s) exhausted"
        raise CorruptionError(rank, source, tag, t_detect, detail)

    def _expire_one_timeout(self, states: List[_RankState],
                            pending: set) -> bool:
        """Expire one timed-out receive at a global stall.

        Returns True when a receive was resolved (by shadow-copy
        retransmit or by throwing :class:`RecvTimeout` into the
        program), so the scheduling loop can continue.  Victim choice
        is deterministic and independent of ``service_order``:

        1. A receive that can *retransmit* (pristine shadow copy of a
           dropped/corrupted message available, retries left) is always
           preferred — retransmission is silent and side-effect free.
           Ties break rank-ascending.
        2. Otherwise :class:`RecvTimeout` is thrown into the receive
           with the *smallest timeout value* (then earliest deadline,
           then lowest rank).  Failure-detection receives are posted
           with short timeouts and protocol collectives with long ones,
           so the detection point designed to catch the exception fires
           before a collective leg that cannot.
        """
        retransmit_rank: Optional[int] = None
        throw_key: Optional[Tuple[float, float, int]] = None
        for rank in sorted(pending):
            state = states[rank]
            if state.blocked_on is None or state.recv_op is None:
                continue
            recv_op = state.recv_op
            if recv_op.timeout is None:
                continue
            source, tag = state.blocked_on
            shadow = self._shadow.get((source, rank, tag))
            if shadow and state.retries_left > 0:
                if retransmit_rank is None:
                    retransmit_rank = rank
                continue
            key = (recv_op.timeout, self.clocks[rank] + recv_op.timeout, rank)
            if throw_key is None or key < throw_key:
                throw_key = key
        if retransmit_rank is not None:
            rank = retransmit_rank
            state = states[rank]
            recv_op = state.recv_op
            source, tag = state.blocked_on
            self.clocks[rank] += recv_op.timeout
            pristine: _Message = self._shadow[(source, rank, tag)].popleft()
            state.retries_left -= 1
            cost = recv_op.backoff + self.cost_model.transfer_time(
                payload_bytes(pristine.payload)
            )
            self.clocks[rank] += cost
            self._record_delivery(rank, source, tag, pristine)
            self.metrics.counter("mpi.retransmissions").inc()
            self.resilience.recovered.append(
                FaultEvent(
                    kind="retransmit", time=self.clocks[rank],
                    rank=rank, source=source, dest=rank, tag=tag,
                    cost=recv_op.timeout + cost,
                    detail="lost message recovered after timeout",
                )
            )
            state.blocked_on = None
            state.recv_op = None
            state.send_value = pristine.payload
            self._advance(rank, state)
        elif throw_key is not None:
            rank = throw_key[2]
            state = states[rank]
            recv_op = state.recv_op
            source, tag = state.blocked_on
            self.clocks[rank] += recv_op.timeout
            self.resilience.recovered.append(
                FaultEvent(
                    kind="timeout", time=self.clocks[rank], rank=rank,
                    source=source, dest=rank, tag=tag,
                    cost=recv_op.timeout,
                    detail="no message and nothing to retransmit",
                )
            )
            exc = RecvTimeout(rank, source, tag, self.clocks[rank])
            state.blocked_on = None
            state.recv_op = None
            self._advance(rank, state, throw=exc)
        else:
            return False
        if state.finished:
            pending.discard(rank)
        return True

    def _advance(
        self,
        rank: int,
        state: _RankState,
        throw: Optional[BaseException] = None,
    ) -> None:
        """Resume a runnable rank until it blocks or finishes.

        ``throw`` injects an exception (crash, receive timeout) into the
        generator instead of sending a value on the first resume.
        """
        if self._owners is not None:
            LEDGER.owner = self._owners[rank]
        while True:
            if self._faults is not None and throw is None:
                crash = self._faults.crash_due(
                    rank, self.op_counts[rank], self.clocks[rank]
                )
                if crash is not None:
                    throw = RankFailure(rank, self.clocks[rank])
                    self.resilience.injected.append(
                        FaultEvent(
                            kind="crash", time=self.clocks[rank], rank=rank,
                            detail=(
                                f"after_ops={crash.after_ops} "
                                f"at_time={crash.at_time}"
                            ),
                        )
                    )
            t_wall = time.perf_counter()
            try:
                if throw is not None:
                    exc, throw = throw, None
                    op = state.gen.throw(exc)
                    if isinstance(exc, RankFailure):
                        self.resilience.recovered.append(
                            FaultEvent(
                                kind="crash-handled", time=self.clocks[rank],
                                rank=rank,
                                detail="rank program caught RankFailure",
                            )
                        )
                else:
                    op = state.gen.send(state.send_value)
            except StopIteration as stop:
                self._charge_compute(rank, t_wall)
                state.finished = True
                state.result = stop.value
                return
            except RankFailure as failure:
                # the program did not catch the crash: the rank is dead
                self._charge_compute(rank, t_wall)
                state.finished = True
                state.result = failure
                self._crashed[rank] = failure
                self.resilience.recovered.append(
                    FaultEvent(
                        kind="crash-uncaught", time=self.clocks[rank],
                        rank=rank, detail="rank died (policy: fail)",
                    )
                )
                return
            self._charge_compute(rank, t_wall)
            state.send_value = None

            self.op_counts[rank] += 1
            if isinstance(op, Compute):
                if self.executor is None:
                    raise TypeError(
                        f"rank {rank} yielded a Compute operation but the "
                        "scheduler has no execution backend; construct "
                        "Scheduler(..., executor=SerialExecutor()) or run "
                        "without dispatch"
                    )
                task = op.task
                if self._owners is not None:
                    task = replace(task, owner=self._owners[rank])
                if self.executor.inline:
                    result = self.executor.execute(task)
                    self._account_compute(rank, task, result)
                    if result.error is not None:
                        throw = result.error
                        continue
                    state.send_value = result.value
                    continue
                # non-inline: park the rank until the dispatch barrier
                state.compute_pending = task
                self._compute_queue.append((rank, task))
                return
            if isinstance(op, Send):
                if self._faults is not None:
                    self._faulty_send(rank, op)
                    continue
                nbytes = self._message_bytes(rank, op)
                self.clocks[rank] += self.cost_model.send_overhead
                arrival = self.clocks[rank] + self.cost_model.transfer_time(nbytes)
                if self._events is None:
                    vc = None
                else:
                    # _stamp_send inlined on the eager-send hot path
                    self._send_counter = vc = self._send_counter + 1
                    self._events[rank].append(vc)
                self._channels[(rank, op.dest, op.tag)].append(
                    _Message(payload=op.payload, arrival=arrival,
                             sent=self.clocks[rank], vc=vc)
                )
                self._count_message(rank, op.dest, op.tag, nbytes, arrival)
                continue  # eager send: keep running this rank
            if isinstance(op, Recv):
                state.blocked_on = (op.source, op.tag)
                state.recv_op = op
                state.retries_left = op.retries
                if self._try_unblock(rank, state):
                    continue
                return
            if isinstance(op, Work):
                t0 = self.clocks[rank]
                self.clocks[rank] += op.seconds
                if self.tracer.enabled and op.seconds > 0:
                    self.tracer.vspan("work", t0, self.clocks[rank],
                                      track=f"rank{rank}", cat="compute")
                continue
            if isinstance(op, Annotate):
                self.trace.append(
                    TraceEvent(rank=rank, label=op.label,
                               time=self.clocks[rank], data=op.data)
                )
                if self.tracer.enabled:
                    self.tracer.annotate(f"rank{rank}", op.label,
                                         self.clocks[rank], data=op.data)
                continue
            raise TypeError(
                f"rank {rank} yielded unsupported operation {op!r}"
            )

    def _message_bytes(self, rank: int, op: Send) -> int:
        """On-wire size of a send; strict under a process backend."""
        if not self._strict_payloads:
            return payload_bytes(op.payload)
        try:
            return payload_bytes(op.payload, strict=True)
        except PayloadPicklingError as exc:
            raise PayloadPicklingError(
                exc.type_name, rank=rank, dest=op.dest, tag=op.tag,
                cause=exc.__cause__,
            ) from exc

    def _flush_compute(self, states: List[_RankState]) -> bool:
        """Dispatch the parked compute batch through the backend.

        Called only when the ready set is empty, so the batch is the
        *maximal* set of concurrently runnable tasks the event loop
        could prove — the ``ready-set -> dispatch -> barrier`` phase.
        Results are written back (values as resume arguments, errors as
        injected exceptions) before any virtual clock advances past the
        barrier.  Returns True when a batch ran.
        """
        if not self._compute_queue:
            return False
        batch, self._compute_queue = self._compute_queue, []
        results = self.executor.dispatch([task for _, task in batch])
        for ev in self.executor.drain_events():
            # backend-side recovery (pool respawn + batch re-dispatch)
            # surfaces in the run's resilience report, stamped with the
            # virtual time of the dispatch barrier
            self.resilience.recovered.append(
                FaultEvent(
                    kind=ev.get("kind", "pool-respawn"),
                    time=max(self.clocks) if self.clocks else 0.0,
                    detail=ev.get("detail", ""),
                )
            )
        self.metrics.histogram("executor.batch_width").observe(len(batch))
        for (rank, task), result in zip(batch, results):
            state = states[rank]
            state.compute_pending = None
            self._account_compute(rank, task, result)
            if result.error is not None:
                state.pending_throw = result.error
            else:
                state.send_value = result.value
        return True

    def _account_compute(
        self, rank: int, task: ComputeTask, result: DispatchResult
    ) -> None:
        """Clock charge, metrics and trace spans for one executed task."""
        self.metrics.counter(
            "executor.dispatches", backend=self.executor.name
        ).inc()
        self.metrics.counter(
            "executor.dispatches", payload=task.payload, method=task.method
        ).inc()
        if result.shm_bytes:
            self.metrics.counter("executor.shm_bytes").inc(result.shm_bytes)
        if self.measure_compute and result.elapsed > 0:
            t0 = self.clocks[rank]
            self.clocks[rank] += (
                (result.elapsed + result.billed_s)
                * self.cost_model.compute_scale
            )
            if self.tracer.enabled:
                self.tracer.vspan(
                    "compute", t0, self.clocks[rank], track=f"rank{rank}",
                    cat="compute",
                    args={"payload": task.payload, "method": task.method},
                )
        if self.tracer.enabled:
            # genuine wall-clock overlap: one Perfetto thread per worker
            self.tracer.wspan(
                f"{task.payload}.{task.method}",
                result.wall_t0, result.wall_t1,
                track=f"worker{result.worker}", cat="executor",
                args={"rank": rank, "backend": self.executor.name},
            )

    def _faulty_send(self, rank: int, op: Send) -> None:
        """Send path with the fault plan's disposition applied."""
        disp = self._faults.on_send(rank, op.dest, op.tag)
        nbytes = self._message_bytes(rank, op)
        self.clocks[rank] += self.cost_model.send_overhead
        arrival = (
            self.clocks[rank]
            + self.cost_model.transfer_time(nbytes)
            + disp.extra_delay
        )
        # one logical send event: shadow copies and injected duplicates
        # all carry the same send stamp, so their reconstructed vector
        # clocks are *equal* under happens-before — what certify flags
        sent_t = self.clocks[rank]
        send_vc = self._stamp_send(rank)
        self._count_message(rank, op.dest, op.tag, nbytes, arrival)
        if disp.extra_delay:
            self.resilience.injected.append(
                FaultEvent(
                    kind="delay", time=self.clocks[rank], source=rank,
                    dest=op.dest, tag=op.tag,
                    detail=f"arrival postponed by {disp.extra_delay:.9g}s",
                )
            )
        if disp.drop:
            # keep the pristine copy for link-layer retransmission
            self._shadow[(rank, op.dest, op.tag)].append(
                _Message(payload=op.payload, arrival=arrival,
                         sent=sent_t, vc=send_vc)
            )
            self.resilience.injected.append(
                FaultEvent(
                    kind="drop", time=self.clocks[rank], source=rank,
                    dest=op.dest, tag=op.tag,
                )
            )
            return
        payload = op.payload
        checksum = None
        if disp.corrupt:
            checksum = payload_checksum(payload)
            self._shadow[(rank, op.dest, op.tag)].append(
                _Message(payload=payload, arrival=arrival, checksum=checksum,
                         sent=sent_t, vc=send_vc)
            )
            payload = corrupt_payload(payload, disp.key)
            self.resilience.injected.append(
                FaultEvent(
                    kind="corrupt", time=self.clocks[rank], source=rank,
                    dest=op.dest, tag=op.tag,
                    detail="bit-level payload corruption",
                )
            )
        message = _Message(payload=payload, arrival=arrival,
                           checksum=checksum, sent=sent_t, vc=send_vc)
        self._channels[(rank, op.dest, op.tag)].append(message)
        for _ in range(disp.duplicates):
            self._channels[(rank, op.dest, op.tag)].append(message)
            self._count_message(rank, op.dest, op.tag, nbytes, arrival)
            self.resilience.injected.append(
                FaultEvent(
                    kind="duplicate", time=self.clocks[rank], source=rank,
                    dest=op.dest, tag=op.tag,
                )
            )

    def _charge_compute(self, rank: int, t_start: float) -> None:
        if self.measure_compute:
            elapsed = time.perf_counter() - t_start
            if LEDGER.billed_s:
                elapsed += LEDGER.drain()
            if elapsed > 0:
                t0 = self.clocks[rank]
                self.clocks[rank] += elapsed * self.cost_model.compute_scale
                if self.tracer.enabled:
                    self.tracer.vspan("compute", t0, self.clocks[rank],
                                      track=f"rank{rank}", cat="compute")

    def _stamp_send(self, rank: int) -> Optional[int]:
        """Log a send event; return its scalar stamp (certify only).

        The stamp is a globally unique sequence number — just enough
        for the offline reconstruction to identify the send event; no
        vector clock is touched on the hot path.  (The eager-send fast
        path inlines this; only fault-injection paths call it.)
        """
        if self._events is None:
            return None
        self._send_counter = seq = self._send_counter + 1
        self._events[rank].append(seq)
        return seq

    def _record_delivery(self, rank: int, source: int, tag: Hashable,
                         msg: _Message) -> None:
        """Log a delivery event (certify only).

        The record is a plain tuple ``(src, dst, tag, send_stamp, None,
        sent_time, deliver_time)`` so the commgraph subsystem stays a
        lazy import of the scheduler; :func:`repro.analysis.commgraph.
        hb.reconstruct_vector_clocks` later replays the event logs and
        fills the send/recv vector clocks.  (The healthy delivery fast
        path inlines this; only corruption-recovery paths call it.)
        """
        if self._events is None:
            return
        self._events[rank].append(
            (source, rank, tag, msg.vc, None, msg.sent, self.clocks[rank])
        )

    def _count_message(self, src: int, dest: int, tag: Hashable,
                       nbytes: int, arrival: float) -> None:
        """Account one sent message (counters, tracer instant)."""
        self.stats_messages += 1
        self.stats_bytes += nbytes
        if self.certify:
            key = (src, dest, tag)
            self._census[key] = self._census.get(key, 0) + 1
        self.metrics.counter("mpi.messages").inc()
        self.metrics.counter("mpi.bytes").inc(nbytes)
        self.metrics.counter("mpi.messages", src=src, dest=dest).inc()
        self.metrics.counter("mpi.bytes", src=src, dest=dest).inc(nbytes)
        if self.tracer.enabled:
            self.tracer.instant(
                "send", t=self.clocks[src], track=f"rank{src}", cat="comm",
                args={"dest": dest, "tag": str(tag), "bytes": nbytes,
                      "arrival": arrival},
            )

    def _trace_resilience(self) -> None:
        """Mirror the run's fault/recovery events onto the trace."""
        for cat, events in (("fault", self.resilience.injected),
                            ("recovery", self.resilience.recovered)):
            for ev in events:
                owner = ev.rank if ev.rank is not None else ev.source
                track = f"rank{owner}" if owner is not None else "main"
                args: Dict[str, Any] = {}
                for key in ("source", "dest", "tag", "detail", "cost"):
                    value = getattr(ev, key, None)
                    if value is not None:
                        args[key] = (str(value) if key == "tag" else value)
                self.tracer.instant(ev.kind, t=ev.time, track=track,
                                    cat=cat, args=args or None)

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Virtual wall-clock of the whole run (max over rank clocks)."""
        return max(self.clocks)
