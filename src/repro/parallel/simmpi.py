"""Deterministic discrete-event simulated MPI.

The paper's Fig. 8 runs PFASST with ``P_T`` MPI ranks along the time axis on
a Blue Gene/P.  Here each rank is a Python *generator* that yields
communication operations; a scheduler matches sends to receives, advances
per-rank **virtual clocks**, and thereby measures the parallel wall-clock
the same program would need on a message-passing machine:

* compute time   — real ``perf_counter`` time a rank spends between yields,
  plus explicit ``work(seconds)`` charges for modelled costs;
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
``fault_plan`` and its fault layer has :class:`~repro.parallel.faults.
RankFailure` thrown into crashing rank programs, drops / duplicates /
delays / corrupts matching messages, and logs it all in a
:class:`~repro.parallel.faults.ResilienceReport` (``scheduler.resilience``).
Receives accept ``timeout=`` / ``retries=`` for link-layer recovery: a
lost or corrupted message is retransmitted from the layer's pristine
shadow copy (bounded by ``retries``), and a receive that can never be
satisfied raises :class:`~repro.parallel.faults.RecvTimeout` into the
program instead of deadlocking.  Timeouts are *lazy*: they fire only when
the scheduler has proven that nothing else can progress, so never
spuriously.  With no plan installed the same send and receive paths run
and are byte-identical to the plain scheduler.

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
import warnings
from collections import defaultdict, deque, namedtuple
from dataclasses import dataclass, replace
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.ledger import LEDGER, new_run_id
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
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
    Channel,
    CorruptionError,
    FaultEvent,
    FaultPlan,
    FaultRuntime,
    RankFailure,
    RecvTimeout,
    ResilienceReport,
    SendDisposition,
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

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.send_overhead < 0:
            raise ValueError(
                f"send_overhead must be >= 0, got {self.send_overhead}"
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


def _pickle_signature(payload: Any) -> Optional[Tuple[Any, ...]]:
    """What fixes the pickled length of a list or tuple of plain arrays
    (see docs/architecture.md, "Message bytes"); ``None`` for any other
    payload.  Pickle memoises repeated objects, hence the first-seen
    index of each item and dtype object."""
    if type(payload) is not list and type(payload) is not tuple:
        return None
    seen: Dict[int, int] = {}
    signature: List[Any] = [type(payload)]
    for item in payload:
        if type(item) is not np.ndarray:
            return None
        dtype, flags = item.dtype, item.flags
        if dtype.isbuiltin != 1 or dtype.hasobject:
            return None
        signature.append((
            item.shape, dtype, flags.c_contiguous, flags.f_contiguous,
            flags.writeable, seen.setdefault(id(item), len(seen)),
            seen.setdefault(id(dtype), len(seen)),
        ))
    return tuple(signature)


# -- operations a rank program may yield -----------------------------------
class _Record(tuple):
    """Base of the op records: a named tuple, built in one step.

    A record is immutable and equal only to a record of its own type with
    equal fields (``Work(1.0)`` is not the tuple ``(1.0,)``).
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Send(namedtuple("Send", "dest tag payload"), _Record):
    """Post ``payload`` to ``dest`` on ``tag`` (eager: the sender goes on)."""

    __slots__ = ()


class Recv(namedtuple("Recv", "source tag timeout retries",
                      defaults=(None, 0)), _Record):
    """Block until the next message from ``source`` on ``tag`` arrives.

    ``timeout`` is the virtual-second budget after which the receive
    gives up (lazy: it only expires when the scheduler has proven no
    progress is possible); ``retries`` bounds the retransmit attempts
    for lost or corrupted messages.
    """

    __slots__ = ()


class Work(namedtuple("Work", "seconds"), _Record):
    """Charge ``seconds`` of *modelled* compute time to the rank's clock."""

    __slots__ = ()


class Annotate(namedtuple("Annotate", "label data", defaults=(None,)),
               _Record):
    """Record a labelled instant on the rank's virtual timeline.

    Used to reconstruct schedule diagrams (paper Fig. 6): a rank program
    yields ``comm.annotate("begin:sweep")`` / ``comm.annotate("end:sweep")``
    around its phases.  The scheduler stores nothing: it hands each
    label, with the rank's virtual time, to the attached
    :class:`repro.obs.Tracer` (:meth:`~repro.obs.Tracer.annotate`),
    which folds ``begin:<label>`` / ``end:<label>`` pairs into
    virtual-time ``phase`` spans and keeps other labels as instants.
    ``data`` is an optional structured payload forwarded to the tracer
    (residuals, ...).  Without a tracer the op still counts as an op
    (crash triggers, the operation budget) and records nothing.
    """

    __slots__ = ()


#: builds a record from a tuple of all its fields in one C call, the
#: constructor of the hot paths
_new = tuple.__new__

#: a message on the wire: ``checksum`` is the pristine payload's, set
#: only on fault-injected channels; ``sent`` the sender's virtual clock
#: at the send instant (orphan diagnostics); ``send`` the send's index
#: among its sender's events and ``channel`` its channel's run-local
#: id, both set only under ``certify`` (the delivery logs them)
_Message = namedtuple("_Message", "payload arrival checksum sent send channel",
                      defaults=(None, 0.0, None, None))


class VirtualComm:
    """Per-rank handle: op constructors plus rank/size/clock introspection.

    Rank programs *yield* the operations::

        yield comm.send(dest, tag, payload)
        value = yield comm.recv(source, tag)
        yield comm.work(0.01)

    A view of this comm (:class:`SubComm`, :class:`EpochComm`) routes
    in one hop: it carries the world rank of each member and the chain
    of views whose heads wrap a tag, so ``send`` / ``recv`` on a view
    nested any number of levels deep validate the peer once, look up
    its world rank once and wrap the tag once per enclosing view.
    """

    def __init__(self, rank: int, size: int, scheduler: "Scheduler") -> None:
        self.rank = rank
        self.size = size
        self._scheduler = scheduler
        #: collective-call counter giving each ``split`` a distinct comm id;
        #: consistent across ranks because splits are collective (every
        #: member calls them in the same order, like MPI communicators)
        self._split_seq = 0
        #: this rank's identity in the scheduler world
        self.world_rank = rank
        #: the world rank of each member of this comm
        self._world: Sequence[int] = range(size)
        #: views whose ``_head`` wraps a tag, this comm's first
        self._views: Tuple["_TagView", ...] = ()
        #: receive timeout / retries injected when a call passes none
        self._default_timeout: Optional[float] = None
        self._default_retries = 0
        #: metric handles of :meth:`counter`
        self._counters: Dict[Tuple[str, bool], Counter] = {}

    def send(self, dest: int, tag: Hashable, payload: Any) -> Send:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range 0..{self.size - 1}")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        for view in self._views:
            tag = (view._head, tag)
        return _new(Send, (self._world[dest], tag, payload))

    def recv(
        self,
        source: int,
        tag: Hashable,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> Recv:
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range 0..{self.size - 1}")
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        if timeout is None and self._default_timeout is not None:
            timeout = self._default_timeout
            if retries == 0:
                retries = self._default_retries
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 when given, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        for view in self._views:
            tag = (view._head, tag)
        return _new(Recv, (self._world[source], tag, timeout, retries))

    def work(self, seconds: float) -> Work:
        if seconds < 0:
            raise ValueError(f"work seconds must be >= 0, got {seconds}")
        return Work(seconds)

    def annotate(self, label: str,
                 data: Optional[Dict[str, Any]] = None) -> Annotate:
        return _new(Annotate, (label, data))

    @property
    def clock(self) -> float:
        """Current virtual time of this rank's world rank (seconds)."""
        return self._scheduler.clocks[self.world_rank]

    @property
    def metrics(self) -> MetricsRegistry:
        """The scheduler's per-run metrics registry (for rank programs)."""
        return self._scheduler.metrics

    def counter(self, name: str, per_rank: bool = False) -> Counter:
        """The run's counter ``name`` (with ``per_rank``, its
        ``{rank=<world rank>}`` series), resolved on this comm's first
        call: a call site on the hot path pays one dict lookup."""
        key = (name, per_rank)
        found = self._counters.get(key)
        if found is None:
            labels = {"rank": self.world_rank} if per_rank else {}
            found = self._counters[key] = self.metrics.counter(
                name, **labels
            )
        return found

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

    A tag ``t`` on the view travels as ``(self._head, t)`` on the parent,
    so traffic on different views can never collide even when they share
    scheduler-world rank pairs.  ``world`` maps the view's ranks to world
    ranks; the parent's view chain and receive defaults are composed in
    here once, so an op on the view never goes through the parent.  The
    scheduler itself is untouched.
    """

    _head: Hashable

    def __init__(self, parent: VirtualComm, rank: int,
                 world: Sequence[int]) -> None:
        super().__init__(rank, len(world), parent._scheduler)
        self.world_rank = parent.world_rank
        self._world = world
        self._views = (self,) + parent._views
        self._default_timeout = parent._default_timeout
        self._default_retries = parent._default_retries


class SubComm(_TagView):
    """A sub-communicator produced by :meth:`VirtualComm.split`.

    Ranks map through the member list (ranks of the parent) and tags
    wrap as ``(comm_id, tag)``.
    """

    def __init__(self, parent: VirtualComm, members: List[int], rank: int,
                 comm_id: Hashable) -> None:
        self.members = list(members)
        super().__init__(parent, rank,
                         [parent._world[m] for m in self.members])
        self._head = comm_id


class EpochComm(_TagView):
    """An attempt-stamped view of a communicator for grid recovery.

    Every tag becomes ``(("ftepoch", epoch), tag)`` on the parent.  The
    PFASST controller bumps :attr:`epoch` whenever a recovery attempt
    abandons in-flight collective traffic: partial messages from the
    aborted attempt stay on the old epoch's channels and are orphaned
    instead of being consumed FIFO-style by the redo (space collectives
    such as the branch-exchange ring carry no attempt component of their
    own).

    ``recv`` additionally injects a default ``timeout``/``retries`` when
    the call site passes none, so collectives written for the fault-free
    path become abortable when a row peer dies.  Without a default of
    its own the view keeps its parent's.
    """

    def __init__(self, parent: VirtualComm, timeout: Optional[float] = None,
                 retries: int = 0) -> None:
        super().__init__(parent, parent.rank, parent._world)
        #: monotonically increasing; never reset (inner tags may not
        #: carry a block component, so reuse across blocks would collide)
        self.epoch = 0
        if timeout is not None:
            self._default_timeout = timeout
            self._default_retries = retries

    @property
    def epoch(self) -> int:
        return self._head[1]

    @epoch.setter
    def epoch(self, value: int) -> None:
        self._head = (_tags.FTEPOCH, value)


RankProgram = Callable[[VirtualComm], Generator[Any, Any, Any]]

#: what the link does to a send when no fault plan is installed
_CLEAN = SendDisposition()


@dataclass(slots=True)
class _RankState:
    gen: Generator[Any, Any, Any]
    blocked_on: Optional[Tuple[int, Hashable]] = None
    #: the channel ``blocked_on`` names, held while blocked: the core
    #: loop tries the receive only once something has arrived on it
    inbox: Optional[deque] = None
    finished: bool = False
    result: Any = None
    send_value: Any = None  # value fed into the generator on next resume
    recv_op: Optional[Recv] = None  # full op while blocked (timeout/retries)
    retries_left: int = 0
    #: task awaiting the next dispatch barrier (non-inline executor)
    compute_pending: Optional[ComputeTask] = None
    #: thrown into the generator on its next resume: the error of a
    #: dispatched task, the ``RecvTimeout`` of an expired receive
    pending_throw: Optional[BaseException] = None


class Scheduler:
    """Run ``n_ranks`` rank programs to completion under virtual time.

    Three parts, under one op layer.  The *op layer* is what rank
    programs build: ``Send`` / ``Recv`` / ``Work`` / ``Annotate`` are
    immutable named-tuple records built in one step, and a comm view
    (:class:`SubComm`, :class:`EpochComm`, nested to any depth) checks
    the peer, maps it to its world rank and wraps the tag in one hop.
    The *core loop* (``_service``) advances every runnable rank, round
    after round, in ascending rank order; a rank blocked on a channel
    that has received nothing since it last tried is passed over
    without a poll (it holds that channel, so the check is one
    truthiness test), which changes no advance and no delivery.  When
    none can run it flushes the parked compute batch, expires one
    timed-out receive, or reports the deadlock.  The *resume loop*
    (``_advance``) runs one generator until it blocks, parks or
    finishes, charging the rank's compute in its own loop, and hands
    each yielded operation to its handler: ``_post`` is the
    one path of a send, ``_deliver`` the one end of a receive,
    ``_retransmit`` a ``_deliver`` of a shadow copy.  The *fault layer*
    (:class:`~repro.parallel.faults.FaultRuntime`) exists only under a
    ``fault_plan`` and owns what only a plan brings; clocks, channels,
    lazy timeouts and ``recovered`` events stay here.

    Parameters
    ----------
    n_ranks :
        Number of simulated ranks.
    cost_model :
        Communication/compute cost parameters.
    measure_compute :
        When True (default), real wall time between yields is added to the
        rank's virtual clock.  The clock means "one machine per rank":
        every resume names the rank as the compute owner on
        :data:`repro.obs.ledger.LEDGER`, and seconds a
        shared cache bills there — a result another rank computed (see
        :mod:`repro.tree.state`) — are charged like measured ones.
        Disable for pure-numerics runs where timing is irrelevant;
        nothing is owned or billed then.
    verify :
        Replay mode (a practical race detector): runnable ranks are
        advanced in ascending rank order each scheduling round; after
        the primary run, re-execute the whole program with that order
        *reversed* and require byte-identical results
        (:func:`repro.analysis.commcheck.freeze`) and the same per-rank
        operation budget :attr:`ops`.  Schedule-dependent numerics —
        shared mutable state across rank generators, matching that
        leaks the interleaving — raise
        :class:`repro.analysis.commcheck.VerificationError`.  With
        ``measure_compute=False`` the virtual clocks must also agree.
        The program runs twice, so rank programs must tolerate
        re-execution from scratch.
    fault_plan :
        Optional :class:`~repro.parallel.faults.FaultPlan` of crash and
        message rules (see the module docstring); :attr:`resilience`
        records every injection and recovery action.  When ``None``
        (default) no fault layer is built and every send is disposed of
        cleanly: results and clocks are byte-identical to the plain
        scheduler.
    tracer :
        Optional :class:`repro.obs.Tracer`.  When attached, every run
        records virtual-time spans per rank (``compute`` / ``work`` /
        ``wait:recv``), ``send`` / ``recv`` instants, fault-injection
        and recovery instants, and folds the rank programs'
        ``begin:<x>`` / ``end:<x>`` annotations into named phase spans
        — one Perfetto thread per rank after export.  It is the only
        record of the annotations.  The default is the zero-cost no-op
        tracer; virtual clocks and results are identical either way.
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
        When True, the scheduler numbers every rank's sends and
        deliveries in program order (its events), every message carries
        its send's index and its channel's id, and every delivery
        appends ``(src, channel, send index, receive index)`` to its
        destination's int log — the **happens-before DAG**, a few int
        appends per event on the hot path.  After the run,
        :func:`repro.analysis.commgraph.hb.build_certificate` derives a
        :class:`~repro.analysis.commgraph.hb.DeterminismCertificate`
        (service-order-independent digest of the DAG, format
        ``repro-hb-dag/2``, + per-channel census, kept in
        :attr:`certificate` and in the ``comm.certificate`` metric) and
        flags **message races**: deliveries on one exact
        ``(src, dst, tag)`` channel whose send indices do not increase —
        e.g. fault-injected duplicates.  With ``verify=True`` the
        replay's digest must match the primary's.  When False (default)
        nothing is logged and message streams are byte-identical to the
        plain scheduler.

    Attributes
    ----------
    metrics :
        A :class:`repro.obs.MetricsRegistry` owned by the scheduler,
        repopulated on every :meth:`run`, the run's one record of
        counts: ``mpi.messages`` / ``mpi.bytes`` (global and per
        ``{src,dest}`` pair), ``mpi.retransmissions``, what the rank
        programs count in-process (the rank programs run under
        ``use_metrics(metrics)``: ``tree.*`` of inline evaluations and
        of the event loop's tree builds) and the executor's worker
        deltas.  A registry active around :meth:`run` receives a copy
        at the end of the run.
    ops, resumes, stalls :
        The operation budget: operations yielded and times switched in,
        per rank, and rounds in which no rank could run; folded into
        :attr:`metrics` when ``run`` ends as ``sched.ops`` /
        ``sched.resumes`` (total and per ``{rank}``) and
        ``sched.stalls``.  ``ops`` does not depend on the service order
        (``verify`` checks it); with an inline backend all three repeat
        from run to run.
    orphans :
        Messages still undelivered after every rank finished (see
        :func:`repro.analysis.commcheck.find_orphans`); the primary run
        also emits them as an :class:`OrphanMessageWarning`.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: CommCostModel | None = None,
        measure_compute: bool = True,
        verify: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        executor: Optional[ExecutionBackend] = None,
        certify: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least 1 rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CommCostModel()
        self.measure_compute = measure_compute
        self.verify = verify
        self.fault_plan = fault_plan
        self.tracer: Tracer | NullTracer = tracer or NULL_TRACER
        self.executor = executor
        self.certify = certify
        self._strict_payloads = (
            executor is not None and executor.requires_pickling
        )
        from repro.analysis.sanitize import enabled

        self._sanitize = enabled()  # re-pickle every size-memo hit
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run state; called from ``__init__`` and ``run``.

        A ``Scheduler`` instance may be reused: each ``run()`` starts
        from zeroed clocks, statistics, channels and fault state
        rather than silently accumulating the previous run's.
        """
        self.clocks: List[float] = [0.0] * self.n_ranks
        #: messages in flight, FIFO per (src, dest, tag); a delivery
        #: that empties a channel drops it
        self._channels: Dict[Channel, deque] = defaultdict(deque)
        #: per-run message/byte/retransmission instruments
        self.metrics = MetricsRegistry()
        #: the four ``mpi.*`` counters a message on link (src, dest)
        #: bumps, resolved on the link's first message
        self._link_counters: Dict[Tuple[int, int], Tuple[Any, ...]] = {}
        #: pickled length per :func:`_pickle_signature` seen this run
        self._sizes: Dict[Tuple[Any, ...], int] = {}
        #: undelivered-message report of the last completed run
        self.orphans: List[Any] = []
        #: injected faults and recovery actions of the last run
        self.resilience = ResilienceReport()
        #: certificate of the last completed ``certify=True`` run
        self.certificate: Optional[Any] = None
        #: the happens-before log (certify only; plain ints so commgraph
        #: stays a lazy import): per rank the number of its events so
        #: far — each send and each delivery is the next one — ...
        self._events: Optional[List[int]] = (
            [0] * self.n_ranks if self.certify else None
        )
        #: ... per destination four ints per delivery, ``(src, channel,
        #: send index, receive index)``, and the delivery times ...
        logs = self.n_ranks if self.certify else 0
        self._hb: List[List[int]] = [[] for _ in range(logs)]
        self._hb_times: List[List[float]] = [[] for _ in range(logs)]
        #: ... and the census: each exact channel's run-local id, in
        #: order of first send, and the wire copies sent on it
        self._census: Dict[Channel, int] = {}
        self._copies: List[int] = []
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
        #: operations yielded per rank (crash triggers, operation budget)
        self.ops: List[int] = [0] * self.n_ranks
        #: times each rank was switched in: ``_advance`` calls
        self.resumes: List[int] = [0] * self.n_ranks
        #: service rounds in which no rank could run
        self.stalls = 0
        #: uncaught RankFailure per crashed rank
        self._crashed: Dict[int, RankFailure] = {}
        #: the fault layer: everything that exists only under a plan
        self._faults: Optional[FaultRuntime] = (
            FaultRuntime(self.fault_plan, self.resilience)
            if self.fault_plan is not None
            else None
        )

    # ------------------------------------------------------------------
    def run(self, program: RankProgram, args: Tuple = ()) -> List[Any]:
        """Execute ``program(comm, *args)`` on every rank; return results.

        With ``verify=True`` the program is executed a second time under
        the reversed rank-service order on a scratch scheduler and the
        two result lists must freeze to identical bytes.
        """
        self._reset_run_state()
        results = self._run_pass(program, args)
        if self.executor is not None:
            # deterministic fold of per-worker compute metrics deltas
            self.executor.collect_into(self.metrics)
        if self.certify:
            self._build_certificate()
        self._report_orphans()
        if self.tracer.enabled:
            self.resilience.trace_onto(self.tracer)
        # folded once, here: a mid-run metrics snapshot (a checkpoint)
        # never contains part of the operation budget
        for name, per_rank in (("sched.ops", self.ops),
                               ("sched.resumes", self.resumes)):
            self.metrics.counter(name).inc(sum(per_rank))
            for rank, count in enumerate(per_rank):
                self.metrics.counter(name, rank=rank).inc(count)
        self.metrics.counter("sched.stalls").inc(self.stalls)
        active = get_metrics()
        if active.enabled and active is not self.metrics:
            active.merge(self.metrics)
        if self.verify:
            self._verify_replay(program, args, results)
        return results

    def _run_pass(self, program: RankProgram, args: Tuple,
                  descending: bool = False) -> List[Any]:
        """One pass, primary or (``descending``) ``verify`` replay:
        either leaves the ledger unowned and drained and the plan's rule
        activations (dormant rules included) folded, also when it
        raises.  The rank programs run under
        ``use_metrics(self.metrics)``, so what they count in-process
        lands in this scheduler's registry once."""
        states: List[_RankState] = []
        for rank in range(self.n_ranks):
            gen = program(VirtualComm(rank, self.n_ranks, self), *args)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "rank program must be a generator function "
                    "(use 'yield comm.send(...)' style)"
                )
            states.append(_RankState(gen=gen))
        try:
            with use_metrics(self.metrics):
                self._service(states, descending)
        finally:
            LEDGER.owner = None
            LEDGER.drain()
            if self._faults is not None:
                self.resilience.rule_activations = (
                    self._faults.activation_summary()
                )
        if self._crashed:
            raise self._rank_died(
                "crash was not handled by the rank program "
                f"(crashed ranks: {sorted(self._crashed)})"
            )
        return [state.result for state in states]

    def _service(self, states: List[_RankState], descending: bool) -> None:
        """The core loop: advance every runnable rank, round after round.

        Each round visits the unfinished ranks in ascending (``verify``
        replay: descending) order.  A blocked rank whose channel has
        received nothing since it last tried is passed over without a
        poll: nothing it could do has changed, so skipping it keeps the
        order of every advance and of every delivery.
        """
        pending = sorted(range(self.n_ranks), reverse=descending)
        while pending:
            progressed = done = False
            for rank in pending:
                state = states[rank]
                if state.compute_pending is not None:
                    continue  # parked until the dispatch barrier
                if state.blocked_on is not None:
                    if not state.inbox:
                        continue  # nothing arrived since it last tried
                    self._unblock(rank, state)
                self._advance(rank, state)
                progressed = True
                done = done or state.finished
            if not progressed:
                # ready set exhausted: the dispatch barrier of the parked
                # compute batch first, then one lazy timeout
                self.stalls += 1
                if not (self._flush_compute(states)
                        or self._expire_one_timeout(states, pending)):
                    self._raise_deadlock(
                        {r: states[r].blocked_on for r in sorted(pending)}
                    )
                done = True
            if done:
                pending = [r for r in pending if not states[r].finished]

    def _rank_died(self, detail: str) -> RankFailure:
        """The error of a run whose first crashed rank never recovered."""
        first = self._crashed[min(self._crashed)]
        return RankFailure(first.rank, first.time, detail=detail)

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
        dropped = [ev.render() for ev in self.resilience.injected
                   if ev.kind == "drop"]
        if dropped:
            message += ("\nmessages dropped by fault injection:\n  "
                        + "\n  ".join(dropped))
        if self._crashed:
            # a crashed rank is the root cause, not the deadlock itself
            raise self._rank_died(
                "crash left the remaining ranks blocked\n" + message
            )
        raise DeadlockError(message)

    def _report_orphans(self) -> None:
        from repro.analysis.commcheck import find_orphans

        self.orphans = find_orphans(self._channels)
        # messages abandoned by a recovery protocol (a retag-and-redo
        # after a crash) are an expected byproduct, not a protocol
        # mismatch — keep the structured report, skip the warning
        if self.orphans and not self.resilience.recovered:
            report = "\n".join(o.render() for o in self.orphans)
            warnings.warn(
                "simulated MPI program exited with undelivered messages "
                f"(protocol mismatch?):\n{report}",
                OrphanMessageWarning,
                stacklevel=3,
            )

    def _build_certificate(self) -> None:
        """Derive the run's happens-before certificate (certify only)."""
        from repro.analysis.commgraph.hb import build_certificate

        cert = build_certificate(
            self.n_ranks, self._census, self._copies, self._events or [],
            self._hb, self._hb_times,
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
        replay_results = replay._run_pass(program, args, descending=True)
        compare_replays(primary, replay_results,
                        detail="service orders: ascending vs descending")
        compare_replays(
            self.ops, replay.ops,
            detail="operation budget diverged under the replay order",
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

    # -- receive side ----------------------------------------------------
    def _unblock(self, rank: int, state: _RankState) -> None:
        """Deliver the next message on the channel ``state`` waits for,
        which is not empty, or raise its :class:`CorruptionError`."""
        msg: _Message = state.inbox.popleft()  # type: ignore[union-attr]
        at = max(self.clocks[rank], msg.arrival)
        verdict = None if self._faults is None else self._faults.verdict(msg)
        if verdict is None:
            self._deliver(rank, state, msg, at)
            return
        source, tag = state.blocked_on  # type: ignore[misc]
        self.resilience.recovered.append(
            FaultEvent(
                kind="corruption-detected", time=at, rank=rank,
                source=source, dest=rank, tag=tag, detail=verdict,
            )
        )
        if self._retransmit(rank, state, at, 0.0,
                            "pristine copy delivered after corruption"):
            return
        retries = state.recv_op.retries  # type: ignore[union-attr]
        if retries == 0:
            verdict += "; receive specified no retries"
        elif not self._faults.shadow.get((source, rank, tag)):
            verdict += "; no pristine copy available for retransmit"
        else:
            verdict += f"; {retries} retransmit attempt(s) exhausted"
        raise CorruptionError(rank, source, tag, at, verdict)

    def _deliver(self, rank: int, state: _RankState,
                 msg: Optional[_Message], at: float) -> None:
        """The one receive epilogue: the wait of ``state`` ends at ``at``.

        ``msg`` — off the wire or a retransmitted shadow copy — is logged
        and its payload handed to the program; ``None`` ends a receive
        whose timeout expired (the caller queued the ``RecvTimeout``).
        """
        source, tag = state.blocked_on  # type: ignore[misc]
        t_blocked = self.clocks[rank]
        self.clocks[rank] = at
        if not state.inbox:
            # the channel's one receiver lets go of it here; a later
            # send recreates it
            del self._channels[(source, rank, tag)]
        state.blocked_on = None
        state.recv_op = state.inbox = None
        if msg is None:
            return
        events = self._events
        if events is not None:  # certify: the delivery is the next event
            n = events[rank]
            events[rank] = n + 1
            self._hb[rank] += (source, msg.channel, msg.send, n)
            self._hb_times[rank].append(at)
        if self.tracer.enabled:
            track = f"rank{rank}"
            if at > t_blocked:
                self.tracer.vspan(
                    "wait:recv", t_blocked, at, track=track,
                    cat="comm", args={"source": source, "tag": str(tag)},
                )
            self.tracer.instant(
                "recv", t=at, track=track, cat="comm",
                args={"source": source, "tag": str(tag)},
            )
        state.send_value = msg.payload

    def _pristine(self, rank: int, state: _RankState) -> Optional[deque]:
        """Shadow copies a receive with a retry left may fall back on."""
        if state.retries_left <= 0 or self._faults is None:
            return None
        source, tag = state.blocked_on  # type: ignore[misc]
        return self._faults.shadow.get((source, rank, tag))

    def _retransmit(self, rank: int, state: _RankState, at: float,
                    waited: float, detail: str) -> bool:
        """The one retransmit: deliver the awaited message's shadow copy.

        Serves a corruption detected at ``at`` (``waited`` 0) and a
        timeout that expired at ``at`` after ``waited`` seconds.  False,
        and nothing changed, without a retry or a shadow copy left.
        """
        shadow = self._pristine(rank, state)
        if not shadow:
            return False
        source, tag = state.blocked_on  # type: ignore[misc]
        pristine: _Message = shadow.popleft()
        state.retries_left -= 1
        nbytes = self._sized(pristine.payload, (source, rank, tag))
        cost = self.cost_model.transfer_time(nbytes)
        self.metrics.counter("mpi.retransmissions").inc()
        self._deliver(rank, state, pristine, at + cost)
        self.resilience.recovered.append(
            FaultEvent(
                kind="retransmit", time=at + cost, rank=rank, source=source,
                dest=rank, tag=tag, cost=waited + cost, detail=detail,
            )
        )
        return True

    def _expire_one_timeout(self, states: List[_RankState],
                            pending: List[int]) -> bool:
        """Expire one timed-out receive at a global stall.

        Returns True when a receive was resolved — by shadow-copy
        retransmit or by throwing :class:`RecvTimeout` into the program
        — so the core loop can continue.  The victim is chosen
        independently of the service order:

        1. A receive that can *retransmit* (shadow copy available,
           retries left) is preferred, lowest rank first: retransmission
           is silent and side-effect free.
        2. Otherwise :class:`RecvTimeout` goes to the receive with the
           *smallest timeout value* (then earliest deadline, then lowest
           rank).  Failure-detection receives are posted with short
           timeouts and protocol collectives with long ones, so the
           detection point designed to catch the exception fires before
           a collective leg that cannot.
        """
        def deadline(r: int) -> Tuple[float, float, int]:
            timeout = states[r].recv_op.timeout
            return (timeout, self.clocks[r] + timeout, r)

        timed = [r for r in sorted(pending)
                 if states[r].blocked_on is not None
                 and states[r].recv_op.timeout is not None]
        if not timed:
            return False
        rank = next((r for r in timed if self._pristine(r, states[r])), None)
        if rank is None:
            rank = min(timed, key=deadline)
        state = states[rank]
        source, tag = state.blocked_on
        timeout, expired, _ = deadline(rank)
        if not self._retransmit(rank, state, expired, timeout,
                                "lost message recovered after timeout"):
            self.resilience.recovered.append(
                FaultEvent(
                    kind="timeout", time=expired, rank=rank, source=source,
                    dest=rank, tag=tag, cost=timeout,
                    detail="no message and nothing to retransmit",
                )
            )
            state.pending_throw = RecvTimeout(rank, source, tag, expired)
            self._deliver(rank, state, None, expired)
        self._advance(rank, state)
        return True

    # -- the resume loop and one handler per operation -------------------
    def _advance(self, rank: int, state: _RankState) -> None:
        """Resume a runnable rank until it blocks, parks or finishes.

        Each turn throws ``state.pending_throw`` or a crash come due
        into the generator, or else sends it ``state.send_value``, and
        hands the operation it yields to that operation's handler.
        Under ``measure_compute`` the rank's clock is charged, in the
        loop, the wall time the generator ran (handlers excluded) plus
        what the ledger billed meanwhile.
        """
        if self._owners is not None:
            LEDGER.owner = self._owners[rank]
        self.resumes[rank] += 1
        gen, clocks, ops, faults = state.gen, self.clocks, self.ops, self._faults
        measure, tracer = self.measure_compute, self.tracer
        while True:
            throw, state.pending_throw = state.pending_throw, None
            if throw is None and faults is not None:
                throw = faults.crash_due(rank, ops[rank], clocks[rank])
            finished, failure = False, None
            t_wall = perf_counter() if measure else 0.0
            try:
                if throw is None:
                    op = gen.send(state.send_value)
                else:
                    op = gen.throw(throw)
                    if isinstance(throw, RankFailure):
                        self._recovered("crash-handled", rank,
                                        "rank program caught RankFailure")
            except StopIteration as stop:
                finished, state.result = True, stop.value
            except RankFailure as exc:
                # the program did not catch the crash: the rank is dead
                finished, state.result = True, exc
                failure = exc
            if measure:
                elapsed = perf_counter() - t_wall
                if LEDGER.billed_s:
                    elapsed += LEDGER.drain()
                t0 = clocks[rank]
                clocks[rank] = t0 + elapsed
                if tracer.enabled and elapsed > 0:
                    tracer.vspan("compute", t0, clocks[rank],
                                 track=f"rank{rank}", cat="compute")
            if finished:
                state.finished = True
                if failure is not None:
                    self._crashed[rank] = failure
                    self._recovered("crash-uncaught", rank,
                                    "rank died (policy: fail)")
                return
            state.send_value = None
            ops[rank] += 1
            kind = type(op)
            if kind is Send:
                self._post(rank, op)  # eager: the rank keeps running
            elif kind is Recv:
                if not self._on_recv(rank, state, op):
                    return
            elif kind is Annotate:
                if tracer.enabled:
                    tracer.annotate(f"rank{rank}", op.label, clocks[rank],
                                    data=op.data)
            elif kind is Work:
                self._spend(rank, "work", op.seconds)
            elif kind is Compute:
                if not self._on_compute(rank, state, op):
                    return
            else:
                raise TypeError(
                    f"rank {rank} yielded unsupported operation {op!r}"
                )

    def _recovered(self, kind: str, rank: int, detail: str) -> None:
        """Log a crash the rank program handled or died of."""
        self.resilience.recovered.append(
            FaultEvent(kind=kind, time=self.clocks[rank], rank=rank,
                       detail=detail)
        )

    def _post(self, rank: int, op: Send) -> None:
        """The one send path: price, stamp, count and enqueue ``op``.

        Under a plan the fault layer decides the disposition and which
        copies of the message reach the channel; without one, the clean
        disposition and the message itself.
        """
        dest, tag, payload = op
        channel, faults, cost = (rank, dest, tag), self._faults, self.cost_model
        disp = _CLEAN if faults is None else faults.on_send(rank, dest, tag)
        nbytes = self._sized(payload, channel, self._strict_payloads)
        sent = self.clocks[rank] = self.clocks[rank] + cost.send_overhead
        arrival = sent + cost.transfer_time(nbytes) + disp.extra_delay
        events = self._events
        send = cid = None
        if events is not None:
            # certify: the send is the rank's next event.  Shadow copies
            # and injected duplicates all carry its index, so a second
            # delivery of one send shows as a race
            send = events[rank]
            events[rank] = send + 1
            cid = self._census.get(channel)
            if cid is None:
                cid = self._census[channel] = len(self._copies)
                self._copies.append(0)
        msg = _Message(payload, arrival, None, sent, send, cid)
        wire = (msg,) if faults is None else faults.inject(disp, channel, msg)
        self._channels[channel].extend(wire)
        # a dropped message was still sent once; a duplicate is one more
        copies = max(len(wire), 1)
        if cid is not None:
            self._copies[cid] += copies
        self._count_message(channel, nbytes, arrival, copies)

    def _on_recv(self, rank: int, state: _RankState, op: Recv) -> bool:
        """Block on ``op``; True when its message was already there."""
        source, tag = op.source, op.tag
        state.blocked_on = (source, tag)
        state.recv_op = op
        state.retries_left = op.retries
        state.inbox = self._channels[(source, rank, tag)]
        if not state.inbox:
            return False
        self._unblock(rank, state)
        return True

    def _spend(self, rank: int, name: str, seconds: float,
               args: Optional[Dict[str, Any]] = None) -> None:
        """Advance ``rank``'s clock by modelled or measured compute time."""
        t0 = self.clocks[rank]
        self.clocks[rank] += seconds
        if self.tracer.enabled and seconds > 0:
            self.tracer.vspan(name, t0, self.clocks[rank],
                              track=f"rank{rank}", cat="compute", args=args)

    def _on_compute(self, rank: int, state: _RankState, op: Compute) -> bool:
        """Run ``op`` inline, or park the rank until the dispatch barrier."""
        if self.executor is None:
            raise TypeError(
                f"rank {rank} yielded a Compute operation but the "
                "scheduler has no execution backend; construct "
                "Scheduler(..., executor=SerialExecutor()) or run "
                "without dispatch"
            )
        owner = None if self._owners is None else self._owners[rank]
        task = replace(op.task, rank=rank, owner=owner)
        if self.executor.inline:
            self._complete_compute(rank, state, task,
                                   self.executor.execute(task))
            return True
        state.compute_pending = task
        self._compute_queue.append((rank, task))
        return False

    def _sized(self, payload: Any, channel: Channel,
               strict: bool = False) -> int:
        """:func:`payload_bytes` of a message on ``channel``, memoised per
        :func:`_pickle_signature`: a signature is pickled the first time
        this run sees it."""
        signature = _pickle_signature(payload)
        nbytes = None if signature is None else self._sizes.get(signature)
        if nbytes is None:
            try:
                nbytes = payload_bytes(payload, strict)
            except PayloadPicklingError as exc:
                raise PayloadPicklingError(
                    exc.type_name, rank=channel[0], dest=channel[1],
                    tag=channel[2], cause=exc.__cause__,
                ) from exc
            if signature is not None:
                self._sizes[signature] = nbytes
        elif self._sanitize and payload_bytes(payload) != nbytes:
            from repro.analysis.sanitize import SanitizeError

            raise SanitizeError(
                f"size memo says {nbytes} bytes on channel {channel[0]} -> "
                f"{channel[1]} tag={channel[2]!r}; the payload pickles to "
                f"{payload_bytes(payload)}"
            )
        return nbytes

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
            states[rank].compute_pending = None
            self._complete_compute(rank, states[rank], task, result)
        return True

    def _complete_compute(self, rank: int, state: _RankState,
                          task: ComputeTask, result: DispatchResult) -> None:
        """Account one executed task and queue its value or its error."""
        state.send_value, state.pending_throw = result.value, result.error
        self.metrics.counter(
            "executor.dispatches", backend=self.executor.name
        ).inc()
        self.metrics.counter(
            "executor.dispatches", payload=task.payload, method=task.method
        ).inc()
        if result.shm_bytes:
            self.metrics.counter("executor.shm_bytes").inc(result.shm_bytes)
        if self.measure_compute and result.elapsed > 0:
            self._spend(
                rank, "compute", result.elapsed + result.billed_s,
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

    def _count_message(self, channel: Channel, nbytes: int,
                       arrival: float, copies: int) -> None:
        """Account ``copies`` wire messages of one send (counters, one
        tracer instant each)."""
        src, dest, tag = channel
        counters = self._link_counters.get((src, dest))
        if counters is None:
            counter = self.metrics.counter
            counters = self._link_counters[(src, dest)] = (
                counter("mpi.messages"),
                counter("mpi.bytes"),
                counter("mpi.messages", src=src, dest=dest),
                counter("mpi.bytes", src=src, dest=dest),
            )
        messages, volume, link_messages, link_volume = counters
        messages.inc(copies)
        volume.inc(copies * nbytes)
        link_messages.inc(copies)
        link_volume.inc(copies * nbytes)
        for _ in range(copies if self.tracer.enabled else 0):
            self.tracer.instant(
                "send", t=self.clocks[src], track=f"rank{src}", cat="comm",
                args={"dest": dest, "tag": str(tag), "bytes": nbytes,
                      "arrival": arrival},
            )

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Virtual wall-clock of the whole run (max over rank clocks)."""
        return max(self.clocks)
