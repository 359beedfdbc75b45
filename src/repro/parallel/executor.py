"""Pluggable execution backends for the simulated-MPI scheduler.

The discrete-event scheduler (:mod:`repro.parallel.simmpi`) owns virtual
time, message ordering, fault injection and the ``verify=True`` replay
contract — none of that moves here.  What an execution backend owns is
the *compute payload between yields*: a rank program may yield a
:class:`Compute` operation wrapping a :class:`ComputeTask` (a picklable
descriptor "call ``method`` on registered payload ``key`` with these
arguments"), and the backend decides where that call runs:

* :class:`SerialExecutor` — runs the task inline, in-process, at the
  yield point.  Results, virtual clocks and op streams are byte-identical
  to a scheduler without any executor attached (the byte-identity suite
  in ``tests/test_executor.py`` pins this).
* :class:`ProcessExecutor` — runs tasks on worker processes, one
  single-worker :class:`concurrent.futures.ProcessPoolExecutor` each.
  The scheduler defers every ``Compute``-blocked rank until no further
  event-loop progress is possible, then flushes the accumulated *batch*
  through :meth:`ProcessExecutor.dispatch` — concurrently runnable work
  (independent RHS evaluations across time ranks, per-row space segments)
  lands on real cores in one barrier round.  Placement is rank-affine:
  the task of world rank ``r`` always runs on worker ``r mod W``.  Input
  arrays travel through :mod:`multiprocessing.shared_memory` blocks
  (one per batch position and array slot, kept until ``close()``);
  results return pickled.

Payload objects (problems with their evaluators and tree-state caches)
are registered up front under stable string keys and shipped to the
workers **once**, at pool start-up, via the pool initializer — per-task
traffic is only the state array, the small ``args``/``tail`` scalars and
the result.  :meth:`ExecutionBackend.key_of` answers the key an object
is registered under, which is how an RHS call site
(:meth:`repro.sdc.sweeper.RhsContext.rhs`) holding the executor names
its problem in a task.  Workers keep their (forked/unpickled) payload
copies alive across tasks, so tree-state caches warm up per worker
exactly as the in-process evaluator's cache does.  Because a rank's
tasks always land on the same worker, the sequence of states a worker's
cache sees is a property of the program, not of timing: cache hit/miss
counts repeat exactly from run to run.

Every task runs under a fresh per-task :class:`MetricsRegistry`
(installed via ``use_metrics``), and the deltas are bucketed per worker
id.  The scheduler folds the buckets into its own registry at the end of
the run, **sorted by worker id**, so merged counter totals are
deterministic and — for everything except cache hit/miss splits, which
depend on which tasks share a cache — exactly equal between backends.
Work the rank programs do in-process counts into that registry directly
(the scheduler runs them under it), so ``executor=None`` totals agree too.

Process-safety of the task descriptors is enforced statically by
``repro-lint`` rule RPR006 (no lambdas inside ``ComputeTask(...)``
construction, ``method`` must be a string literal) and dynamically by
:class:`PayloadPicklingError` at registration/dispatch time.
"""

from __future__ import annotations

import pickle
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.obs.ledger import LEDGER
from repro.obs.metrics import MetricsRegistry, use_metrics

__all__ = [
    "ComputeTask",
    "Compute",
    "DispatchResult",
    "PayloadPicklingError",
    "ExecutionBackend",
    "SerialExecutor",
    "ProcessExecutor",
]


class PayloadPicklingError(TypeError):
    """A payload required by a process backend cannot be pickled.

    Raised instead of the advisory ``UserWarning`` fallback of
    :func:`repro.parallel.simmpi.payload_bytes`: under a
    :class:`ProcessExecutor` an unpicklable message payload or compute
    argument is not a cost-model inaccuracy but a correctness bug — the
    silent 64-byte guess would let the program run on data that can never
    cross a process boundary and deadlock (or crash) the dispatch
    barrier.  The error names the offending rank/tag (message path) or
    payload key/method (compute path).
    """

    def __init__(
        self,
        type_name: str,
        *,
        rank: Optional[int] = None,
        dest: Optional[int] = None,
        tag: Optional[Hashable] = None,
        payload_key: Optional[str] = None,
        method: Optional[str] = None,
        cause: Optional[BaseException] = None,
    ) -> None:
        self.type_name = type_name
        self.rank = rank
        self.dest = dest
        self.tag = tag
        self.payload_key = payload_key
        self.method = method
        where = []
        if rank is not None:
            where.append(f"rank {rank}")
        if dest is not None:
            where.append(f"dest {dest}")
        if tag is not None:
            where.append(f"tag {tag!r}")
        if payload_key is not None:
            where.append(f"payload {payload_key!r}")
        if method is not None:
            where.append(f"method {method!r}")
        ctx = " (" + ", ".join(where) + ")" if where else ""
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"object of type {type_name!r} cannot be pickled for the "
            f"process execution backend{ctx}{detail}"
        )


@dataclass(frozen=True)
class ComputeTask:
    """Picklable description of one dispatchable compute call.

    The backend resolves ``payload`` against its registry and invokes::

        getattr(registry[payload], method)(*args, *arrays, *tail)

    ``arrays`` carries the large ndarray inputs (particle states,
    positions/charges) — a process backend moves them through shared
    memory; ``args``/``tail`` are small picklable scalars placed before
    and after the arrays in the call.  ``method`` must be a *string
    literal* naming a regular method on the registered object: lambdas
    and closures cannot cross a process boundary (``repro-lint`` RPR006).

    ``rank`` is stamped by the scheduler at the ``Compute`` operation:
    the world rank that yielded the task, which places it on a worker of
    a :class:`ProcessExecutor`.  ``owner`` is stamped there too (under
    ``measure_compute``): the ``(run id, rank)`` whose virtual clock
    pays for the task.  The executing process installs it on its
    :data:`~repro.obs.ledger.LEDGER` for the duration of the call.
    """

    payload: str
    method: str
    args: Tuple[Any, ...] = ()
    arrays: Tuple[np.ndarray, ...] = ()
    tail: Tuple[Any, ...] = ()
    owner: Optional[Tuple[int, int]] = None
    rank: Optional[int] = None

    def invoke(self, obj: Any) -> Any:
        return getattr(obj, self.method)(*self.args, *self.arrays, *self.tail)


@dataclass(frozen=True)
class Compute:
    """Scheduler operation: run ``task`` on the attached execution backend.

    Yielded by rank programs (via the dispatch seam in
    :meth:`repro.sdc.sweeper.RhsContext.rhs` /
    ``SpaceParallelTreeEvaluator.field_program``); the value sent back
    into the generator is the task's return value.  Requires a scheduler
    constructed with ``executor=...``.
    """

    task: ComputeTask


@dataclass
class DispatchResult:
    """Outcome of one executed :class:`ComputeTask`."""

    value: Any = None
    #: exception raised by the task body (re-thrown into the rank program)
    error: Optional[BaseException] = None
    #: dense worker id that ran the task (0 for the serial backend)
    worker: int = 0
    #: wall-clock seconds spent inside the task body
    elapsed: float = 0.0
    #: seconds of other ranks' compute the task was handed by a shared
    #: cache (:mod:`repro.obs.ledger`) — owed to the rank's virtual
    #: clock on top of ``elapsed``, never part of it
    billed_s: float = 0.0
    #: perf_counter endpoints in the *executing* process (CLOCK_MONOTONIC
    #: is system-wide on Linux, so worker spans overlay on one timeline)
    wall_t0: float = 0.0
    wall_t1: float = 0.0
    #: shared-memory bytes staged for this task's input arrays
    shm_bytes: int = 0
    #: ``MetricsRegistry.as_dict()`` snapshot recorded inside the task
    metrics: Optional[Dict[str, Any]] = None


class ExecutionBackend:
    """Common payload registry + worker-metrics bookkeeping.

    Subclasses set :attr:`inline` (execute at the yield point vs queue
    for a batched :meth:`dispatch`) and :attr:`requires_pickling` (the
    scheduler then escalates unpicklable *message* payloads to
    :class:`PayloadPicklingError` instead of the advisory warning).
    """

    name = "base"
    #: True: the scheduler calls :meth:`execute` at the Compute op and
    #: feeds the value straight back — no barrier phase is entered
    inline = True
    #: True: payloads must survive a process boundary
    requires_pickling = False

    def __init__(self) -> None:
        self._payloads: Dict[str, Any] = {}
        self._started = False
        #: worker id -> merged per-task metrics deltas for the active run
        self._buckets: Dict[int, MetricsRegistry] = {}
        #: backend-side recovery events awaiting the scheduler's fold
        self._events: List[Dict[str, Any]] = []

    # -- payload registry ----------------------------------------------
    def register(self, key: str, obj: Any) -> None:
        """Register ``obj`` under ``key`` (idempotent for the same object)."""
        existing = self._payloads.get(key)
        if existing is obj:
            return
        if existing is not None:
            raise ValueError(
                f"payload key {key!r} is already registered to a different "
                "object; use one executor per payload set"
            )
        if self._started:
            raise RuntimeError(
                f"cannot register payload {key!r}: the worker pool has "
                "already started (payloads ship once, at start-up)"
            )
        self._payloads[key] = obj

    def key_of(self, obj: Any) -> Optional[str]:
        """The key ``obj`` is registered under (matched by identity), or
        ``None``: an unregistered object evaluates inline."""
        for key, payload in self._payloads.items():
            if payload is obj:
                return key
        return None

    def _resolve(self, task: ComputeTask) -> Any:
        try:
            return self._payloads[task.payload]
        except KeyError:
            raise KeyError(
                f"compute task references unregistered payload "
                f"{task.payload!r} (registered: {sorted(self._payloads)})"
            ) from None

    # -- execution ------------------------------------------------------
    def execute(self, task: ComputeTask) -> DispatchResult:
        raise NotImplementedError

    def dispatch(self, batch: List[ComputeTask]) -> List[DispatchResult]:
        """Run a batch; default is sequential :meth:`execute`."""
        return [self.execute(task) for task in batch]

    # -- scheduler integration -----------------------------------------
    def serial_clone(self) -> "SerialExecutor":
        """In-process twin sharing this backend's payload registry.

        The scheduler's ``verify=True`` replay runs on the clone: replay
        correctness is about op-stream determinism, not wall-clock, and
        an inline second pass sidesteps pool lifetime entanglement.
        """
        return SerialExecutor(_payloads=self._payloads)

    def reset_run(self) -> None:
        """Drop per-run worker-metric buckets (scheduler run prologue)."""
        self._buckets = {}
        self._events = []

    def drain_events(self) -> List[Dict[str, Any]]:
        """Return and clear pending backend recovery events.

        The scheduler calls this after every dispatch barrier and folds
        the entries (dicts with ``kind``/``detail`` keys) into the run's
        :class:`~repro.parallel.faults.ResilienceReport`.
        """
        events, self._events = self._events, []
        return events

    def _bucket(self, result: DispatchResult) -> None:
        if result.metrics is None:
            return
        bucket = self._buckets.get(result.worker)
        if bucket is None:
            bucket = self._buckets[result.worker] = MetricsRegistry()
        bucket.merge(result.metrics)

    def collect_into(self, registry: MetricsRegistry) -> None:
        """Fold worker metric deltas into ``registry``, sorted by worker
        id — the deterministic merge order of the executor contract."""
        for worker in sorted(self._buckets):
            registry.merge(self._buckets[worker])

    def close(self) -> None:
        """Release backend resources (no-op for in-process backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def _run_task(obj: Any, task: ComputeTask) -> DispatchResult:
    """Execute one task in this process under a fresh metrics registry,
    on ``task.owner``'s account."""
    registry = MetricsRegistry()
    value: Any = None
    error: Optional[BaseException] = None
    previous, LEDGER.owner = LEDGER.owner, task.owner
    t0 = time.perf_counter()
    try:
        with use_metrics(registry):
            value = task.invoke(obj)
    except Exception as exc:  # re-thrown into the rank program
        error = exc
    finally:
        LEDGER.owner = previous
    t1 = time.perf_counter()
    return DispatchResult(
        value=value, error=error, worker=0, elapsed=t1 - t0,
        billed_s=LEDGER.drain(),
        wall_t0=t0, wall_t1=t1, shm_bytes=0, metrics=registry.as_dict(),
    )


class SerialExecutor(ExecutionBackend):
    """Reference backend: every task runs inline at the yield point.

    The scheduler's behaviour with a ``SerialExecutor`` attached is
    byte-identical (results *and* virtual clocks) to the same run with
    dispatch disabled entirely — the compute simply happens in
    :meth:`execute` instead of inside the generator frame.  It also
    defines the metrics contract the process backend must reproduce.
    """

    name = "serial"
    inline = True
    requires_pickling = False

    def __init__(self, _payloads: Optional[Dict[str, Any]] = None) -> None:
        super().__init__()
        if _payloads is not None:
            self._payloads = _payloads

    def execute(self, task: ComputeTask) -> DispatchResult:
        result = _run_task(self._resolve(task), task)
        self._bucket(result)
        return result


# -- worker-process side of ProcessExecutor ---------------------------------
_WORKER_PAYLOADS: Dict[str, Any] = {}
_WORKER_ID: int = 0
#: (batch position, array slot) -> this worker's mapping of its block
_WORKER_BLOCKS: Dict[Tuple[int, int], Any] = {}


def _worker_init(payload_blob: bytes, worker_id: int) -> None:
    """Pool initializer: unpack payloads once, take the pool's index as
    this worker's id."""
    global _WORKER_ID
    _WORKER_ID = worker_id
    _WORKER_PAYLOADS.update(pickle.loads(payload_blob))


def _worker_block(key: Tuple[int, int], name: str):
    """Map staging block ``key`` without adopting its lifetime; the
    mapping is kept until ``key`` names a new block.

    The *scheduler* process owns creation and unlinking.  Pool workers
    share its resource-tracker process, so the worker-side attach only
    re-adds a tracked name (a no-op) and the one unregister happens in
    the scheduler's ``unlink()``; unregistering here would make that
    unlink trip a tracker KeyError.
    """
    from multiprocessing import shared_memory

    shm = _WORKER_BLOCKS.get(key)
    if shm is None or shm.name != name:
        if shm is not None:
            shm.close()
        shm = _WORKER_BLOCKS[key] = shared_memory.SharedMemory(name=name)
    return shm


def _worker_exec(
    payload_key: str,
    method: str,
    args: Tuple[Any, ...],
    tail: Tuple[Any, ...],
    shm_specs: List[Tuple[Tuple[int, int], str, Tuple[int, ...], str]],
    owner: Optional[Tuple[int, int]],
) -> Tuple[int, float, float, float, float, Any, Optional[BaseException],
           Dict[str, Any]]:
    """Run one task against shared-memory array views; return the outcome.

    The views are mapped read-only: task methods receive *inputs* through
    shared memory and must allocate their own outputs (which return
    pickled) — the explicit buffer-handoff contract of
    :mod:`repro.tree.engine`.  The next dispatch rewrites the blocks, so
    no view may outlive its task; under ``REPRO_SANITIZE=1`` a task that
    keeps one fails.  (A NumPy view's base is the block's ``mmap``, so
    the views alive are the growth of the ``mmap``'s reference count.)
    """
    from repro.analysis.sanitize import SanitizeError, enabled

    registry = MetricsRegistry()
    value: Any = None
    error: Optional[BaseException] = None
    t0 = time.perf_counter()
    try:
        blocks = [_worker_block(key, name) for key, name, _, _ in shm_specs]
        held = [sys.getrefcount(shm._mmap) for shm in blocks]
        arrays = []
        for shm, (_, _, shape, dtype) in zip(blocks, shm_specs):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
            view.flags.writeable = False
            arrays.append(view)
        obj = _WORKER_PAYLOADS[payload_key]
        task = ComputeTask(payload_key, method, args, tuple(arrays), tail)  # repro-lint: disable=RPR006 -- worker-side reconstruction, already across the boundary
        LEDGER.owner = owner
        with use_metrics(registry):
            value = task.invoke(obj)
        del task, arrays
        view = None
        if enabled() and held != [sys.getrefcount(shm._mmap)
                                  for shm in blocks]:
            raise SanitizeError(
                f"compute task {payload_key}.{method} kept a view of its "
                f"shared-memory inputs, which the next dispatch rewrites"
            )
    except Exception as exc:
        try:
            pickle.dumps(exc)
            error = exc
        except Exception:
            error = RuntimeError(
                f"compute task {payload_key}.{method} failed with an "
                f"unpicklable exception: {exc!r}"
            )
        value = None
    finally:
        LEDGER.owner = None
    elapsed = time.perf_counter() - t0
    return (_WORKER_ID, t0, t0 + elapsed, elapsed, LEDGER.drain(), value,
            error, registry.as_dict())


class ProcessExecutor(ExecutionBackend):
    """Real-core backend: ``max_workers`` worker processes, each the one
    worker of its own :class:`ProcessPoolExecutor`.

    Payloads are pickled once into the pool initializers.  Per task,
    :meth:`dispatch` stages the input arrays into
    ``multiprocessing.shared_memory`` blocks, submits the worker calls,
    waits for the whole batch (the scheduler's barrier) and writes
    results back (see :meth:`_stage` for the blocks' lifetime).  A task
    stamped with world rank ``r`` runs on worker ``r mod W``; one
    without a rank on worker ``i mod W`` for its index ``i`` in the
    batch.  So a rank's fine and coarse
    evaluations share one worker's tree cache, as they share the one
    cache inline.  Worker ids are the pool indices 0..W-1, handed to
    each pool at start; per-task metric deltas are bucketed by id for
    the deterministic end-of-run merge.

    ``max_workers`` bounds genuine concurrency; ``max_workers=1`` is the
    degenerate (still multi-process) case the test suite pins.  The pools
    start lazily on first dispatch so payload registration stays open
    until the scheduler actually runs.

    Worker death (``BrokenProcessPool``) is recoverable: dispatch is
    deterministic and side-effect-free — tasks only read staged input
    arrays and return values — so :meth:`dispatch` waits out the batch,
    respawns every pool and re-runs the whole in-flight batch from the
    same staging blocks, up to :attr:`MAX_RETRIES` times with
    exponential :attr:`RETRY_BACKOFF` sleeps between attempts.
    Each respawn is recorded as a backend event (folded into the
    scheduler's resilience report) and counted in the
    ``executor.pool_restarts`` / ``executor.redispatched_tasks`` metrics.
    """

    name = "process"
    inline = False
    requires_pickling = True
    #: pool respawns per batch before a worker death is fatal
    MAX_RETRIES = 2
    #: seconds slept before the first respawn, doubling per attempt
    RETRY_BACKOFF = 0.05

    def __init__(self, max_workers: int = 4) -> None:
        super().__init__()
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        #: one single-worker pool per worker, indexed by worker id
        self._pools: List[ProcessPoolExecutor] = []
        #: (batch position, array slot) -> that slot's staging block
        self._blocks: Dict[Tuple[int, int], Any] = {}
        self._run_restarts = 0
        self._run_redispatched = 0

    # -- pool lifecycle -------------------------------------------------
    def start(self) -> None:
        """Pickle the payload registry and spin up the worker pools."""
        if self._pools:
            return
        import multiprocessing

        for key, obj in self._payloads.items():
            try:
                pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise PayloadPicklingError(
                    type(obj).__name__, payload_key=key, cause=exc
                ) from exc
        blob = pickle.dumps(self._payloads, protocol=pickle.HIGHEST_PROTOCOL)
        ctx = multiprocessing.get_context()
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(blob, worker),
            )
            for worker in range(self.max_workers)
        ]
        self._started = True

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        for shm in self._blocks.values():
            shm.close()
            shm.unlink()
        self._blocks = {}

    def _respawn(self) -> None:
        """Tear down the pools, one of them broken, and start fresh ones."""
        for pool in self._pools:
            # a broken pool's worker is dead; don't wait on it
            pool.shutdown(wait=False)
        self._pools = []
        self.start()

    def reset_run(self) -> None:
        super().reset_run()
        self._run_restarts = 0
        self._run_redispatched = 0

    def collect_into(self, registry: MetricsRegistry) -> None:
        super().collect_into(registry)
        if self._run_restarts:
            registry.counter("executor.pool_restarts").inc(
                self._run_restarts
            )
            registry.counter("executor.redispatched_tasks").inc(
                self._run_redispatched
            )

    # -- execution ------------------------------------------------------
    def execute(self, task: ComputeTask) -> DispatchResult:
        return self.dispatch([task])[0]

    def dispatch(self, batch: List[ComputeTask]) -> List[DispatchResult]:
        attempt = 0
        while True:
            try:
                return self._dispatch_once(batch)
            except BrokenExecutor as exc:
                if attempt >= self.MAX_RETRIES:
                    self._events.append({
                        "kind": "pool-failure",
                        "detail": (
                            f"worker pool died {attempt + 1} time(s) "
                            f"dispatching a batch of {len(batch)} task(s); "
                            f"retries exhausted (MAX_RETRIES="
                            f"{self.MAX_RETRIES})"
                        ),
                    })
                    raise RuntimeError(
                        f"process pool worker death persisted through "
                        f"{self.MAX_RETRIES} respawn(s) for a batch of "
                        f"{len(batch)} task(s): {exc!r}"
                    ) from exc
                attempt += 1
                self._run_restarts += 1
                self._run_redispatched += len(batch)
                self._events.append({
                    "kind": "pool-respawn",
                    "detail": (
                        f"worker death ({exc!r}); respawned pool and "
                        f"re-dispatched {len(batch)} task(s) "
                        f"[attempt {attempt}/{self.MAX_RETRIES}]"
                    ),
                })
                time.sleep(self.RETRY_BACKOFF * (2 ** (attempt - 1)))
                self._respawn()

    def _stage(self, index: int,
               task: ComputeTask) -> Tuple[List[Any], int]:
        """Copy the inputs of the batch's ``index``-th task into staging
        blocks; return the worker's block specs and the bytes staged.
        Array slot ``i`` at batch position ``index`` has one block for the
        executor's life: created on first use, replaced when an input
        outgrows it, unlinked in :meth:`close`."""
        from multiprocessing import shared_memory

        specs, nbytes = [], 0
        for i, arr in enumerate(task.arrays):
            a = np.ascontiguousarray(arr)
            shm = self._blocks.get((index, i))
            if shm is None or shm.size < a.nbytes:
                if shm is not None:
                    shm.close()
                    shm.unlink()
                shm = self._blocks[index, i] = shared_memory.SharedMemory(
                    create=True, size=max(1, a.nbytes)
                )
            np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf)[...] = a
            specs.append(((index, i), shm.name, a.shape, a.dtype.str))
            nbytes += int(a.nbytes)
        return specs, nbytes

    def _dispatch_once(
        self, batch: List[ComputeTask]
    ) -> List[DispatchResult]:
        self.start()
        futures = []
        shm_per_task: List[int] = []
        try:
            for index, task in enumerate(batch):
                try:
                    pickle.dumps((task.args, task.tail),
                                 protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    bad = "task arguments"
                    for item in (*task.args, *task.tail):
                        try:
                            pickle.dumps(
                                item, protocol=pickle.HIGHEST_PROTOCOL
                            )
                        except Exception:
                            bad = type(item).__name__
                            break
                    raise PayloadPicklingError(
                        bad,
                        payload_key=task.payload, method=task.method,
                        cause=exc,
                    ) from exc
                specs, nbytes = self._stage(index, task)
                shm_per_task.append(nbytes)
                place = index if task.rank is None else task.rank
                pool = self._pools[place % self.max_workers]
                futures.append(pool.submit(
                    _worker_exec, task.payload, task.method,
                    task.args, task.tail, specs, task.owner,
                ))
        finally:
            # barrier, also when staging or a submission failed: the next
            # dispatch rewrites the blocks these tasks read (a dead worker
            # fails only its own pool's futures)
            wait(futures)
        results = []
        for fut, nbytes in zip(futures, shm_per_task):
            (wid, t0, t1, elapsed, billed_s, value, error,
             metrics) = fut.result()
            results.append(DispatchResult(
                value=value, error=error, worker=wid, elapsed=elapsed,
                billed_s=billed_s, wall_t0=t0, wall_t1=t1,
                shm_bytes=nbytes, metrics=metrics,
            ))
        for result in results:
            self._bucket(result)
        return results
