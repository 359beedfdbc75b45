"""Reusable tree state: build + moments + traversal + layouts + finished
fields behind one cache.

PFASST calls the tree code over and over: M quadrature nodes x K sweeps x
iterations, on two levels that share the *same particle set* and differ
only in ``theta``.  Rebuilding the octree, the multipole moments and the
interaction lists from scratch on every RHS call therefore repeats a large
amount of state-identical work:

* an evaluation that repeats an earlier one bit for bit — same
  positions, charges and evaluator parameters (SDC's ``f(u_end)``
  re-evaluated as the next step's ``f(u_0)``, sweep node-0
  re-evaluations, the FAS restriction at unchanged states, a PFASST
  rank's predictor retracing its predecessors') — needs no tree work at
  all: the finished field is handed back;
* the paper's fine/coarse evaluator pair (``theta = 0.3`` / ``0.6``) can
  share one tree and one moment pass, re-running only the
  ``theta``-dependent traversal.

:class:`TreeStateCache` realises both.  States are keyed by a cheap
content fingerprint (BLAKE2 over the raw array bytes) of ``positions``
plus the build parameters, so in-place mutation of a caller array simply
produces a miss — there is no way to observe a stale tree.  Everything
derived from a state's tree is a keyed product of
:meth:`TreeState.product`, the one place a tree product is looked up,
counted, computed, timed and stored: moments per charge fingerprint,
traversals per ``(theta, mac_variant)``, engine layouts per ``(theta,
mac_variant, segment)``, and the space-parallel evaluator's shards,
branch payloads and leaf groups.  The last stage, a memo of finished
fields (:meth:`TreeStateCache.field` / :meth:`TreeStateCache.store_field`),
is looked up before any of them, keyed by the two fingerprints plus
everything else the field depends on (the evaluator builds the key).
States, products and fields sit in one kind of bounded LRU that sizes
each entry once when it is stored, so :attr:`TreeStateCache.nbytes` is
a running total.  Hit/miss counters per stage are kept in
:class:`CacheStats`; the evaluators surface per-call flags in
``TreeStats``, and the ``tree_build`` / ``moments`` / ``traverse`` /
``layout`` phase spans of a traced run (:mod:`repro.obs.tracer`) are
recorded on misses only, so a trace directly shows the work saved.  When
a global metrics registry is active (:func:`repro.obs.use_metrics`),
every hit/miss also increments a ``tree.cache.<stage>.<hits|misses>``
counter there, and every :meth:`TreeStateCache.state` call sets the
``tree.cache.bytes`` gauge to the bytes the cache holds.

**Virtual time.**  The memo is shared by every rank program of a
simulated-MPI run, but a real rank only has what it computed itself.
Each entry therefore records the seconds its evaluation took and who
has paid for it (:data:`repro.obs.ledger.LEDGER` names the rank
computing now).  A repeat by a payer is free — a real rank would have
the result too, and so does code outside any scheduler — while a hit by
another rank is billed the recorded seconds on that rank's virtual
clock (and makes it a payer).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, Iterator, Optional, Set, Tuple,
)

import numpy as np

from repro.tree.build import Octree, build_octree
from repro.tree.multipole import VortexMoments, compute_vortex_moments
from repro.obs.ledger import LEDGER
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.tree.traversal import InteractionLists, dual_traversal

__all__ = ["array_fingerprint", "CacheStats", "TreeState", "TreeStateCache"]


def _nbytes(obj: object) -> int:
    """Bytes held by a cached product, taken once when it is stored: its
    own ``nbytes`` when it reports one (arrays, engine layouts), else the
    sum over its ndarray attributes (tree, moments, interaction lists,
    shards); tuples and dict values are summed, ``None`` holds none."""
    if obj is None:
        return 0
    if isinstance(obj, dict):
        obj = tuple(obj.values())
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    own = getattr(obj, "nbytes", None)
    if own is not None:
        return int(own)
    return sum(
        v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)
    )


def array_fingerprint(array: np.ndarray) -> bytes:
    """Content fingerprint of an array (shape, dtype and raw bytes)."""
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(array.shape).encode())
    h.update(array.dtype.str.encode())
    h.update(array.view(np.uint8).reshape(-1).data)
    return h.digest()


@dataclass
class CacheStats:
    """Cumulative hit/miss counters, one pair per pipeline stage.

    A hit of the last stage (``field``) also counts as a hit of the
    ``build``, ``moment`` and ``traversal`` stages it skipped.
    """

    build_hits: int = 0
    build_misses: int = 0
    moment_hits: int = 0
    moment_misses: int = 0
    traversal_hits: int = 0
    traversal_misses: int = 0
    field_hits: int = 0
    field_misses: int = 0

    def count(self, stage: str, hit: bool) -> None:
        """Increment one stage's hit or miss counter (and the active
        metrics registry's ``tree.cache.<stage>.<hits|misses>``)."""
        attr = f"{stage}_{'hits' if hit else 'misses'}"
        setattr(self, attr, getattr(self, attr) + 1)
        m = get_metrics()
        if m.enabled:
            m.counter(
                f"tree.cache.{stage}.{'hits' if hit else 'misses'}"
            ).inc()

    def as_dict(self) -> Dict[str, int]:
        """The counters of the three tree stages (``field_hits`` /
        ``field_misses`` are read as attributes)."""
        return {
            "build_hits": self.build_hits,
            "build_misses": self.build_misses,
            "moment_hits": self.moment_hits,
            "moment_misses": self.moment_misses,
            "traversal_hits": self.traversal_hits,
            "traversal_misses": self.traversal_misses,
        }


class _LRU:
    """A bounded least-recently-used map with a running byte count.

    Each value is stored with the bytes it holds, sized once by the
    caller; :attr:`nbytes` is kept up to date on every store and
    eviction, so reading it walks no arrays.  Plain attributes only: it
    pickles with the cache it belongs to (evaluators ship to
    ``ProcessExecutor`` workers).
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.nbytes = 0
        self._items: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def values(self) -> Iterator[Any]:
        return (value for value, _ in self._items.values())

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recent, or ``None``."""
        item = self._items.get(key)
        if item is None:
            return None
        self._items.move_to_end(key)
        return item[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Store ``value``, which holds ``nbytes``, under a new ``key``;
        drop the least recent entries past ``cap``."""
        self._items[key] = (value, nbytes)
        self.nbytes += nbytes
        while len(self._items) > self.cap:
            _, (_, dropped) = self._items.popitem(last=False)
            self.nbytes -= dropped

    def clear(self) -> None:
        self._items.clear()
        self.nbytes = 0


#: product kind (``key[0]``) -> the :class:`CacheStats` stage it counts
#: in and the ``phase`` span its computation opens; other kinds have none
_STAGES = {
    "moment": ("moment", "moments"),
    "traversal": ("traversal", "traverse"),
    "layout": (None, "layout"),
}


class TreeState:
    """One built octree plus the products derived from it.

    Every product lives in one keyed memo, :meth:`product`: moments per
    charge set, interaction lists per ``(theta, mac_variant)``, engine
    layouts per traversal and segment, the space shards and branch
    payloads of the space-parallel evaluator, and the leaf groups.
    Created and owned by :class:`TreeStateCache`; evaluators never build
    trees directly.
    """

    #: products kept per state, least recently used dropped first.  A
    #: P_T = 2 x P_S = 2 grid run holds at most 14 on one state.
    _PRODUCT_SLOTS = 32

    def __init__(self, tree: Octree, stats: CacheStats) -> None:
        self.tree = tree
        self._stats = stats
        self._tree_nbytes = _nbytes(tree)
        self._memo = _LRU(self._PRODUCT_SLOTS)

    @property
    def nbytes(self) -> int:
        """Bytes of the tree plus each product's own size: an array shared
        between products counts once per product (664520 bytes, +5.9% over
        an id-deduplicated walk, after a fine and a coarse P_S = 2
        evaluation at N = 2048)."""
        return self._tree_nbytes + self._memo.nbytes

    def product(
        self, key: Tuple[Hashable, ...], compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """The product memoised under ``key``, or ``compute()`` stored
        there; returns ``(product, was_cached)``.

        ``key[0]`` names the product kind, the rest everything its value
        depends on beyond this state's tree.  Lookups of a counted kind
        count a hit or miss in :class:`CacheStats`, and a timed kind
        computes inside its ``phase`` span (``_STAGES``).
        """
        stage, span = _STAGES.get(key[0], (None, None))
        found = self._memo.get(key)
        if stage is not None:
            self._stats.count(stage, hit=found is not None)
        if found is not None:
            return found, True
        with get_tracer().span(span, cat="phase") if span else nullcontext():
            found = compute()
        self._memo.put(key, found, _nbytes(found))
        return found, False

    @property
    def groups(self) -> np.ndarray:
        """Leaf node ids (traversal target groups)."""
        return self.product(("groups",), self.tree.leaves)[0]

    def vortex_moments(
        self, charges: np.ndarray
    ) -> Tuple[VortexMoments, bool]:
        """Moments for vector charges; returns ``(moments, was_cached)``."""
        return self.product(
            ("moment", array_fingerprint(charges)),
            lambda: compute_vortex_moments(self.tree, charges),
        )

    def traversal(
        self,
        theta: float,
        variant: str,
        node_bmax: np.ndarray,
    ) -> Tuple[InteractionLists, bool]:
        """Interaction lists for ``(theta, variant)``; cached per state.

        ``node_bmax`` comes from the moment pass but is purely geometric
        (distances of particles to cell centers), hence identical for
        every charge set over the same tree — safe to key the traversal
        by ``(theta, variant)`` alone.
        """
        return self.product(
            ("traversal", float(theta), str(variant)),
            lambda: dual_traversal(
                self.tree, theta, node_bmax=node_bmax, variant=variant
            ),
        )


@dataclass
class _FieldEntry:
    """One memoised evaluation."""

    arrays: Tuple[Optional[np.ndarray], ...]
    #: the evaluator's work statistics of the stored evaluation
    stats: Any
    #: wall seconds the evaluation took
    seconds: float
    #: ledger owners whose clocks have been charged for it
    payers: Set[Hashable]


def _copies(
    arrays: Tuple[Optional[np.ndarray], ...]
) -> Tuple[Optional[np.ndarray], ...]:
    return tuple(None if a is None else a.copy() for a in arrays)


class TreeStateCache:
    """LRU cache of :class:`TreeState` keyed by particle positions, plus
    the memo of finished fields.

    One cache instance may be *shared* by several evaluators — the paper's
    fine/coarse pair shares one tree and one moment pass and re-runs only
    its own traversal.
    """

    #: distinct particle configurations kept alive (PFASST touches a
    #: handful per time slice)
    _STATE_SLOTS = 8

    #: finished fields kept.  On the Fig. 8 run (PFASST(2,2,4), 4 time
    #: ranks in one process) no repeat lies more than 18 distinct
    #: evaluations behind its original.
    _FIELD_SLOTS = 24

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._states = _LRU(self._STATE_SLOTS)
        self._fields = _LRU(self._FIELD_SLOTS)

    def __len__(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        self._states.clear()
        self._fields.clear()

    @property
    def nbytes(self) -> int:
        """Bytes held by all cached states (see :attr:`TreeState.nbytes`)
        and memoised fields: running totals, O(states) to read."""
        return self._fields.nbytes + sum(
            state.nbytes for state in self._states.values()
        )

    def field(
        self, key: Tuple[Hashable, ...]
    ) -> Optional[Tuple[Tuple[Optional[np.ndarray], ...], Any]]:
        """The finished field stored under ``key`` as ``(copies of its
        arrays, stats)``, or ``None``.  The key must hold everything the
        result depends on, array contents included
        (:func:`array_fingerprint`).

        A hit stands for a hit of every stage it skips.  If the rank
        computing now (:data:`~repro.obs.ledger.LEDGER`) has not paid for
        the entry it is billed the seconds the evaluation took.
        """
        entry = self._fields.get(key)
        if entry is None:
            self.stats.count("field", hit=False)
            return None
        for stage in ("build", "moment", "traversal", "field"):
            self.stats.count(stage, hit=True)
        owner = LEDGER.owner
        if owner is not None and owner not in entry.payers:
            entry.payers.add(owner)
            LEDGER.bill(entry.seconds)
            m = get_metrics()
            if m.enabled:
                m.counter("tree.cache.field.billed_s").inc(entry.seconds)
        return _copies(entry.arrays), entry.stats

    def store_field(
        self,
        key: Tuple[Hashable, ...],
        arrays: Tuple[Optional[np.ndarray], ...],
        stats: Any,
        seconds: float,
    ) -> None:
        """Memoise a finished evaluation that took ``seconds``; the
        arrays are copied, the oldest entry beyond ``_FIELD_SLOTS``
        dropped."""
        payers = set() if LEDGER.owner is None else {LEDGER.owner}
        arrays = _copies(arrays)
        self._fields.put(
            key, _FieldEntry(arrays, stats, seconds, payers), _nbytes(arrays)
        )

    def state(
        self, positions: np.ndarray, leaf_size: int
    ) -> Tuple[TreeState, bool]:
        """Tree state for a particle configuration; ``(state, was_cached)``."""
        key = (array_fingerprint(positions), int(leaf_size))
        state = self._states.get(key)
        cached = state is not None
        self.stats.count("build", hit=cached)
        if not cached:
            with get_tracer().span("tree_build", cat="phase"):
                tree = build_octree(positions, leaf_size=leaf_size)
            state = TreeState(tree, self.stats)
            # a state's bytes are its own running total (TreeState.nbytes)
            self._states.put(key, state, 0)
        m = get_metrics()
        if m.enabled:
            m.gauge("tree.cache.bytes").set(self.nbytes)
        return state, cached
