"""Reusable tree state: build + moments + traversal behind one cache.

PFASST calls the tree code over and over: M quadrature nodes x K sweeps x
iterations, on two levels that share the *same particle set* and differ
only in ``theta``.  Rebuilding the octree, the multipole moments and the
interaction lists from scratch on every RHS call therefore repeats a large
amount of state-identical work:

* repeated evaluations at the same ``(positions, charges)`` (the sweep's
  node-0 re-evaluations, the FAS restriction re-evaluating the coarse RHS
  at the states the fine level just visited) can reuse *everything* up to
  the final far/near summation;
* the paper's fine/coarse evaluator pair (``theta = 0.3`` / ``0.6``) can
  share one tree and one moment pass, re-running only the
  ``theta``-dependent traversal.

:class:`TreeStateCache` realises both.  States are keyed by a cheap
content fingerprint (BLAKE2 over the raw array bytes) of ``positions``
plus the build parameters, so in-place mutation of a caller array simply
produces a miss — there is no way to observe a stale tree.  Within a
state, moments are keyed by the charge-array fingerprint and traversals by
``(theta, mac_variant)``.  Hit/miss counters per stage are kept in
:class:`CacheStats`; the evaluators surface per-call flags in
``TreeStats`` and only time the ``tree_build`` / ``moments`` / ``traverse``
phases on misses, so a :class:`~repro.obs.timing.TimingRegistry` report
directly shows the work saved.  When a global metrics registry is active
(:func:`repro.obs.use_metrics`), every hit/miss also increments a
``tree.cache.<stage>.<hits|misses>`` counter there, and every
:meth:`TreeStateCache.state` call sets the ``tree.cache.bytes`` gauge to
the bytes the cache holds (:attr:`TreeStateCache.nbytes`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.tree.build import Octree, build_octree
from repro.tree.multipole import (
    CoulombMoments,
    VortexMoments,
    compute_coulomb_moments,
    compute_vortex_moments,
)
from repro.obs.metrics import get_metrics
from repro.obs.timing import TimingRegistry
from repro.tree.traversal import InteractionLists, dual_traversal

__all__ = ["array_fingerprint", "CacheStats", "TreeState", "TreeStateCache"]


def _nbytes(obj: object) -> int:
    """Bytes held by a cached product: its own ``nbytes`` when it reports
    one (arrays, engine layouts), else the sum over its ndarray
    attributes (tree, moments, interaction lists); tuples are summed."""
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
    """Cumulative hit/miss counters, one pair per pipeline stage."""

    build_hits: int = 0
    build_misses: int = 0
    moment_hits: int = 0
    moment_misses: int = 0
    traversal_hits: int = 0
    traversal_misses: int = 0

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
        return {
            "build_hits": self.build_hits,
            "build_misses": self.build_misses,
            "moment_hits": self.moment_hits,
            "moment_misses": self.moment_misses,
            "traversal_hits": self.traversal_hits,
            "traversal_misses": self.traversal_misses,
        }


class TreeState:
    """One built octree plus its derived, lazily-cached products.

    Holds the tree itself, multipole moments per charge set (vortex and
    Coulomb kinds side by side) and interaction lists per
    ``(theta, mac_variant)``.  Created and owned by
    :class:`TreeStateCache`; evaluators never build trees directly.
    """

    def __init__(self, tree: Octree, stats: CacheStats) -> None:
        self.tree = tree
        self._stats = stats
        self._vortex_moments: "OrderedDict[bytes, VortexMoments]" = OrderedDict()
        self._coulomb_moments: "OrderedDict[bytes, CoulombMoments]" = OrderedDict()
        self._traversals: Dict[Tuple[float, str], InteractionLists] = {}
        #: per-traversal engine layouts, attached by the batched engine
        #: (keyed like ``_traversals``; opaque to this module)
        self.engine_layouts: Dict[Tuple[float, str], object] = {}
        self._groups: Optional[np.ndarray] = None

    # A handful of charge sets coexist per state (e.g. gradient on/off
    # callers, multirate freeze snapshots); keep the map tiny.
    _MOMENT_SLOTS = 4

    @property
    def nbytes(self) -> int:
        """Bytes this state keeps alive: tree, moment sets, interaction
        lists and engine layouts (with their cached far weights)."""
        held = [
            self.tree, *self._vortex_moments.values(),
            *self._coulomb_moments.values(), *self._traversals.values(),
            *self.engine_layouts.values(),
        ]
        return sum(_nbytes(h) for h in held)

    @property
    def groups(self) -> np.ndarray:
        """Leaf node ids (traversal target groups), computed once."""
        if self._groups is None:
            self._groups = self.tree.leaves()
        return self._groups

    def vortex_moments(
        self, charges: np.ndarray, phases: Optional[TimingRegistry] = None
    ) -> Tuple[VortexMoments, bool]:
        """Moments for vector charges; returns ``(moments, was_cached)``."""
        key = array_fingerprint(charges)
        hit = self._vortex_moments.get(key)
        if hit is not None:
            self._stats.count("moment", hit=True)
            self._vortex_moments.move_to_end(key)
            return hit, True
        self._stats.count("moment", hit=False)
        if phases is not None:
            with phases.phase("moments"):
                moments = compute_vortex_moments(self.tree, charges)
        else:
            moments = compute_vortex_moments(self.tree, charges)
        self._vortex_moments[key] = moments
        while len(self._vortex_moments) > self._MOMENT_SLOTS:
            self._vortex_moments.popitem(last=False)
        return moments, False

    def coulomb_moments(
        self, charges: np.ndarray, phases: Optional[TimingRegistry] = None
    ) -> Tuple[CoulombMoments, bool]:
        """Moments for scalar charges; returns ``(moments, was_cached)``."""
        key = array_fingerprint(charges)
        hit = self._coulomb_moments.get(key)
        if hit is not None:
            self._stats.count("moment", hit=True)
            self._coulomb_moments.move_to_end(key)
            return hit, True
        self._stats.count("moment", hit=False)
        if phases is not None:
            with phases.phase("moments"):
                moments = compute_coulomb_moments(self.tree, charges)
        else:
            moments = compute_coulomb_moments(self.tree, charges)
        self._coulomb_moments[key] = moments
        while len(self._coulomb_moments) > self._MOMENT_SLOTS:
            self._coulomb_moments.popitem(last=False)
        return moments, False

    def traversal(
        self,
        theta: float,
        variant: str,
        node_bmax: np.ndarray,
        phases: Optional[TimingRegistry] = None,
    ) -> Tuple[InteractionLists, bool]:
        """Interaction lists for ``(theta, variant)``; cached per state.

        ``node_bmax`` comes from the moment pass but is purely geometric
        (distances of particles to cell centers), hence identical for
        every charge set over the same tree — safe to key the traversal
        by ``(theta, variant)`` alone.
        """
        key = (float(theta), str(variant))
        hit = self._traversals.get(key)
        if hit is not None:
            self._stats.count("traversal", hit=True)
            return hit, True
        self._stats.count("traversal", hit=False)
        if phases is not None:
            with phases.phase("traverse"):
                lists = dual_traversal(
                    self.tree, theta, node_bmax=node_bmax, variant=variant
                )
        else:
            lists = dual_traversal(
                self.tree, theta, node_bmax=node_bmax, variant=variant
            )
        self._traversals[key] = lists
        return lists, False


class TreeStateCache:
    """LRU cache of :class:`TreeState` keyed by particle positions.

    One cache instance may be *shared* by several evaluators — the paper's
    fine/coarse pair shares one tree and one moment pass and re-runs only
    its own traversal.  ``maxsize`` bounds the number of distinct particle
    configurations kept alive (PFASST touches a handful per time slice).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.stats = CacheStats()
        self._states: "OrderedDict[Tuple[bytes, int], TreeState]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        self._states.clear()

    @property
    def nbytes(self) -> int:
        """Bytes held by all cached states (see :attr:`TreeState.nbytes`)."""
        return sum(state.nbytes for state in self._states.values())

    def state(
        self,
        positions: np.ndarray,
        leaf_size: int,
        phases: Optional[TimingRegistry] = None,
    ) -> Tuple[TreeState, bool]:
        """Tree state for a particle configuration; ``(state, was_cached)``."""
        key = (array_fingerprint(positions), int(leaf_size))
        state = self._states.get(key)
        cached = state is not None
        self.stats.count("build", hit=cached)
        if cached:
            self._states.move_to_end(key)
        else:
            if phases is not None:
                with phases.phase("tree_build"):
                    tree = build_octree(positions, leaf_size=leaf_size)
            else:
                tree = build_octree(positions, leaf_size=leaf_size)
            state = TreeState(tree, self.stats)
            self._states[key] = state
            while len(self._states) > self.maxsize:
                self._states.popitem(last=False)
        m = get_metrics()
        if m.enabled:
            m.gauge("tree.cache.bytes").set(self.nbytes)
        return state, cached
