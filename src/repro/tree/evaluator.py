"""Barnes-Hut field evaluators (the "PEPC" front end).

:class:`TreeEvaluator` implements the vortex-method
:class:`~repro.vortex.problem.FieldEvaluator` interface in
``O(N log N)``: build the oct-tree, compute multipole moments, run the
group-collective dual traversal, then evaluate far interactions by
multipole expansion and near interactions by direct summation.

Both summation phases run through the batched engine
(:mod:`repro.tree.engine`): interaction lists are laid out once per
traversal and evaluated in memory-budgeted, padded batches, so
Python-level iteration no longer scales with the number of target
groups.  Tree build, moments, traversal and the
finished field are obtained through a
:class:`~repro.tree.state.TreeStateCache` keyed by a content fingerprint
of the particle arrays: an RHS evaluation that repeats an earlier one
(SDC node-0 re-evaluations, FAS restriction at unchanged states, a
PFASST rank retracing its predecessors' predictor) is answered from the
cache's memo of finished fields before any tree work, and one at known
positions with new charges reuses the tree and the interaction lists.

The multipole acceptance parameter ``theta`` controls the accuracy/cost
trade-off; PFASST's particle-based coarsening (the paper's contribution)
is simply two ``TreeEvaluator`` instances sharing everything but ``theta``
(0.3 fine / 0.6 coarse in the paper's runs).  Use :meth:`coarsened` to
derive the coarse evaluator: it shares the fine evaluator's state cache,
so the pair shares one tree and one moment pass per particle
configuration and re-runs only its own traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional, Tuple, get_args

import numpy as np

from repro.analysis.sanitize import boundary
from repro.tree.build import Octree
from repro.tree.engine import (
    TraversalLayout,
    batched_far_vortex,
    batched_near_vortex,
    build_traversal_layout,
)
from repro.obs.metrics import get_metrics
from repro.obs.timing import Timer
from repro.obs.tracer import get_tracer
from repro.tree.mac import MACVariant
from repro.tree.multipole import VortexMoments
from repro.tree.profiles import supports_multipoles
from repro.tree.state import (
    CacheStats,
    TreeState,
    TreeStateCache,
    array_fingerprint,
)
from repro.tree.traversal import InteractionLists
from repro.utils.validation import check_in, check_positive
from repro.vortex.kernels import SingularKernel, SmoothingKernel, get_kernel
from repro.vortex.problem import FieldEvaluator
from repro.vortex.rhs import VelocityField

__all__ = ["TreeStats", "TreeEvaluator"]


@dataclass
class TreeStats:
    """Work statistics of the most recent tree evaluation."""

    n_particles: int = 0
    n_nodes: int = 0
    n_groups: int = 0
    mac_tests: int = 0
    far_pairs: int = 0
    near_pairs: int = 0
    far_interactions: int = 0
    near_interactions: int = 0
    #: which pipeline stages were served from the state cache
    build_cached: bool = False
    moments_cached: bool = False
    traversal_cached: bool = False
    #: the whole evaluation was answered from the memo of finished
    #: fields (which sets the three flags above as well)
    field_cached: bool = False

    @property
    def interactions_per_particle(self) -> float:
        if self.n_particles == 0:
            return 0.0
        return (self.far_interactions + self.near_interactions) / self.n_particles


def _make_stats(
    tree: Octree,
    lists: InteractionLists,
    build_cached: bool,
    moments_cached: bool,
    traversal_cached: bool,
) -> TreeStats:
    return _count_evaluation(TreeStats(
        n_particles=tree.n_particles,
        n_nodes=tree.n_nodes,
        n_groups=lists.n_groups,
        mac_tests=lists.mac_tests,
        far_pairs=int(lists.far_group.size),
        near_pairs=int(lists.near_group.size),
        far_interactions=lists.far_interaction_count(tree),
        near_interactions=lists.near_interaction_count(tree),
        build_cached=build_cached,
        moments_cached=moments_cached,
        traversal_cached=traversal_cached,
    ))


def _count_evaluation(stats: TreeStats) -> TreeStats:
    """Report one evaluation — computed or answered from the memo — to
    the active metrics registry; returns ``stats``."""
    m = get_metrics()
    if m.enabled:
        m.counter("tree.evaluations").inc()
        m.counter("tree.mac_tests").inc(stats.mac_tests)
        m.counter("tree.far_pairs").inc(stats.far_pairs)
        m.counter("tree.near_pairs").inc(stats.near_pairs)
        m.histogram("tree.interactions_per_particle").observe(
            stats.interactions_per_particle
        )
    return stats


def _engine_layout(
    solver: "TreeEvaluator",
    state: TreeState,
    lists: InteractionLists,
) -> TraversalLayout:
    """Per-traversal engine layout, cached on the state object."""
    key = (float(solver.theta), str(solver.mac_variant))
    layout = state.engine_layouts.get(key)
    if layout is None:
        with get_tracer().span("layout", cat="phase"):
            layout = build_traversal_layout(state.tree, lists)
        state.engine_layouts[key] = layout
    return layout


def _tree_stages(
    solver: "TreeEvaluator",
    positions: np.ndarray,
    charges: np.ndarray,
    segment: Optional[Tuple[int, int]] = None,
) -> Tuple[
    TreeState, VortexMoments, InteractionLists, TraversalLayout,
    Tuple[bool, ...],
]:
    """Everything a tree evaluation needs before its summation passes:
    tree, moments, the traversal at the solver's MAC and the engine
    layout, each taken from the solver's cache or computed into it.

    ``segment`` — ``(p_space, rank)``, given by
    ``SpaceParallelTreeEvaluator.segment_field`` only — restricts lists
    and layout to that shard's target groups.  Returns ``(state,
    moments, lists, layout, cached)``; ``cached`` holds the ``build`` /
    ``moments`` / ``traversal`` flags of :class:`TreeStats`.
    """
    state, build_cached = solver.cache.state(positions, solver.leaf_size)
    moments, moments_cached = state.vortex_moments(charges)
    lists, traversal_cached = state.traversal(
        solver.theta, solver.mac_variant, moments.bmax
    )
    if segment is None:
        layout = _engine_layout(solver, state, lists)
    else:
        lists, layout = solver._segment_layout(state, lists, *segment)
    return state, moments, lists, layout, (
        build_cached, moments_cached, traversal_cached
    )


class TreeEvaluator(FieldEvaluator):
    """Barnes-Hut evaluator for the vortex RHS.

    Parameters
    ----------
    kernel :
        Smoothing kernel, a registry name or an instance.  It must have
        an exact multipole radial chain (the algebraic and singular
        kernels do); any other is rejected here.
    sigma :
        Core size.
    theta :
        Multipole acceptance parameter; larger = faster and less accurate.
    order :
        Multipole order: 0 monopole, 1 dipole, 2 quadrupole (default).
    leaf_size :
        Particles per leaf; leaves double as traversal target groups.
    mac_variant :
        ``"bh"`` (classical, the paper's choice) or ``"bmax"``.
    cache :
        :class:`~repro.tree.state.TreeStateCache` for tree / moment /
        traversal / finished-field reuse.  Pass a shared instance to let
        several evaluators (e.g. a fine/coarse theta pair) share trees
        and moments; by default each evaluator owns a private cache
        (still reused across its own calls).

    A traced run (:func:`repro.obs.use_tracer`) records each stage this
    evaluator computes — ``tree_build``, ``moments``, ``traverse``,
    ``layout``, ``far_field``, ``near_field`` — as a wall-clock span of
    category ``"phase"``; a stage served from the cache records none.
    """

    def __init__(
        self,
        kernel: SmoothingKernel | str,
        sigma: float,
        theta: float = 0.3,
        order: int = 2,
        leaf_size: int = 32,
        mac_variant: MACVariant = "bh",
        cache: Optional[TreeStateCache] = None,
    ) -> None:
        super().__init__()
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        if not supports_multipoles(self.kernel):
            raise ValueError(
                f"kernel {self.kernel.name!r} lacks an exact multipole "
                "expansion; use DirectEvaluator or an algebraic kernel"
            )
        self.sigma = check_positive("sigma", sigma)
        # bad values fail here, not at the first traversal (which, under
        # PFASST, runs inside a rank program).  NaN fails the comparison;
        # an infinite theta would accept every cluster, a leaf's own
        # included, as far
        if not 0.0 <= theta < np.inf:
            raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
        self.theta = float(theta)
        self.order = check_in("order", order, (0, 1, 2))
        self.mac_variant = check_in(
            "mac_variant", mac_variant, get_args(MACVariant)
        )
        if not isinstance(leaf_size, (int, np.integer)) or leaf_size < 1:
            raise ValueError(
                f"leaf_size must be an integer >= 1, got {leaf_size!r}"
            )
        self.leaf_size = int(leaf_size)
        self.cache = cache if cache is not None else TreeStateCache()
        self.last_stats = TreeStats()
        self._exclude_zero = (
            isinstance(self.kernel, SingularKernel)
            and self.kernel.softening == 0.0
        )

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the underlying state cache."""
        return self.cache.stats

    def coarsened(self, theta: float) -> "TreeEvaluator":
        """A theta-coarsened evaluator of this one's class sharing its
        state cache.

        The returned evaluator reuses every tree build and moment pass of
        this evaluator (and vice versa) and only runs its own traversal —
        the paper's fine/coarse pair for the price of one tree pipeline.
        """
        return type(self)(
            self.kernel,
            self.sigma,
            theta=theta,
            order=self.order,
            leaf_size=self.leaf_size,
            mac_variant=self.mac_variant,
            cache=self.cache,
        )

    # -- the memo of finished fields (last stage of the state cache) -----
    def _field_key(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        gradient: bool,
        segment: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Hashable, ...]:
        """Memo key of one evaluation: array contents plus everything
        else its bits depend on (``segment`` is ``(p_space, rank)``)."""
        return (
            array_fingerprint(positions), array_fingerprint(charges),
            type(self.kernel), tuple(sorted(vars(self.kernel).items())),
            self.sigma, self.theta, self.mac_variant, self.order,
            self.leaf_size, gradient, self._exclude_zero, segment,
        )

    def _memoised(
        self, key: Tuple[Hashable, ...]
    ) -> Optional[Tuple[Optional[np.ndarray], ...]]:
        """Copies of the arrays memoised under ``key``, or ``None``.  A
        hit is reported like the evaluation it stands for, with every
        ``*_cached`` flag of ``last_stats`` set."""
        hit = self.cache.field(key)
        if hit is None:
            return None
        arrays, stats = hit
        self.last_stats = _count_evaluation(replace(
            stats, build_cached=True, moments_cached=True,
            traversal_cached=True, field_cached=True,
        ))
        return arrays

    @boundary("tree_evaluate", arrays=[
        ("positions", (None, 3)), ("charges", (None, 3)),
    ])
    def _pipeline(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        gradient: bool,
        segment: Optional[Tuple[int, int]],
        finish: Callable[
            [TreeState, np.ndarray, Optional[np.ndarray]],
            Tuple[np.ndarray, Optional[np.ndarray]],
        ],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The one tree evaluation behind :meth:`field` and
        ``segment_field``: memo lookup, the cached stages, far and near
        pass over the whole tree or over ``segment``'s share of it,
        statistics, memo store.

        ``finish(state, vel, grad)`` turns the tree-order accumulators
        into the arrays the entrance returns, which are also what the
        memo keeps.  A memo hit cancels a running ``timer`` activation:
        ``timer`` / ``mean_cost`` describe computed evaluations.
        """
        clock = Timer()
        clock.start()
        key = self._field_key(positions, charges, gradient, segment)
        memo = self._memoised(key)
        if memo is not None:
            self.timer.cancel()
            return memo
        state, moments, lists, layout, cached = _tree_stages(
            self, positions, charges, segment
        )
        tree = state.tree

        n = positions.shape[0]
        vel = np.zeros((n, 3))
        grad = np.zeros((n, 3, 3)) if gradient else None

        tracer = get_tracer()
        with tracer.span("far_field", cat="phase"):
            batched_far_vortex(
                tree, moments, layout, self.kernel, self.sigma,
                self.order, gradient, vel, grad,
            )
        with tracer.span("near_field", cat="phase"):
            batched_near_vortex(
                tree, charges[tree.order], layout, self.kernel, self.sigma,
                gradient, self._exclude_zero, vel, grad,
            )

        self.last_stats = _make_stats(tree, lists, *cached)
        arrays = finish(state, vel, grad)
        self.cache.store_field(key, arrays, self.last_stats, clock.stop())
        return arrays

    def _evaluate(
        self, positions: np.ndarray, charges: np.ndarray, gradient: bool
    ) -> VelocityField:
        def scatter(state, vel, grad):
            # from Morton order back to caller order
            out_v = np.empty_like(vel)
            out_v[state.tree.order] = vel
            out_g = None
            if gradient:
                out_g = np.empty_like(grad)
                out_g[state.tree.order] = grad
            return out_v, out_g

        return VelocityField(*self._pipeline(
            positions, charges, gradient, None, scatter
        ))
