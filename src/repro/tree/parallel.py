"""Space-parallel Barnes-Hut evaluation over simulated MPI (paper Fig. 2).

This module *executes* the paper's space dimension: the P_S ranks of one
space communicator (a row of the P_T x P_S grid, see
:class:`repro.parallel.topology.SpaceTimeGrid`) cooperatively evaluate one
tree RHS.  Following PEPC's Warren-Salmon structure (paper Sec. III-A,
Fig. 3), each space rank

1. owns a contiguous segment of the Morton space-filling curve (counts
   balanced as in PEPC's uniform-weight key-space split, snapped to leaf
   boundaries of the tree so segments are whole target groups),
2. derives its *branch nodes* — the minimal set of aligned octree cells
   covering its occupied key interval (:func:`_cover_cells`) — and
   computes their multipole moments (m0/m1/m2 about the cell
   centers) from its local particles alone, all cells in one vectorised
   pass,
3. exchanges the branch payloads with an ``allgather`` ring collective
   (:func:`repro.parallel.collectives.allgather`), byte-counted into the
   scheduler metrics (``space.branch_bytes{...}``) — the traffic Fig. 5
   shows dominating at small N/P_S,
4. assembles the shared top-of-tree from the received branches (an upward
   multipole translation of every branch to the root center) and verifies
   it against root moments summed directly from the particles (O(N); no
   moment pass runs in the event loop),
5. evaluates far and near interactions *only for its own target groups*
   (a masked view of the global interaction lists driven through the
   batched engine), and
6. allgathers the per-segment RHS so every rank returns the identical
   full field.

Honest simplification versus distributed-memory PEPC: all rank programs
live in one process, so the *globally shared octree* (the structure PEPC
realises by branch exchange plus fetch-on-demand of remote multipoles) is
represented by the in-process :class:`~repro.tree.state.TreeState`.  The
branch exchange is nevertheless performed with real message traffic and
real multipole payloads, and step 4 proves the exchanged data is
sufficient to reconstruct the shared coarse tree — the quantity the
virtual-time model measures.  The arithmetic work of steps 2/5 is
genuinely sharded: each rank computes only its own segment sums and its
own far/near interactions.  The shard, branch payloads and segment
layouts are products of that state
(:meth:`~repro.tree.state.TreeState.product`): this module names their
keys and compute functions and holds no cache of its own.

Every segment takes the same near-field path as the serial
:class:`~repro.tree.evaluator.TreeEvaluator` (the expansion gate is
decided from the full traversal and carried on the segment layout), so
on the pinned sheet shapes the assembled field is bitwise identical to
the serial one.  In general the engine may batch a segment differently
from the full particle set (different GEMM paddings, different
``bincount`` accumulation orders), which bounds the difference at
floating-point roundoff (relative ~1e-15 per call) — the equivalence
tests pin both down.

Fault tolerance: when the grid controller runs with a recovery policy
(``PfasstConfig.recovery != "fail"``), the space communicator handed to
:meth:`SpaceParallelTreeEvaluator.field_program` is an
:class:`~repro.parallel.simmpi.EpochComm` — every tag used here is
transparently namespaced by the current restart attempt, so branch and
RHS traffic from an abandoned attempt can never alias live traffic.
This module needs no changes for that: it addresses the comm it is
given.  See ``docs/resilience.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.parallel import tags
from repro.parallel.collectives import allgather
from repro.parallel.simmpi import VirtualComm
from repro.tree.build import Octree
from repro.tree.engine import TraversalLayout, build_traversal_layout
from repro.tree.evaluator import TreeEvaluator, _caller_order
from repro.tree.morton import cell_of_key, morton_encode, quantize
from repro.tree.multipole import _m2m, _p2m
from repro.tree.state import TreeState, array_fingerprint
from repro.tree.traversal import InteractionLists
from repro.vortex.rhs import VelocityField

__all__ = ["SpaceConsistencyError", "SpaceShard", "SpaceParallelTreeEvaluator"]


class SpaceConsistencyError(RuntimeError):
    """The distributed tree view disagrees with the shared global tree."""


class SpaceShard:
    """Leaf-aligned partition of one tree's particle slots over P_S ranks.

    ``bounds[r]:bounds[r+1]`` is rank ``r``'s contiguous range of *sorted*
    particle slots; ``leaf_bounds`` the matching range into ``leaf_order``
    (group indices sorted by their slot start).  Segments are contiguous
    along the Morton curve and aligned to whole leaves, so every target
    group belongs to exactly one rank and equal keys never straddle a
    boundary.
    """

    def __init__(self, p_space: int, bounds: np.ndarray,
                 leaf_bounds: np.ndarray, leaf_order: np.ndarray,
                 keys: np.ndarray) -> None:
        self.p_space = p_space
        self.bounds = bounds
        self.leaf_bounds = leaf_bounds
        self.leaf_order = leaf_order
        #: full-depth Morton keys of the sorted particles, placeholder
        #: stripped — ascending by construction of the tree sort
        self.keys = keys

    def group_mask(self, rank: int, n_groups: int) -> np.ndarray:
        """Boolean mask over group indices owned by ``rank``."""
        mask = np.zeros(n_groups, dtype=bool)
        lo, hi = self.leaf_bounds[rank], self.leaf_bounds[rank + 1]
        mask[self.leaf_order[lo:hi]] = True
        return mask


def _particle_keys(tree: Octree) -> np.ndarray:
    """Full-depth Morton keys of the tree's sorted particles (no placeholder)."""
    keys = morton_encode(
        quantize(tree.positions, tree.cube, tree.depth), tree.depth
    )
    mask = (np.uint64(1) << np.uint64(3 * tree.depth)) - np.uint64(1)
    keys = keys & mask
    if keys.size > 1 and not bool(np.all(keys[1:] >= keys[:-1])):
        raise SpaceConsistencyError(
            "tree particle keys are not ascending; the tree was not built "
            "from a Morton sort over its own cube/depth"
        )
    return keys


def _cover_cells(lo: int, hi: int, depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal set of aligned octree cells covering keys ``[lo, hi]``.

    Returns ascending ``(keys, levels)`` arrays of each cell's first
    full-depth key and its level (a level-``l`` cell spans
    ``8^(depth - l)`` keys): the branch nodes of a rank owning that
    curve segment.  Computed per level, all levels at once: the aligned
    cells lying wholly inside ``[lo, hi]`` that no such cell of the
    level above contains — at most seven on either side of the parent
    level's run.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= (1 << (3 * depth)):
        raise ValueError(f"range [{lo}, {hi}] outside key space")
    one = np.uint64(1)
    # k = depth - level: a cell spans 8**k keys (8**21 = 2**63 fits)
    k = np.arange(depth + 1, dtype=np.uint64)
    span = one << (np.uint64(3) * k)
    # [first, end): indices of the cells wholly inside [lo, hi]
    first = (np.uint64(lo) + span - one) // span
    end = (np.uint64(hi) + one) // span
    # the parent level's run, in this level's cell indices
    up = np.zeros(depth + 1, dtype=bool)
    up[:-1] = first[1:] < end[1:]
    up_first = np.append(first[1:] << np.uint64(3), np.uint64(0))
    up_end = np.append(end[1:] << np.uint64(3), np.uint64(0))
    starts = np.concatenate([first, np.where(up, up_end, end)])
    stops = np.concatenate([np.where(up, up_first, end), end])
    counts = np.where(stops > starts, stops - starts, 0).astype(np.int64)
    run = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shift = np.tile(k, 2)[run]
    keys = (starts[run] + offset.astype(np.uint64)) * span[shift]
    order = np.argsort(keys, kind="stable")
    return keys[order], depth - shift[order].astype(np.int64)


def compute_shard(state: TreeState, p_space: int) -> SpaceShard:
    """The (cached) leaf-aligned P_S-way shard of a tree state."""
    return state.product(
        ("shard", p_space), lambda: _leaf_shard(state, p_space)
    )[0]


def _leaf_shard(state: TreeState, p_space: int) -> SpaceShard:
    tree = state.tree
    groups = state.groups
    n_leaves = int(groups.shape[0])
    if p_space < 1:
        raise ValueError(f"p_space must be >= 1, got {p_space}")
    if p_space > n_leaves:
        raise ValueError(
            f"cannot shard {n_leaves} leaf groups over {p_space} space "
            "ranks; reduce leaf_size or p_space"
        )
    starts = tree.node_start[groups]
    leaf_order = np.argsort(starts, kind="stable").astype(np.int64)
    sorted_starts = starts[leaf_order]

    n = tree.n_particles
    ideal = np.linspace(0, n, p_space + 1)
    leaf_bounds = np.empty(p_space + 1, dtype=np.int64)
    leaf_bounds[0], leaf_bounds[-1] = 0, n_leaves
    for r in range(1, p_space):
        j = int(np.searchsorted(sorted_starts, ideal[r], side="left"))
        if j > 0 and (j == n_leaves
                      or ideal[r] - sorted_starts[j - 1]
                      < sorted_starts[j] - ideal[r]):
            j -= 1
        # keep at least one leaf per rank
        leaf_bounds[r] = min(max(j, leaf_bounds[r - 1] + 1),
                             n_leaves - (p_space - r))
    bounds = np.empty(p_space + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    bounds[1:-1] = sorted_starts[leaf_bounds[1:-1]]

    return SpaceShard(p_space, bounds, leaf_bounds, leaf_order,
                      _particle_keys(tree))


def _sub_lists(lists: InteractionLists, mask: np.ndarray) -> InteractionLists:
    """Interaction lists restricted to the target groups in ``mask``.

    ``far_group`` / ``near_group`` index into the (full) ``groups`` array,
    so masking the pair lists is sufficient — the engine handles groups
    with zero pairs naturally and no index remapping is needed.
    """
    far_keep = mask[lists.far_group]
    near_keep = mask[lists.near_group]
    return InteractionLists(
        groups=lists.groups,
        far_group=lists.far_group[far_keep],
        far_node=lists.far_node[far_keep],
        near_group=lists.near_group[near_keep],
        near_node=lists.near_node[near_keep],
        mac_tests=lists.mac_tests,
    )


def branch_payload(
    tree: Octree,
    shard: SpaceShard,
    charges_sorted: np.ndarray,
    rank: int,
) -> Dict[str, np.ndarray]:
    """Branch cells and multipole payload of ``rank``'s key interval.

    The branch set is :func:`_cover_cells` over the keys the rank's particles actually occupy (the PEPC convention);
    each branch carries monopole/dipole/quadrupole moments about its
    geometric cell center, computed from the rank's local particles
    only.
    """
    depth = tree.depth
    p_lo = int(shard.bounds[rank])
    p_hi = int(shard.bounds[rank + 1])
    keys = shard.keys[p_lo:p_hi]
    ckey, clevel = _cover_cells(int(keys[0]), int(keys[-1]), depth)
    below = np.uint64(3) * (np.uint64(depth) - clevel.astype(np.uint64))
    span = np.uint64(1) << below
    bs = np.searchsorted(keys, ckey, side="left")
    be = np.searchsorted(keys, ckey + span, side="left")
    counts = (be - bs).astype(np.int64)
    if int(counts.sum()) != p_hi - p_lo:
        raise SpaceConsistencyError(
            f"branch cells of space rank {rank} cover {int(counts.sum())} "
            f"particles, expected {p_hi - p_lo}"
        )
    centers, _ = cell_of_key(ckey >> below, clevel, tree.cube, depth)

    m0, m1, m2 = _p2m(charges_sorted[p_lo:p_hi], tree.positions[p_lo:p_hi],
                      bs, be, centers)
    return {
        "key": ckey, "level": clevel, "count": counts, "center": centers,
        "m0": m0, "m1": m1, "m2": m2,
    }


def assemble_root(
    tree: Octree, branches: List[Dict[str, np.ndarray]]
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Translate every exchanged branch to the root center and sum.

    This is the upward pass of the shared top-of-tree restricted to its
    apex: the returned ``(count, m0, m1, m2)`` must reproduce the global
    root moments if (and only if) the branch exchange delivered a
    complete, disjoint cover of the domain.
    """
    b0, b1, b2, center = (
        np.concatenate([b[name] for b in branches])
        for name in ("m0", "m1", "m2", "center")
    )
    count = sum(int(b["count"].sum()) for b in branches)
    return (count, *_m2m(b0, b1, b2, center - tree.node_center[0]))


def _verify_top(
    tree: Octree,
    charges_sorted: np.ndarray,
    branches: List[Dict[str, np.ndarray]],
) -> None:
    """Check the exchanged branches rebuild the root moments, summed
    directly from the particles (O(N), no moment pass)."""
    count, m0, m1, m2 = assemble_root(tree, branches)
    if count != tree.n_particles:
        raise SpaceConsistencyError(
            f"exchanged branches cover {count} particles, tree holds "
            f"{tree.n_particles}"
        )
    alpha = charges_sorted
    d = tree.positions - tree.node_center[0]
    m2_ref = 0.5 * np.stack([(alpha[:, i, None] * d).T @ d for i in range(3)])
    scale = float(np.sqrt(np.einsum("ni,ni->n", alpha, alpha)).sum())
    edge = tree.cube.size
    for name, got, ref, atol in (
        ("m0", m0, alpha.sum(axis=0), 1e-12 * max(scale, 1e-30)),
        ("m1", m1, alpha.T @ d, 1e-12 * max(scale * edge, 1e-30)),
        ("m2", m2, m2_ref, 1e-12 * max(scale * edge * edge, 1e-30)),
    ):
        if not bool(np.allclose(got, ref, rtol=1e-9, atol=atol)):
            raise SpaceConsistencyError(
                f"root {name} assembled from exchanged branches deviates "
                f"from the particles' root moments: "
                f"|diff|={float(np.max(np.abs(got - ref)))!r}"
            )


class SpaceParallelTreeEvaluator(TreeEvaluator):
    """A :class:`TreeEvaluator` whose work is sharded over a space comm.

    Construction and the synchronous :meth:`field` API are identical to
    the serial evaluator (and bitwise-identical in results), so the same
    instance serves both the ``p_space=1`` path and, through
    :meth:`field_program`, the space-parallel path inside a rank program::

        field = yield from evaluator.field_program(
            space, positions, charges, gradient=True
        )

    ``space`` is the row communicator of the P_T x P_S grid (typically a
    :class:`~repro.parallel.simmpi.SubComm` from ``comm.split``); passing
    ``None`` or a size-1 comm falls back to the serial path with zero
    yields, keeping op streams byte-identical.
    """

    def _segment_layout(
        self,
        state: TreeState,
        lists: InteractionLists,
        p_space: int,
        rank: int,
    ) -> Tuple[InteractionLists, TraversalLayout]:
        """Masked interaction lists + engine layout for one segment."""
        def compute():
            shard = compute_shard(state, p_space)
            sub = _sub_lists(lists, shard.group_mask(rank, lists.n_groups))
            layout = build_traversal_layout(state.tree, sub)
            # the near expansion gate is a property of the traversal, not
            # of this shard's share of its far pairs
            layout.multipole_regime = lists.far_group.size > 0
            return sub, layout

        key = ("layout", self.theta, self.mac_variant, (p_space, rank))
        return state.product(key, compute)[0]

    def segment_field(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        rank: int,
        p_space: int,
        gradient: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Far/near field of ``rank``'s segment, as compact sorted-order
        arrays ``(vel[p_lo:p_hi], grad[p_lo:p_hi])``.

        This is the *dispatchable* compute unit of the space-parallel
        pipeline: it takes only plain arrays plus scalars (shared-
        memory-friendly, no communicator), rebuilds tree state through
        the evaluator's content-addressed cache (a hit in-process; a
        per-worker warm-up under a process backend), and allocates its
        own output buffers — inputs may arrive as read-only
        shared-memory views.  Both the inline and the dispatched path of
        :meth:`field_program` call exactly this method, so their results
        are bitwise identical.  It is the serial evaluator's pipeline
        run over one shard's target groups, timed like :meth:`field`:
        a repeat of an earlier call is answered from the cache's memo
        of finished fields and does not count in ``timer``.
        """
        def compact(state, vel, grad):
            bounds = compute_shard(state, p_space).bounds
            own = slice(int(bounds[rank]), int(bounds[rank + 1]))
            return (
                np.ascontiguousarray(vel[own]),
                np.ascontiguousarray(grad[own]) if gradient else None,
            )

        with self.timer:
            return self._pipeline(
                positions, charges, gradient, (p_space, rank), compact
            )

    def field_program(
        self,
        space: Optional[VirtualComm],
        positions: np.ndarray,
        charges: np.ndarray,
        gradient: bool = True,
        key: Optional[str] = None,
    ) -> Generator[Any, Any, VelocityField]:
        """Space-collective field evaluation; returns the full field.

        Every rank of ``space`` must drive this generator at the same
        call site (it is a collective: two allgathers plus annotations).
        The returned :class:`VelocityField` covers *all* particles and is
        identical on every space rank.

        With ``key`` set (by ``VortexProblem.rhs_program``: the key the
        problem is registered under with the scheduler's execution
        backend), the far/near GEMM segment — :meth:`segment_field` — is
        yielded as a :class:`~repro.parallel.executor.Compute` operation
        on that payload's ``field_segment`` instead of running inline;
        the branch exchange, the top-of-tree verification and the RHS
        allgather stay in the event loop either way.
        """
        if space is None or space.size == 1:
            return self.field(positions, charges, gradient=gradient)

        self.calls += 1
        rank, p_space = space.rank, space.size
        # The branch exchange needs the tree only; moments, interaction
        # lists and segment layout are (re)derived inside segment_field —
        # a cache hit inline, a per-worker warm-up under a process backend.
        state, _ = self.cache.state(positions, self.leaf_size)
        tree = state.tree
        shard = compute_shard(state, p_space)
        charges_sorted = charges[tree.order]

        # ---- branch exchange (paper Fig. 3 / Fig. 5) -------------------
        yield space.annotate("begin:space:branch-exchange")
        # memoised per charge set: a repeated evaluation of a state (a
        # field-memo hit in the segment) does not rebuild its branches
        payload, _ = state.product(
            ("branch", array_fingerprint(charges), p_space, rank),
            lambda: branch_payload(tree, shard, charges_sorted, rank),
        )
        nbytes = sum(a.nbytes for a in payload.values())
        space.counter("space.branch_bytes").inc(nbytes)
        space.counter("space.branch_bytes", per_rank=True).inc(nbytes)
        space.counter("space.branch_cells", per_rank=True).inc(
            int(payload["key"].shape[0])
        )
        branches = yield from allgather(space, payload, tag=tags.SPACE_BRX)
        _verify_top(tree, charges_sorted, branches)
        yield space.annotate("end:space:branch-exchange")

        # ---- local far/near evaluation ---------------------------------
        yield space.annotate("begin:space:compute")
        n = positions.shape[0]
        if key is not None:
            from repro.parallel.executor import Compute, ComputeTask

            seg = yield Compute(ComputeTask(
                key, "field_segment",
                arrays=(positions, charges),
                tail=(rank, p_space, gradient),
            ))
        else:
            seg = self.segment_field(
                positions, charges, rank, p_space, gradient=gradient
            )
        yield space.annotate("end:space:compute")

        # ---- allgather the RHS segments --------------------------------
        yield space.annotate("begin:space:rhs-allgather")
        seg_bytes = int(seg[0].nbytes + (seg[1].nbytes if gradient else 0))
        space.counter("space.rhs_bytes", per_rank=True).inc(seg_bytes)
        segments = yield from allgather(space, seg, tag=tags.SPACE_RHS)
        vel_sorted = np.empty((n, 3))
        grad_sorted = np.empty((n, 3, 3)) if gradient else None
        for r in range(p_space):
            a, b = int(shard.bounds[r]), int(shard.bounds[r + 1])
            vel_sorted[a:b] = segments[r][0]
            if gradient:
                grad_sorted[a:b] = segments[r][1]
        yield space.annotate("end:space:rhs-allgather")

        return VelocityField(
            *_caller_order(tree.order, vel_sorted, grad_sorted))
