"""Batched interaction-list evaluation engine.

The seed evaluators walked the interaction lists with one Python-loop
iteration per target group (``O(N / leaf_size)`` iterations, each issuing
dozens of small NumPy calls and a per-leaf ``np.concatenate``).  This
module evaluates whole *batches of groups* at once, padded to rectangular
blocks so the inner loops are dense matrix products:

* **near**: in the production regime (smooth kernel, leaves a
  few core sizes across) each batch gathers its sources as
  structure-of-arrays rows, builds the per-source feature rows
  ``[alpha | s x alpha | alpha (x) s | (s x alpha) (x) s]``, gets the
  scaled squared distances ``rho^2`` of the whole block from one K = 5
  GEMM over augmented operands (``[s, 1, |s|^2] . [-2 t, |t|^2, 1]``),
  the two radial factors straight from ``rho^2``
  (:meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_rho2`: for the
  algebraic family one reciprocal, one square root and a Horner pair in
  ``u = 1/(1 + rho^2)``), and contracts them against the feature rows
  with two GEMMs; the 6/24 contracted sums are stored per target slot
  and one epilogue per evaluation reassembles velocity and gradient.
  Outside the expansion gate (theta = 0 stress shapes, singular
  kernels) a fully explicit ``r = t - s`` path keeps exact-zero
  detection and reference-level rounding.
* **far**: the multipole expansion is factored over the
  *cluster-frame* monomial basis (:mod:`repro.tree.localbasis`): every
  unique cluster node gets one weight matrix mapping the D-weighted
  monomials of ``r = target - center`` straight to the 3 velocity + 9
  gradient components; all weights come from one GEMM per pass.  The
  far pass walks the node-sorted pairs (regrouped by the layout into a
  node -> target-slots CSR) in chunks of whole list entries, each
  node's run padded to whole vectors, and per cache-sized tile writes
  the radial chain straight into the GEMM operand and grows the
  D-weighted monomials from it (one broadcast multiply per row run, no
  monomial table), runs one GEMM per node against its weights, and
  scatters each chunk with one ``np.bincount`` per output component.
  Per-pair work is independent of how many groups share a cluster.

Near batches are packed greedily under a temporary-memory budget, groups
sorted by size so padding stays tight; a batch always contains at least
one group, so any positive budget makes progress.  Scatter back onto the
targets uses plain fancy indexing — leaves tile disjoint slot ranges, so
target rows within a batch are unique.

Interaction lists are laid out once per traversal by
:func:`segment_layout`: a single ``np.bincount`` + ``cumsum`` gives the
per-group segment table shared by the far and near phases (replacing the
seed's two stable argsorts + four ``searchsorted`` calls; a sort is only
performed when the traversal output is not already group-ordered).
:class:`TraversalLayout` keeps everything at *list-entry* granularity —
a ``(count, shift)`` per ``(cluster node, target group)`` and per
``(group, source leaf)`` entry — and the drivers expand the per-pair
gather/scatter indices batch by batch (:func:`_pairs_to_slots`), so its
memory is O(list entries), not O(particle pairs).

**Backends.** The near pass takes an optional kernel backend
(:mod:`repro.backends`) selecting the execution strategy: its batches
are *write-disjoint* (each owns the target rows it writes), which is
the invariant that lets the ``threaded`` backend run them on a thread
pool bitwise-identically.  ``backend=None`` resolves through
``REPRO_BACKEND`` and defaults to the serial NumPy reference.

**Process safety.** The batched kernels are safe to run inside worker
processes of the executor backend (:mod:`repro.parallel.executor`):
module state is limited to immutable constants (``_INV_FOUR_PI``, the
budget defaults), inputs are only read (positions/charges may arrive as
read-only shared-memory views), and all mutation targets are the
caller-allocated ``vel`` / ``grad`` output buffers.  Callers that cross a
process boundary must therefore allocate *fresh, writable* float64
outputs on the worker side, as the evaluator's pipeline does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.backends import KernelBackend, get_backend
from repro.obs.metrics import get_metrics
from repro.tree.build import Octree
from repro.tree.evaluate import _cross, _cross_matrix_add, _eps_add
from repro.tree.localbasis import BLOCK_END, far_weight_map, ycat_program
from repro.tree.multipole import VortexMoments
from repro.tree.profiles import radial_chain
from repro.tree.traversal import InteractionLists
from repro.vortex.kernels import SmoothingKernel

__all__ = [
    "SegmentLayout",
    "segment_layout",
    "TraversalLayout",
    "build_traversal_layout",
    "batched_far_vortex",
    "batched_near_vortex",
]

_INV_FOUR_PI = 1.0 / (4.0 * np.pi)

#: default temporary-memory budget per evaluation batch
DEFAULT_BUDGET_BYTES = 64 * 2**20
#: tighter default for the expanded near pass: blocks that stay
#: cache-resident make its short elementwise sweeps (radial factors) run
#: at cache bandwidth instead of streaming from memory.  The value holds
#: a batch's blocks inside a 2 MiB L2: timings are flat from 1 to 3 MiB
#: on an idle host, but with the shared last-level cache busy 3 MiB
#: batches of the N=2048 sheet ran up to 1.8x slower (budget sweep on the
#: N=8192 sheet benchmark, single-core BLAS).
NEAR_GEMM_BUDGET_BYTES = 3 * 2**19
#: far-pass chunk budget.  It bounds the chunk-wide tables (slots, GEMM
#: output rows); cache residency is the tile's business
#: (``_FAR_TILE_PAIRS``).  Each chunk's 12 bincounts also pass over every
#: target once, so chunks are long: 8 MiB is ~75k pairs, and one pass at
#: N = 16384, theta 0.3 peaks at 19.3 MiB, per-node weights included
FAR_BUDGET_BYTES = 8 * 2**20

# approximate float64 temporaries, used only to size batches — order of
# magnitude accuracy suffices.  "elem" is per padded (target, source)
# pair; the near "pair" bytes are per padded source lane.
_NEAR_ELEM_BYTES = {True: 112, False: 56}
_NEAR_PAIR_BYTES = {True: 264, False: 96}
# the expanded (GEMM) near branch, counted from its batch body: the pair
# blocks are u (the distance GEMM's output, overwritten in place),
# u^(3/2), f and — with gradient — g; a source lane holds 3 position,
# 5 distance-operand and 6 / 24 feature rows, its slot index and the
# index expansion's temporary
_NEAR_GEMM_ELEM_BYTES = {True: 32, False: 24}
_NEAR_GEMM_PAIR_BYTES = {True: 272, False: 128}
#: per (target, cluster-node) far lane of a chunk: its slot, the index
#: expansion's temporary and the 12 / 3 GEMM output rows (counted from
#: the body; ``TestFarPassBudget``)
_FAR_PAIR_BYTES = {True: 112, False: 40}
#: pairs per tile of the far row program: the chain, the ~60 rows of the
#: GEMM operand and its scratch stay inside a 2 MiB L2 (1k-4k pairs
#: measured; streaming the rows from memory cost 2x on the N=16384 sheet)
_FAR_TILE_PAIRS = 2048
#: far lanes per node segment are padded to whole 512-bit vectors of
#: doubles, as near target lanes are (``_NEAR_TARGET_MULTIPLE``): every
#: GEMM of the pass has pairs or nodes on its unit-stride axis, where
#: BLAS rounds a trailing partial vector differently, so whole vectors
#: keep a pair's bits independent of what else its chunk holds
_FAR_LANE_MULTIPLE = 8

#: near product-expansion gate: the GEMM distance/feature expansion is
#: used only when every *target* sits within this many core sizes of its
#: group center.  The expansion noise of ``|t|^2 + |s|^2 - 2 t.s`` and
#: of the split cross products is ~(|t| / sigma)^2 ulps relative to the
#: kernel scale (distant sources self-limit: the kernel decays faster
#: than the expanded magnitudes grow), so small-leaf production trees
#: (|t| ~ 2 sigma) stay at reference accuracy while coarse-leaf stress
#: shapes fall back to the explicit path.
_NEAR_EXPAND_SIGMA = 4.0
#: target lanes of an expanded near block are padded to whole 512-bit
#: vectors of doubles.  Targets are the unit-stride axis of the block,
#: and BLAS runs a trailing partial vector of them through an edge
#: kernel that rounds differently from the full-vector one; with whole
#: vectors a group's sums do not depend on which batch mate set the
#: padded width, so a shard's batches reproduce the serial evaluator's
#: bits (as the parent's fixed-width feature GEMM did).
_NEAR_TARGET_MULTIPLE = 8


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """Exclusive-prefix-sum with a leading 0 (length ``a.size + 1``)."""
    out = np.empty(a.size + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(a, out=out[1:])
    return out


@dataclass
class SegmentLayout:
    """Interaction-list pairs grouped by target group (CSR layout)."""

    #: pair node ids, ordered by group index
    node: np.ndarray
    #: (n_groups,) pairs per group
    counts: np.ndarray
    #: (n_groups + 1,) exclusive prefix offsets into ``node``
    starts: np.ndarray


def segment_layout(
    group: np.ndarray, node: np.ndarray, n_groups: int
) -> SegmentLayout:
    """Group the ``(group, node)`` pair list into per-group segments.

    One ``np.bincount`` + ``cumsum`` replaces the seed's argsort +
    ``searchsorted`` bookkeeping; the stable argsort only runs when the
    pairs are not already group-ordered (the traversal emits each wave
    group-ordered, so short lists frequently need no sort at all).
    """
    counts = np.bincount(group, minlength=n_groups).astype(np.int64)
    starts = _cumsum0(counts)
    if group.size > 1 and np.any(np.diff(group) < 0):
        node = node[np.argsort(group, kind="stable")]
    return SegmentLayout(node=node, counts=counts, starts=starts)


@dataclass
class TraversalLayout:
    """Everything the batched engine needs, precomputed per traversal.

    Every table is *entry-level* — one element per list entry (a
    ``(cluster node, target group)`` or ``(group, source leaf)`` pair),
    per group or per particle slot — never per particle pair.  An entry
    stands for a run of consecutive pairs that map to consecutive
    particle slots, so it is stored as ``count`` and ``shift = first slot
    - first global pair index``; the drivers expand a batch's padded
    global pair indices into slots on the fly (:func:`_pairs_to_slots`).

    Group-indexed arrays follow the order of ``lists.groups``;
    ``group_of_slot`` is indexed by *sorted particle slot* (the Morton
    order the tree stores).
    """

    far: SegmentLayout
    near: SegmentLayout
    #: per-group target slot range and geometric center
    group_start: np.ndarray
    group_count: np.ndarray
    group_center: np.ndarray
    #: group index of every sorted particle slot
    group_of_slot: np.ndarray
    #: per-group range of global near source indices (a group's sources
    #: are its near leaves' slots, concatenated in ``near.node`` order)
    src_start: np.ndarray
    src_count: np.ndarray
    #: per near entry (``near.node`` order): leaf size and slot shift
    near_entry_count: np.ndarray
    near_entry_shift: np.ndarray
    #: unique far cluster nodes (ascending).  Node ``far_nodes_u[k]`` owns
    #: the far entries ``far_node_entry_start[k]:far_node_entry_start[k +
    #: 1]`` of the node-sorted entry tables and the global far pair
    #: indices ``far_node_pair_start[k]:far_node_pair_start[k + 1]``
    far_nodes_u: np.ndarray
    far_node_entry_start: np.ndarray
    far_node_pair_start: np.ndarray
    #: per far entry (node-sorted): target-group size and slot shift
    far_entry_count: np.ndarray
    far_entry_shift: np.ndarray
    #: (target particle, cluster node) far pairs and (target, source)
    #: near pairs the layout stands for
    far_pairs: int
    near_pairs: int
    #: max squared distance of any target to its group center — drives
    #: the near product-expansion gate (see ``_NEAR_EXPAND_SIGMA``)
    group_radius2: float = 0.0
    #: the *traversal* accepted far pairs (a genuine multipole regime) —
    #: the second half of the near expansion gate.  A shard's sub-list
    #: may hold none while the full traversal does, so segment layouts
    #: carry the parent traversal's answer (``_segment_layout``).
    multipole_regime: bool = False

    @property
    def nbytes(self) -> int:
        """Bytes held by the index tables."""
        parts = [
            *vars(self).values(), *vars(self.far).values(),
            *vars(self.near).values(),
        ]
        return sum(a.nbytes for a in parts if isinstance(a, np.ndarray))


def _group_of_slot(tree: Octree, groups: np.ndarray) -> np.ndarray:
    """Group index of every sorted particle slot (leaves tile the slots)."""
    starts = tree.node_start[groups]
    sizes = tree.node_end[groups] - starts
    order = np.argsort(starts)
    return np.repeat(np.arange(groups.size, dtype=np.int64)[order],
                     sizes[order])


def build_traversal_layout(
    tree: Octree, lists: InteractionLists
) -> TraversalLayout:
    """Lay the interaction lists out as per-entry / per-group / per-slot
    tables; nothing here has particle-pair length."""
    n_groups = lists.n_groups
    far = segment_layout(lists.far_group, lists.far_node, n_groups)
    near = segment_layout(lists.near_group, lists.near_node, n_groups)
    gi = _group_of_slot(tree, lists.groups)

    group_start = tree.node_start[lists.groups]
    group_count = tree.node_end[lists.groups] - group_start
    group_center = tree.node_center[lists.groups]

    # near: a group's sources are its leaves' slot ranges, back to back
    leaf_sizes = tree.node_count(near.node)
    cum_sizes = _cumsum0(leaf_sizes)
    sources_per_group = cum_sizes[near.starts[1:]] - cum_sizes[near.starts[:-1]]

    # far entries regrouped by cluster node: the cluster-frame far driver
    # walks unique nodes, each paired with the target slots of every
    # group that accepted it, back to back
    n_far_entries = far.node.size
    if n_far_entries:
        entry_group = np.repeat(
            np.arange(n_groups, dtype=np.int64), far.counts
        )
        order_e = np.argsort(far.node, kind="stable")
        nodes_sorted = far.node[order_e]
        gsort = entry_group[order_e]
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(nodes_sorted)) + 1, [n_far_entries])
        )
        far_nodes_u = nodes_sorted[bounds[:-1]]
        ecount = group_count[gsort]
        pair_cum = _cumsum0(ecount)
        far_node_pair_start = pair_cum[bounds]
        far_entry_shift = group_start[gsort] - pair_cum[:-1]
    else:
        bounds = far_node_pair_start = np.zeros(1, np.int64)
        far_nodes_u = ecount = far_entry_shift = np.empty(0, np.int64)

    if gi.size:
        d = tree.positions - group_center[gi]
        group_radius2 = float(np.einsum("ij,ij->i", d, d).max())
    else:
        group_radius2 = 0.0

    return TraversalLayout(
        far=far,
        near=near,
        group_start=group_start,
        group_count=group_count,
        group_center=group_center,
        group_of_slot=gi,
        src_start=cum_sizes[near.starts[:-1]],
        src_count=sources_per_group,
        near_entry_count=leaf_sizes,
        near_entry_shift=tree.node_start[near.node] - cum_sizes[:-1],
        far_nodes_u=far_nodes_u,
        far_node_entry_start=bounds,
        far_node_pair_start=far_node_pair_start,
        far_entry_count=ecount,
        far_entry_shift=far_entry_shift,
        far_pairs=int(far_node_pair_start[-1]),
        near_pairs=int(sources_per_group @ group_count),
        group_radius2=group_radius2,
        multipole_regime=n_far_entries > 0,
    )


# ---------------------------------------------------------------------------
# batching helpers
# ---------------------------------------------------------------------------

def _pack_groups(
    idx: np.ndarray,
    tcount: np.ndarray,
    kcount: np.ndarray,
    elem_bytes: int,
    pair_bytes: int,
    budget: int,
) -> List[np.ndarray]:
    """Greedy group batches under ``budget`` temporary bytes.

    Cost model: ``B * Cmax * Kmax * elem_bytes`` padded pair temporaries
    plus ``B * Kmax * pair_bytes`` per-lane state.  ``idx`` should arrive
    sorted by ``kcount`` descending so padding stays tight.  Every batch
    holds at least one group, so progress is made for any budget.
    """
    batches: List[np.ndarray] = []
    tc, kc = tcount[idx], kcount[idx]
    i, n = 0, idx.size
    while i < n:
        cmax, kmax = int(tc[i]), int(kc[i])
        j = i + 1
        while j < n:
            c = max(cmax, int(tc[j]))
            k = max(kmax, int(kc[j]))
            nb = j + 1 - i
            if nb * k * (c * elem_bytes + pair_bytes) > budget:
                break
            cmax, kmax = c, k
            j += 1
        batches.append(idx[i:j])
        i = j
    return batches


def _padded_lanes(
    start: np.ndarray, count: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Padded per-group index block (B, width) plus its validity mask.

    Padding lanes repeat the group's last element so every gathered
    index is in range; callers mask their contributions.
    """
    lane = np.minimum(np.arange(width), count[:, None] - 1)
    return start[:, None] + lane, np.arange(width) < count[:, None]


def _pairs_to_slots(
    q: np.ndarray,
    first: np.ndarray,
    nent: np.ndarray,
    count: np.ndarray,
    shift: np.ndarray,
    pad: np.ndarray,
) -> np.ndarray:
    """Turn a block of global pair indices into particle slots.

    ``slot = q + shift[entry(q)]``: row ``i`` of ``q`` walks the list
    entries ``first[i] : first[i] + nent[i]`` in order, entry ``e`` owning
    ``count[e]`` consecutive indices; the row's last real index is
    repeated ``pad[i]`` more times (:func:`_padded_lanes`) and takes its
    last entry's shift.  Rows need ``nent >= 1``, and every ``count`` is
    positive (tree nodes are never empty).  Consumes
    ``q`` (a contiguous block is updated in place) and returns the slots
    in its shape.  This is the one place entry-level tables become
    per-pair indices — batch-sized, never stored.
    """
    ecum = _cumsum0(nent)
    ent = np.arange(ecum[-1], dtype=np.int64)
    ent += np.repeat(first - ecum[:-1], nent)
    reps = count[ent]
    reps[ecum[1:] - 1] += pad
    flat = q.reshape(-1)
    flat += np.repeat(shift[ent], reps)
    return flat.reshape(q.shape)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _far_chunks(
    layout: TraversalLayout, entry_pair: np.ndarray, cap: int
) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Cut the node-sorted far entries into chunks of at most ``cap``
    pairs, whole entries each (at least one, so any positive budget makes
    progress).

    A chunk is ``(k0, eb, lb)``: it touches the unique nodes ``k0, k0 + 1,
    ...``, node ``k0 + i`` owning entries ``eb[i]:eb[i + 1]`` of the chunk
    and lanes ``lb[i]:lb[i + 1]``, its pairs padded to whole
    ``_FAR_LANE_MULTIPLE`` vectors.
    """
    estart = layout.far_node_entry_start
    n_entries = entry_pair.size - 1
    chunks = []
    e0 = 0
    while e0 < n_entries:
        e1 = int(np.searchsorted(entry_pair, entry_pair[e0] + cap, "right"))
        e1 = min(max(e1 - 1, e0 + 1), n_entries)
        k0 = int(np.searchsorted(estart, e0, "right")) - 1
        k1 = int(np.searchsorted(estart, e1, "left"))
        eb = np.clip(estart[k0:k1 + 1], e0, e1)
        real = np.diff(entry_pair[eb])
        lanes = -(-real // _FAR_LANE_MULTIPLE) * _FAR_LANE_MULTIPLE
        chunks.append((k0, eb, _cumsum0(lanes)))
        e0 = e1
    return chunks


def _far_chunk_slots(
    layout: TraversalLayout, entry_pair: np.ndarray, eb: np.ndarray,
    lb: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Target slots of one far chunk's lanes, and its padding lanes.

    A padding lane repeats its segment's last real pair, so every
    gathered coordinate is a real far-pair offset; the caller sends its
    output to a dropped bin.
    """
    lanes = np.diff(lb)
    first = entry_pair[eb]
    pad = lanes - np.diff(first)
    q = np.arange(lb[-1], dtype=np.int64)
    q += np.repeat(first[:-1] - lb[:-1], lanes)
    # the padding lanes: the last pad[i] lanes of segment i
    padded = np.flatnonzero(pad)
    npad = pad[padded]
    at = np.repeat(lb[1:][padded] - _cumsum0(npad)[1:], npad)
    at += np.arange(at.size)
    q[at] = np.repeat(first[1:][padded] - 1, npad)
    slots = _pairs_to_slots(
        q, eb[:-1], np.diff(eb), layout.far_entry_count,
        layout.far_entry_shift, pad=pad,
    )
    return slots, at


def _far_tiles(lb: List[int], tile: int):
    """Tiles of ``tile`` lanes over a far chunk with segment bounds
    ``lb``: yields ``(t0, t1, pieces)``, each piece ``(segment, lo, hi)``
    the lanes of one segment inside the tile."""
    i = 0
    for t0 in range(0, lb[-1], tile):
        t1 = min(t0 + tile, lb[-1])
        pieces = []
        while lb[i] < t1:
            pieces.append((i, max(lb[i], t0), min(lb[i + 1], t1)))
            if lb[i + 1] > t1:
                break
            i += 1
        yield t0, t1, pieces


def batched_far_vortex(
    tree: Octree,
    moments: VortexMoments,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    order: int,
    gradient: bool,
    vel: np.ndarray,
    grad: Optional[np.ndarray],
    budget_bytes: Optional[int] = None,
) -> None:
    """Far-field multipole pass, accumulated into sorted-order outputs.

    Cluster-frame factorization (see :mod:`repro.tree.localbasis`): each
    unique cluster node carries a weight matrix ``W`` mapping D-weighted
    monomials of ``r = target - center`` straight to velocity/gradient
    components.  All ``W`` come from one GEMM of the nodes' moments
    against the cached moments-to-weights map
    (:func:`~repro.tree.localbasis.far_weight_map`) and are not kept:
    they depend on the moments, and an evaluation that repeats an earlier
    one never gets this far — the state cache answers it with the
    finished field.

    The node-sorted far pairs are cut into chunks of whole list entries
    (:func:`_far_chunks`), each node's run padded to whole vectors.  Per
    chunk: gather the target coordinates and subtract each node's center;
    then, tile by cache-sized tile, write the radial chain straight into
    the GEMM operand ``Ycat``, grow the D-weighted monomials from it
    (:func:`~repro.tree.localbasis.ycat_program`) and run one GEMM per
    node into component-major output rows; last, one ``np.bincount`` per
    output component scatters the chunk onto the targets.  Exact —
    matches the pairwise kernel to rounding error.
    """
    if layout.far_pairs == 0 or layout.far_nodes_u.size == 0:
        return
    budget = FAR_BUDGET_BYTES if budget_bytes is None else budget_bytes
    need = order + (2 if gradient else 1)
    ncols = BLOCK_END[need - 1]
    nout = 12 if gradient else 3
    nodes_u = layout.far_nodes_u
    # moments (node lanes padded to whole vectors) -> W, one GEMM
    nm = (3, 12, 39)[order]
    mt = np.zeros((nm, -(-nodes_u.size // _FAR_LANE_MULTIPLE)
                   * _FAR_LANE_MULTIPLE), dtype=np.float64)
    mt[0:3, :nodes_u.size] = moments.m0[nodes_u].T
    if order >= 1:
        mt[3:12, :nodes_u.size] = moments.m1[nodes_u].reshape(-1, 9).T
    if order >= 2:
        mt[12:39, :nodes_u.size] = moments.m2[nodes_u].reshape(-1, 27).T
    # column k: node k's W as a flattened (nout, ncols) GEMM operand
    wt = np.matmul(far_weight_map(order, gradient).T, mt)
    del mt
    centers = moments.center[nodes_u]
    seeds, coords, steps, nrows = ycat_program(need)

    entry_pair = _cumsum0(layout.far_entry_count)
    chunks = _far_chunks(
        layout, entry_pair, max(1, budget // _FAR_PAIR_BYTES[gradient])
    )
    m = get_metrics()
    if m.enabled:
        m.counter("tree.far.batches").inc(len(chunks))

    width = max(int(lb[-1]) for _, _, lb in chunks)
    tile = min(width, _FAR_TILE_PAIRS)
    obuf = np.empty((nout, width), dtype=np.float64)
    ybuf = np.empty((nrows, tile), dtype=np.float64)
    n = vel.shape[0]
    # structure-of-arrays operands: coordinates are gathered per
    # component straight into the tile's coordinate rows and every output
    # component accumulates into its own contiguous row, written back once
    post = np.ascontiguousarray(tree.positions.T)
    acc = np.empty((nout, n), dtype=np.float64)
    acc[0:3] = vel.T
    if gradient:
        acc[3:12] = grad.reshape(n, 9).T
    for k0, eb, lb in chunks:
        slots, padding = _far_chunk_slots(layout, entry_pair, eb, lb)
        out = obuf[:, :lb[-1]]
        for t0, t1, pieces in _far_tiles(lb.tolist(), tile):
            y = ybuf[:, :t1 - t0]
            xt = y[coords:coords + 3]
            for c in range(3):
                # slots are in range; "clip" only avoids the buffered
                # copy the default "raise" mode makes into ``out``
                np.take(post[c], slots[t0:t1], out=xt[c], mode="clip")
            for i, lo, hi in pieces:
                xt[:, lo - t0:hi - t0] -= centers[k0 + i][:, None]
            r2 = np.einsum("ij,ij->j", xt, xt)
            radial_chain(kernel, r2, sigma, need, out=[y[r] for r in seeds])
            for a, b0, b1, d0 in steps:
                np.multiply(y[a], y[b0:b1], out=y[d0:d0 + b1 - b0])
            for i, lo, hi in pieces:
                wk = np.ascontiguousarray(wt[:, k0 + i]).reshape(nout, ncols)
                np.matmul(wk, y[:ncols, lo - t0:hi - t0], out=out[:, lo:hi])
        # padding lanes scatter to bin n, one past the targets, dropped
        slots[padding] = n
        for c in range(nout):
            acc[c] += np.bincount(
                slots, weights=out[c], minlength=n + 1
            )[:n]
        del slots
    vel[:] = acc[0:3].T
    if gradient:
        grad.reshape(n, 9)[:] = acc[3:12].T


def _near_batch_indices(
    layout: TraversalLayout, batch: np.ndarray, cmax: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded target / source slot blocks of one near batch of groups.

    Returns ``(tidx, tvalid, sidx, svalid)``: ``(B, cmax)`` target slots
    (``cmax`` at least the largest group's count), ``(B, S)`` source
    slots and their validity masks, as host arrays.
    """
    tc = layout.group_count[batch]
    sc = layout.src_count[batch]
    smax = int(sc.max())
    tidx, tvalid = _padded_lanes(layout.group_start[batch], tc, cmax)
    slane, svalid = _padded_lanes(layout.src_start[batch], sc, smax)
    sidx = _pairs_to_slots(
        slane, layout.near.starts[:-1][batch], layout.near.counts[batch],
        layout.near_entry_count, layout.near_entry_shift, pad=smax - sc,
    )
    return tidx, tvalid, sidx, svalid


def batched_near_vortex(
    tree: Octree,
    charges_sorted: np.ndarray,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    gradient: bool,
    exclude_zero: bool,
    vel: np.ndarray,
    grad: Optional[np.ndarray],
    budget_bytes: Optional[int] = None,
    backend: Optional[KernelBackend] = None,
) -> None:
    """Near-field direct pass, accumulated into sorted-order outputs.

    ``backend`` selects the kernel-execution backend
    (:mod:`repro.backends`): batches are write-disjoint (each owns the
    target rows of its groups), so they are dispatched through
    :meth:`~repro.backends.KernelBackend.map_batches` — serial for
    ``numpy``, a thread pool for ``threaded``, both bitwise identical.
    ``None`` resolves via ``REPRO_BACKEND`` / the NumPy default.

    Dense form of the pair sums of :mod:`repro.vortex.rhs`: with
    ``r = t - s`` the cross products split into per-target and
    per-source factors,

        sum f (r x a)            = t x Fa - Fsxa,     F* = GEMM of f,

    and with ``h = g (r x a)`` kept per pair the gradient term splits
    once,

        sum h_a r_d   = (sum h)_a t_d - sum_s h_a s_d,

    where the second sum is again a batched matrix product over the
    sources.  Positions enter all split terms *relative to the group
    center*, and only one factor of ``r`` is ever expanded — ``h``
    itself stays on the scale of the true pair contribution — so
    rounding noise stays at the level of the reference path instead of
    being amplified by ``(|t| / |r|)^2``.  Distances stay explicit (no
    product expansion of ``r^2``): exact zeros are detected exactly
    (coincident points shift identically) and there is no cancellation.

    When every target lies within ``_NEAR_EXPAND_SIGMA`` core sizes of
    its group center (the production tree regime: leaves a few ``sigma``
    across) the pass switches to a fully expanded form that never
    materialises a (targets x sources x 3) pair tensor.  Per batch, the
    scaled squared distances ``rho^2 = |t - s|^2 / sigma^2`` of the
    whole block come from one K = 5 GEMM over augmented operands,
    ``[s, 1, |s|^2] . [-2 t, |t|^2, 1]`` (group-local coordinates in
    units of ``sigma``), the radial pair from
    :meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_rho2`, and
    the sums over the sources from 6 (velocity) / 24 (gradient)
    per-source feature rows contracted by two GEMMs.  Operands are
    structure-of-arrays (one contiguous row per component), the
    contracted sums are stored per target slot, and one epilogue per
    evaluation (:func:`_near_epilogue`) turns them into velocity and
    gradient.  The expansion noise is bounded by the gate;
    ``exclude_zero`` (singular kernels) always takes the explicit path,
    which detects exact zero distances reliably.
    """
    if layout.near_pairs == 0:
        return
    counts = layout.src_count
    active = np.flatnonzero(counts > 0)
    if active.size == 0:
        return
    active = active[np.argsort(-counts[active], kind="stable")]
    # The expanded path also requires a genuine multipole regime (the
    # traversal accepted far pairs — not just this layout's share of
    # them): theta ~ 0 degenerates every interaction to a near pair
    # spanning the whole domain, where the product expansion amplifies
    # rounding beyond reference accuracy.
    expand = (
        not exclude_zero
        and layout.multipole_regime
        and layout.group_radius2 <= (_NEAR_EXPAND_SIGMA * sigma) ** 2
    )
    if budget_bytes is not None:
        budget = budget_bytes
    else:
        budget = NEAR_GEMM_BUDGET_BYTES if expand else DEFAULT_BUDGET_BYTES
    # padded target lanes per group, and the temporaries per lane
    tlanes = layout.group_count
    if expand:
        tlanes = -(-tlanes // _NEAR_TARGET_MULTIPLE) * _NEAR_TARGET_MULTIPLE
        elem_bytes = _NEAR_GEMM_ELEM_BYTES[gradient]
        pair_bytes = _NEAR_GEMM_PAIR_BYTES[gradient]
    else:
        elem_bytes = _NEAR_ELEM_BYTES[gradient]
        pair_bytes = _NEAR_PAIR_BYTES[gradient]
    batches = _pack_groups(
        active, tlanes, counts, elem_bytes, pair_bytes, budget
    )
    m = get_metrics()
    if m.enabled:
        m.counter("tree.near.batches").inc(len(batches))
        m.counter("tree.near.padded_pairs").inc(sum(
            b.size * int(tlanes[b].max()) * int(counts[b].max())
            for b in batches
        ))
    bk = get_backend(backend)
    # ``to_device`` is the identity on both shipped backends and the
    # tests' hook into the body: operands pass through it once per
    # evaluation, per-batch index blocks as they are built.
    ctr = bk.to_device(layout.group_center)
    if expand:
        # structure-of-arrays operands, built once per evaluation:
        # component rows of positions / charges for the per-batch source
        # gathers, and per target slot the group-local coordinates plus
        # the augmented distance operand ``[-2 t, |t|^2, 1]`` in units
        # of sigma.  Batches only fill their rows of ``fsum`` / ``gsum``
        # (the contracted feature sums); the velocity/gradient epilogue
        # runs once over all target slots at the end.
        n = vel.shape[0]
        tloc = tree.positions - layout.group_center[layout.group_of_slot]
        taug = np.empty((5, n), dtype=np.float64)
        np.multiply(tloc.T, 1.0 / sigma, out=taug[0:3])
        np.einsum("in,in->n", taug[0:3], taug[0:3], out=taug[3])
        taug[0:3] *= -2.0
        taug[4] = 1.0
        tloc, taug = bk.to_device(tloc), bk.to_device(taug)
        post = bk.to_device(np.ascontiguousarray(tree.positions.T))
        chgt = bk.to_device(np.ascontiguousarray(charges_sorted.T))
        nf = 24 if gradient else 6
        fsum = np.zeros((n, 6), dtype=np.float64)
        gsum = np.zeros((n, 24), dtype=np.float64) if gradient else None
    else:
        pos = bk.to_device(tree.positions)
        chg = bk.to_device(charges_sorted)

    def run_batch(batch: np.ndarray) -> None:
        b = batch.size
        tidx, tvalid, sidx, svalid = (
            bk.to_device(x) for x in _near_batch_indices(
                layout, batch, int(tlanes[batch].max())
            )
        )
        smax = sidx.shape[1]
        flat = tidx[tvalid]

        if expand:
            # source rows (component, B, S): group-local positions, then
            # the feature rows [a | s x a | a (x) s | (s x a) (x) s]
            s = np.empty((3, b, smax), dtype=np.float64)
            feat = np.empty((nf, b, smax), dtype=np.float64)
            for c in range(3):
                np.take(post[c], sidx, out=s[c])
                np.take(chgt[c], sidx, out=feat[c])
            s -= ctr[bk.to_device(batch)].T[:, :, None]
            # every feature row is linear in the charge, so zeroed
            # padded lanes contribute nothing to either feature GEMM
            feat[0:3][:, ~svalid] = 0.0
            _cross_rows(s, feat[0:3], feat[3:6])
            if gradient:
                np.multiply(
                    feat[0:6].reshape(2, 3, 1, b, smax), s,
                    out=feat[6:24].reshape(2, 3, 3, b, smax),
                )
            # rho^2 = |s - t|^2 / sigma^2 of the whole (B, S, C) block
            # from one K = 5 GEMM: [s, 1, |s|^2] . [-2 t, |t|^2, 1]
            saug = np.empty((5, b, smax), dtype=np.float64)
            np.multiply(s, 1.0 / sigma, out=saug[0:3])
            saug[3] = 1.0
            saug[4] = np.einsum("ibs,ibs->bs", saug[0:3], saug[0:3])
            rho2 = np.matmul(
                saug.transpose(1, 2, 0),
                np.take(taug, tidx, axis=1).transpose(1, 0, 2),
            )
            f, g = kernel.f_g_from_rho2(rho2, sigma, gradient)
            # leaves tile disjoint slot ranges: plain assignment
            fb = np.matmul(feat[0:6].transpose(1, 0, 2), f)  # (B, 6, C)
            fsum[flat] = fb.transpose(0, 2, 1)[tvalid]
            if gradient:
                gb = np.matmul(feat.transpose(1, 0, 2), g)  # (B, 24, C)
                gsum[flat] = gb.transpose(0, 2, 1)[tvalid]
            return

        gc = ctr[bk.to_device(batch)][:, None, :]
        t = pos[tidx] - gc  # (B, C, 3), group-local frame
        s = pos[sidx] - gc  # (B, S, 3)
        a = chg[sidx]
        r = t[:, :, None, :] - s[:, None, :, :]
        r2 = np.einsum("bcsi,bcsi->bcs", r, r)
        if not gradient:
            del r
        if exclude_zero:
            zero = r2 == 0.0
            r2[zero] = 1.0
        f, g = kernel.f_g_from_r2(r2, sigma, gradient)
        f *= svalid[:, None, :]
        if exclude_zero:
            f[zero] = 0.0
        fg = np.empty((b, smax, 6), dtype=np.float64)
        fg[:, :, 0:3] = a
        fg[:, :, 3:6] = _cross(s, a)
        ff = np.matmul(f, fg)
        u = _cross(t, ff[..., 0:3])
        u -= ff[..., 3:6]
        u *= -_INV_FOUR_PI
        vel[flat] += u[tvalid]

        if gradient:
            g *= svalid[:, None, :]
            if exclude_zero:
                g[zero] = 0.0
            h = _cross(r, a[:, None, :, :])
            del r
            h *= g[..., None]
            gm = np.einsum("bcsa->bca", h)[..., :, None] * t[..., None, :]
            gm -= np.matmul(h.transpose(0, 1, 3, 2), s[:, None, :, :])
            _eps_add(gm, ff[..., 0:3])
            gm *= -_INV_FOUR_PI
            grad[flat] += gm[tvalid]

    bk.map_batches(run_batch, batches)
    if expand:
        _near_epilogue(
            bk.to_device(np.flatnonzero(counts[layout.group_of_slot] > 0)),
            tloc, fsum, gsum, vel, grad,
        )


def _near_epilogue(sel, tloc, ff, gg, vel, grad) -> None:
    """Velocity/gradient of the target slots ``sel`` from their
    contracted feature sums, added onto ``vel`` / ``grad``.

    ``ff`` holds ``sum f [a | s x a]`` (6 columns) and ``gg`` holds
    ``sum g [a | s x a | a (x) s | (s x a) (x) s]`` (24 columns, None
    without gradient) per target slot, positions group-local.
    """
    t = tloc[sel]
    fa = ff[sel]
    u = _cross(t, fa[:, 0:3])
    u -= fa[:, 3:6]
    u *= -_INV_FOUR_PI
    vel[sel] += u
    if gg is None:
        return
    ga = gg[sel]
    # sum_s h = t x (sum g a) - sum g (s x a)
    hsum = _cross(t, ga[:, 0:3])
    hsum -= ga[:, 3:6]
    g3 = ga[:, 6:15].reshape(-1, 3, 3)
    g4 = ga[:, 15:24].reshape(-1, 3, 3)
    # sum_s h_a s_d = (t X sum g a (x) s) - sum g (s x a)(x)s
    gm = hsum[:, :, None] * t[:, None, :]
    np.negative(g3, out=g3)
    _cross_matrix_add(gm, t, g3)
    gm += g4
    _eps_add(gm, fa[:, 0:3])
    gm *= -_INV_FOUR_PI
    grad[sel] += gm


def _cross_rows(a, b, out) -> None:
    """``out = a x b`` with the component on the *first* axis (row form
    of :func:`~repro.tree.evaluate._cross`: same products, same
    subtraction order)."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
