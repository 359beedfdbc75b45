"""Batched interaction-list evaluation engine.

The seed evaluators walked the interaction lists with one Python-loop
iteration per target group (``O(N / leaf_size)`` iterations, each issuing
dozens of small NumPy calls and a per-leaf ``np.concatenate``).  This
module evaluates whole *batches of groups* at once, padded to rectangular
blocks so the inner loops are dense matrix products:

* **near**: in the production regime (smooth kernel, leaves a few
  core sizes across) the pass runs over *leaf-pair radial blocks*,
  row by row of target groups (:class:`_NearPlan`).  A row gathers its
  source leaves as structure-of-arrays lanes, builds the per-source
  feature rows ``[alpha | s x alpha | alpha (x) s | (s x alpha) (x)
  s]``, gets the scaled squared distances ``rho^2`` of all its blocks
  from one K = 5 GEMM over augmented operands (``[s, 1, |s|^2] . [-2 t,
  |t|^2, 1]``), the two radial factors straight from ``rho^2``
  (:meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_rho2`: for the
  algebraic family one reciprocal, one square root and a Horner pair in
  ``u = 1/(1 + rho^2)``), and contracts them against the feature rows
  in 48-lane pieces.  A mirrored pair of large leaves gets its block
  once, in the canonical frame (the centre of its first group in group
  order): the row of that group contracts it, transposed, for the
  other group's targets too.  Every target's 6/24 contracted sums are
  added up in a fixed order of its near-list entries, stored per
  target slot, and one epilogue per evaluation reassembles velocity
  and gradient.  Outside the expansion gate (theta = 0 stress shapes,
  singular kernels) a fully explicit ``r = t - s`` path keeps
  exact-zero detection and reference-level rounding.
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

Near rows are packed, in group order, into chunks under a
temporary-memory budget (explicit-branch batches: groups sorted by size
so padding stays tight); a chunk always contains at least one row, so
any positive budget makes progress.  Scatter back onto the targets uses
plain fancy indexing — leaves tile disjoint slot ranges, so target rows
within a batch, or within one row's mirrors, are unique.

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

**Batches.** The near pass's batches are *write-disjoint* — an
explicit batch owns the target rows of its groups; an expanded chunk's
batches (its rows' distance GEMMs, its rows' pieces, its mirror shape
classes) each write only their own rows of the chunk's buffers, and one
serial reduction per chunk then adds those into the targets in a fixed
order, which pins the bytes.  They run in order through a
:class:`~repro.backends.KernelBackend`, the tests' seam into the body.

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
#: default for the expanded near pass: a chunk of rows pays a fixed count
#: of NumPy calls, and its short elementwise sweeps (radial factors) want
#: its blocks near the core.  Measured on the 2-vCPU host (2 MiB L2, a
#: shared last-level cache), single-core BLAS, min of 5 calls: against
#: 3 MiB, 6 MiB chunks were 3-7% faster on the N=2048 start and evolved
#: sheets and 1-18% on the N=16384 sheet; against 1.5 MiB, 12 MiB chunks
#: lost 10-30%.
NEAR_GEMM_BUDGET_BYTES = 6 * 2**20
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
# the expanded (GEMM) near branch, counted from its chunk body: a
# radial-block element is u (the distance GEMM's output, overwritten in
# place), u^(3/2), f and — with gradient — g, plus its share of the
# pieces' 30 / 6 output rows and of a mirror class's gathered blocks; a
# lane (a row's source lane, target lane or mirror lane) holds 3
# position, 5 distance-operand and 6 / 24 feature rows, its centre, a
# mirror's output rows and its entry in the chunk's lane table (slot,
# validity, frame and their expansion's temporaries)
_NEAR_GEMM_ELEM_BYTES = {True: 40, False: 28}
_NEAR_GEMM_PAIR_BYTES = {True: 336, False: 192}
#: per (target, cluster-node) far lane of a chunk: its slot, the index
#: expansion's temporary and the 12 / 3 GEMM output rows (counted from
#: the body; ``TestFarPassBudget``)
_FAR_PAIR_BYTES = {True: 112, False: 40}
#: pairs per tile of the far row program: the chain, the ~60 rows of the
#: GEMM operand and its scratch stay inside a 2 MiB L2 (1k-4k pairs
#: measured; streaming the rows from memory cost 2x on the N=16384 sheet)
_FAR_TILE_PAIRS = 2048
#: far lanes per node segment are padded to whole 512-bit vectors of
#: doubles, as a shared near leaf is (``_NEAR_TARGET_MULTIPLE``): every
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
#: a shared near pair's leaf is padded to whole 512-bit vectors of
#: doubles of its own size: its lanes are the mirror contraction's
#: targets, and mirrors of one shape class share a GEMM call, so padding
#: keeps the classes few.  Targets are the unit-stride axis of a
#: contraction, where BLAS runs a trailing partial vector through an
#: edge kernel that rounds differently from the full-vector one; that is
#: why no GEMM's shape may depend on a chunk mate — a row's own targets
#: need no padding, every GEMM of a row has shapes of that row alone
#: (BLAS rounds a shape the same way every time), so a shard reproduces
#: the serial evaluator's bits.
_NEAR_TARGET_MULTIPLE = 8
#: lanes (the GEMM's K) per piece of a near row's contraction.  A GEMM
#: this small runs on one BLAS thread whatever the thread count, so
#: its rounding does not depend on it (the per-group GEMM this replaced
#: had K ~ 1300 at N=2048 and changed bits between 1 and 2 threads)
_NEAR_PIECE = 48
#: a mirrored near pair shares one radial block when the product of its
#: leaves' padded lane counts reaches this.  Below it the mirror's own
#: feature lanes, GEMM calls and output rows cost more than the radial
#: work it saves: sharing every pair made the N=16384 sheet's pass
#: 1.6-1.9x slower, 1024 (32 x 32 lanes) is the fastest of the
#: thresholds measured on the N=2048 and N=16384 sheets
_NEAR_SHARE_MIN = 1024


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

    Batches run through ``backend``'s
    :meth:`~repro.backends.KernelBackend.map_batches` and operands pass
    its ``to_device``; ``None`` is the serial NumPy backend, and tests
    pass a subclass to observe the batches.  ``budget_bytes`` overrides
    the branch's default chunk budget (tests only).

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
    materialises a (targets x sources x 3) pair tensor.  It runs over
    leaf-pair radial blocks (:func:`_near_block_pass`): per block, the
    scaled squared distances ``rho^2 = |t - s|^2 / sigma^2`` come from
    a K = 5 GEMM over augmented operands, ``[s, 1, |s|^2] . [-2 t,
    |t|^2, 1]`` (group-local coordinates in units of ``sigma``), the
    radial pair from
    :meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_rho2` — once
    for both entries of a mirrored pair of large leaves — and the sums
    over the sources from 6 (velocity) / 24 (gradient) per-source
    feature rows contracted by GEMMs with K <= 48, added up per target
    in a fixed order of its near-list entries.  Operands are
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
    m = get_metrics()
    bk = get_backend(backend)
    if expand:
        tloc, acc = _near_block_pass(
            tree, charges_sorted, layout, kernel, sigma, gradient, budget,
            bk, m,
        )
        _near_epilogue(
            bk.to_device(np.flatnonzero(counts[layout.group_of_slot] > 0)),
            tloc, acc[:, 0:6], acc[:, 6:30] if gradient else None, vel, grad,
        )
        return

    tlanes = layout.group_count
    batches = _pack_groups(
        active, tlanes, counts, _NEAR_ELEM_BYTES[gradient],
        _NEAR_PAIR_BYTES[gradient], budget,
    )
    if m.enabled:
        m.counter("tree.near.batches").inc(len(batches))
        m.counter("tree.near.padded_pairs").inc(sum(
            b.size * int(tlanes[b].max()) * int(counts[b].max())
            for b in batches
        ))
    # ``to_device`` is the identity on the NumPy backend and the
    # tests' hook into the body: operands pass through it once per
    # evaluation, per-batch index blocks as they are built.
    ctr = bk.to_device(layout.group_center)
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


@dataclass
class _NearPlan:
    """A near list laid out as rows of leaf-pair radial blocks.

    Leaves are the target groups, so entry ``e`` (layout order: target
    group, then list order) pairs target group ``target[e]`` with source
    group ``source[e]``.  A pair of large leaves (padded lanes
    multiplying to ``_NEAR_SHARE_MIN`` or more) is *shared*: its block
    of radial factors is computed once, in the canonical frame — the
    centre of the pair's first group in group order, in that group's
    row — and serves the entry of its second group as a *mirror*.  Every
    other entry is evaluated in its target's row, in the target's frame.

    Row ``r`` stacks along K the source leaves of ``r``'s entries that
    are not mirrors, in list order (a shared pair's leaf padded to whole
    8-lane vectors of its own size, the rest unpadded), zero-padded to
    whole ``_NEAR_PIECE``-lane pieces; then the other leaf of each shared
    block of ``r`` that only a mirror needs — a one-sided entry, or the
    half of a mutual pair that a shard's sub-list holds — in target
    order.  Its targets, ``r``'s particles, are not padded.  Everything
    here is per entry, per mirror or per group.
    """

    #: per entry: target and source group, whether a mirror serves it,
    #: and (entries that are not mirrors) its lanes and lane offset in
    #: its row
    target: np.ndarray
    source: np.ndarray
    mirror: np.ndarray
    width: np.ndarray
    offset: np.ndarray
    #: per group: particles, padded lanes, lanes of its entries, lanes
    #: of its whole pieces, all lanes of its row
    count: np.ndarray
    lanes: np.ndarray
    csum: np.ndarray
    kc: np.ndarray
    krow: np.ndarray
    #: per mirror (entry order): serving row group, target group, the
    #: block's lane offset in the row, and whether it sits after the
    #: row's pieces (no row entry of its pair in this list)
    mrow: np.ndarray
    mtgt: np.ndarray
    moff: np.ndarray
    lone: np.ndarray


def _near_plan(tree: Octree, layout: TraversalLayout) -> _NearPlan:
    """Lay a near list out as rows of radial blocks (:class:`_NearPlan`)."""
    n_groups = layout.group_count.size
    count = layout.group_count
    lanes = -(-count // _NEAR_TARGET_MULTIPLE) * _NEAR_TARGET_MULTIPLE
    first = layout.near.starts
    target = np.repeat(np.arange(n_groups, dtype=np.int64), layout.near.counts)
    source = layout.group_of_slot[tree.node_start[layout.near.node]]
    shared = (lanes[target] * lanes[source] >= _NEAR_SHARE_MIN) & (
        target != source
    )
    mirror = shared & (target > source)
    width = np.where(shared, lanes[source], count[source]) * ~mirror
    wcum = _cumsum0(width)
    csum = wcum[first[1:]] - wcum[first[:-1]]
    kc = -(-csum // _NEAR_PIECE) * _NEAR_PIECE
    offset = wcum[:-1] - np.repeat(wcum[first[:-1]], layout.near.counts)
    # a mirror's block sits at its pair's entry in the source's row if
    # the list holds it, else after that row's pieces, in target order
    key = target * n_groups + source
    korder = np.argsort(key, kind="stable")
    mi = np.flatnonzero(mirror)
    mrow, mtgt = source[mi], target[mi]
    mkey = mrow * n_groups + mtgt
    at = korder[np.minimum(np.searchsorted(key[korder], mkey), key.size - 1)]
    lone = key[at] != mkey
    moff = offset[at]
    li = np.flatnonzero(lone)
    li = li[np.lexsort((mtgt[li], mrow[li]))]
    lwid = lanes[mtgt[li]]
    lcum = _cumsum0(lwid)
    moff[li] = kc[mrow[li]] + lcum[:-1] - lcum[np.searchsorted(mrow[li],
                                                               mrow[li])]
    krow = kc + np.bincount(mrow[li], weights=lwid, minlength=n_groups).astype(
        np.int64
    )
    return _NearPlan(
        target=target, source=source, mirror=mirror, width=width,
        offset=offset, count=count, lanes=lanes, csum=csum, kc=kc,
        krow=krow, mrow=mrow, mtgt=mtgt, moff=moff, lone=lone,
    )


def _near_row_bytes(
    plan: _NearPlan, rows: np.ndarray, gradient: bool
) -> np.ndarray:
    """Temporary bytes of each row in ``rows`` (groups with a row), the
    chunk budget's cost model: per radial-block element and per lane (a
    row lane, a row target lane or a mirror lane)."""
    targets = plan.count[rows]
    mirrors = np.bincount(plan.mrow, minlength=plan.count.size)[rows]
    return (
        plan.krow[rows] * targets * _NEAR_GEMM_ELEM_BYTES[gradient]
        + (plan.krow[rows] + targets * (1 + mirrors))
        * _NEAR_GEMM_PAIR_BYTES[gradient]
    )


def _chunk_bounds(cost: np.ndarray, budget: int) -> List[int]:
    """Bounds of runs of consecutive rows costing at most ``budget``
    bytes each (at least one row, so any budget makes progress)."""
    cum = _cumsum0(cost)
    bounds = [0]
    while bounds[-1] < cost.size:
        b0 = bounds[-1]
        b1 = int(np.searchsorted(cum, cum[b0] + budget, "right")) - 1
        bounds.append(min(max(b1, b0 + 1), cost.size))
    return bounds


def _leaf_lanes(
    start: np.ndarray, count: np.ndarray, width: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Slots of leaves laid end to end, leaf ``i`` padded from
    ``count[i]`` to ``width[i]`` lanes by repeating its last slot, and
    the lanes' validity mask."""
    off = _cumsum0(width)
    lane = np.arange(off[-1], dtype=np.int64)
    lane -= np.repeat(off[:-1], width)
    cnt = np.repeat(count, width)
    valid = lane < cnt
    np.minimum(lane, cnt - 1, out=lane)
    lane += np.repeat(start, width)
    return lane, valid


def _source_rows(post, chgt, ctrt, slots, valid, frame, nf):
    """Feature rows ``[a | s x a | a (x) s | (s x a) (x) s]`` (``nf`` of
    them, structure of arrays) of the source lanes ``slots``, positions
    ``s`` relative to the centre of group ``frame`` (per lane); padding
    lanes carry zero charge.  Also returns ``s``."""
    n = slots.size
    s = np.empty((3, n), dtype=np.float64)
    feat = np.empty((nf, n), dtype=np.float64)
    centre = np.empty(n, dtype=np.float64)
    for c in range(3):
        np.take(post[c], slots, out=s[c])
        np.take(ctrt[c], frame, out=centre)
        s[c] -= centre
        np.take(chgt[c], slots, out=feat[c])
    # every feature row is linear in the charge, so zeroed padding
    # lanes contribute nothing to any contraction
    feat[0:3] *= valid
    _cross_rows(s, feat[0:3], feat[3:6])
    if nf == 24:
        np.multiply(
            feat[0:6].reshape(2, 3, 1, n), s, out=feat[6:24].reshape(2, 3, 3, n)
        )
    return s, feat


def _near_block_pass(
    tree, charges_sorted, layout, kernel, sigma, gradient, budget, bk, m,
):
    """The expanded near pass over rows of leaf-pair radial blocks.

    Returns the group-local target positions and the ``(n, 30)`` (``(n,
    6)`` without gradient) contracted feature sums per target slot,
    ``sum f [a | s x a]`` then ``sum g [a | s x a | a (x) s | (s x a)
    (x) s]``, for :func:`_near_epilogue`.

    Per row ``r`` (:class:`_NearPlan`): ``rho^2`` of all its blocks from
    one K = 5 GEMM in ``r``'s frame, the radial pair ``f``, ``g`` once
    per element, the pieces contracted for ``r``'s targets (the leaves'
    feature rows in ``r``'s frame against the block rows, one GEMM per
    piece) and each mirror contracted for its target group ``t`` (``r``'s
    feature rows in ``t``'s frame against the transposed block).  Every
    GEMM has K <= 48 and a shape that is a property of the pair or of
    ``r``'s near list alone; a row's pieces, and the mirrors of one shape
    class, are stacked into one call.  ``f`` and ``g`` are symmetric in
    the pair, so a mirror is exact in exact arithmetic.

    Rows run in group order, in chunks of whole rows of at most
    ``budget`` bytes.  A chunk's rows and mirror classes are its
    write-disjoint batches, each writing only its own buffer; one serial
    reduction per chunk then adds the buffers into the targets, row by
    row.  A target group ``t`` thus receives its mirrors one at a time
    in group order of their rows, which is its list order (the traversal
    emits a group's leaves level by level, node ids ascending), then its
    own row's pieces summed in list order — a fixed order of its own
    near-list entries, whatever the chunks or a shard's sub-list hold,
    so a shard's segment reproduces the serial field bit for bit.
    """
    n = tree.n_particles
    nf = 24 if gradient else 6
    nw = 30 if gradient else 6
    count, gstart = layout.group_count, layout.group_start
    plan = _near_plan(tree, layout)
    lanes, kc, csum = plan.lanes, plan.kc, plan.csum
    rows = np.flatnonzero(plan.krow > 0)
    rk, rc = plan.krow[rows], count[rows]
    bounds = _chunk_bounds(_near_row_bytes(plan, rows, gradient), budget)
    nchunk = len(bounds) - 1
    row_chunk = np.repeat(np.arange(nchunk), np.diff(bounds))
    chunk = np.zeros(count.size, dtype=np.int64)
    chunk[rows] = row_chunk
    if m.enabled:
        m.counter("tree.near.batches").inc(nchunk)
        m.counter("tree.near.padded_pairs").inc(int(rk @ rc))

    # mirrors in work order: chunk, shape class (the target leaf's
    # padded lanes K, the row group's particles C), row, target
    mrow, mtgt, nmir = plan.mrow, plan.mtgt, plan.mrow.size
    mshape = lanes[mtgt] * (int(lanes.max()) + 1) + count[mrow]
    mw = np.lexsort((mtgt, mrow, mshape, chunk[mrow]))
    li = np.flatnonzero(plan.lone)
    mrow, mtgt, mshape, moff = mrow[mw], mtgt[mw], mshape[mw], plan.moff[mw]
    mchunk = chunk[mrow]
    mk, mc = lanes[mtgt], count[mrow]

    # the lane segments, chunk by chunk: the rows' leaves in lane order
    # (framed at the row group; a zero-charge segment fills a row's last
    # piece), then the mirrors' lanes in work order (the row group's
    # own, framed at the mirror's target); a chunk expands its segments
    # into lanes
    re = np.flatnonzero(~plan.mirror)
    pad = np.flatnonzero(kc > csum)
    seg_row = np.concatenate((plan.target[re], pad, plan.mrow[li]))
    seg = np.lexsort((
        np.concatenate((plan.offset[re], csum[pad], plan.moff[li],
                        np.arange(nmir))),
        np.concatenate((seg_row, np.full(nmir, count.size, dtype=np.int64))),
        np.concatenate((chunk[seg_row], mchunk)),
    ))
    seg_width = np.concatenate((
        plan.width[re], kc[pad] - csum[pad], lanes[plan.mtgt[li]], mc
    ))
    leaf = np.concatenate((plan.source[re], pad, plan.mtgt[li], mrow))[seg]
    seg_width = seg_width[seg]
    kind = seg - re.size
    real = (kind < 0) | (kind >= pad.size)
    seg_frame = np.concatenate((seg_row, mtgt))[seg]
    seg_at = np.searchsorted(
        np.concatenate((chunk[seg_row], mchunk))[seg], np.arange(nchunk + 1)
    ).tolist()
    del seg, kind

    def lane_table(k):
        """Slot, validity and frame of every lane of chunk ``k``."""
        a, z = seg_at[k], seg_at[k + 1]
        width = seg_width[a:z]
        slot, valid = _leaf_lanes(gstart[leaf[a:z]], count[leaf[a:z]], width)
        valid &= np.repeat(real[a:z], width)
        return slot, valid, np.repeat(seg_frame[a:z], width)

    # offsets from a row's or mirror's chunk start: lanes in the table,
    # radial-block elements, target lanes, mirror output lanes
    def from_chunk(cum, at):
        return (cum[:-1] - cum[at]).tolist()

    rbase = np.asarray(bounds[:-1], dtype=np.int64)[row_chunk]
    lcum, xcum, tcum = _cumsum0(rk), _cumsum0(rk * rc), _cumsum0(rc)
    lrow, xrow, trow = (from_chunk(c, rbase) for c in (lcum, xcum, tcum))
    x_at, t_at = xcum[bounds].tolist(), tcum[bounds].tolist()
    pieces = (kc[rows] // _NEAR_PIECE).tolist()
    rk_l, rc_l = rk.tolist(), rc.tolist()
    m_at = np.searchsorted(mchunk, np.arange(nchunk + 1))
    mbase = m_at[mchunk]
    mpos = np.searchsorted(rows, mrow)
    mx = (xcum[mpos] - xcum[rbase[mpos]] + moff * mc).tolist()
    mlcum, mdcum = _cumsum0(mc), _cumsum0(mk)
    ml, md = from_chunk(mlcum, mbase), from_chunk(mdcum, mbase)
    md_at = mdcum[m_at].tolist()
    # mirror classes: runs of one (chunk, shape)
    cut = np.flatnonzero((mshape[1:] != mshape[:-1])
                         | (mchunk[1:] != mchunk[:-1]))
    cfirst = np.concatenate(([0], cut + 1))[:nmir]
    cls_at = np.searchsorted(mchunk[cfirst], np.arange(nchunk + 1)).tolist()
    clast = np.append(cfirst[1:], nmir).tolist()
    cfirst, mk_l, mc_l = cfirst.tolist(), mk.tolist(), mc.tolist()
    # a row's mirrors go to distinct groups, so each row adds them in one
    # step: their real output lanes in (row, target) order
    mb = np.lexsort((mtgt, mrow))
    mcnt = count[mtgt[mb]]
    mcum = _cumsum0(mcnt)
    mrun = mcum[np.append(np.searchsorted(mrow[mb], rows), nmir)].tolist()
    mtarget = _leaf_lanes(gstart[mtgt[mb]], mcnt, mcnt)[0]
    mlane = _leaf_lanes(mdcum[:-1][mb] - mdcum[mbase[mb]], mcnt, mcnt)[0]

    # ``to_device`` is the identity on the NumPy backend and the
    # tests' hook into the body: the per-evaluation operands pass through
    # it.  Per target slot: the group-local coordinates and the augmented
    # distance operand ``[-2 t, |t|^2, 1]`` in units of sigma, gathered
    # row by row; component rows of positions / charges / group centres
    # for the per-chunk source gathers.
    tloc = tree.positions - layout.group_center[layout.group_of_slot]
    taug = np.empty((5, n), dtype=np.float64)
    np.multiply(tloc.T, 1.0 / sigma, out=taug[0:3])
    np.einsum("in,in->n", taug[0:3], taug[0:3], out=taug[3])
    taug[0:3] *= -2.0
    taug[4] = 1.0
    tloc, taug = bk.to_device(tloc), bk.to_device(taug)
    trows = np.take(taug, _leaf_lanes(gstart[rows], count[rows], rc)[0], axis=1)
    post = bk.to_device(np.ascontiguousarray(tree.positions.T))
    chgt = bk.to_device(np.ascontiguousarray(charges_sorted.T))
    ctrt = bk.to_device(np.ascontiguousarray(layout.group_center.T))
    acc = np.zeros((n, nw), dtype=np.float64)

    for k in range(nchunk):
        r0, r1 = bounds[k], bounds[k + 1]
        c0, c1 = cls_at[k], cls_at[k + 1]
        s, feat = _source_rows(post, chgt, ctrt, *lane_table(k), nf)
        nlr = lrow[r1 - 1] + rk_l[r1 - 1]
        saug = np.empty((5, nlr), dtype=np.float64)
        np.multiply(s[:, :nlr], 1.0 / sigma, out=saug[0:3])
        saug[3] = 1.0
        np.einsum("in,in->n", saug[0:3], saug[0:3], out=saug[4])
        tcan = trows[:, t_at[k]:t_at[k + 1]]
        x = np.empty_like(taug, shape=x_at[k + 1] - x_at[k])
        mout = np.empty((md_at[k + 1] - md_at[k], nw), dtype=np.float64)
        cout = [None] * (r1 - r0)

        def distances(r: int) -> None:
            a, c, x0 = rk_l[r], rc_l[r], xrow[r]
            np.matmul(
                saug[:, lrow[r]:lrow[r] + a].T, tcan[:, trow[r]:trow[r] + c],
                out=x[x0:x0 + a * c].reshape(a, c),
            )

        def contract(i: int) -> None:
            if i < r1 - r0:
                # row r's own targets: its pieces, one GEMM each
                r = r0 + i
                p, c, l0, x0 = pieces[r], rc_l[r], lrow[r], xrow[r]
                if not p:
                    return
                lhs = feat[:, l0:l0 + p * _NEAR_PIECE]
                lhs = lhs.reshape(nf, p, _NEAR_PIECE).transpose(1, 0, 2)
                out = np.empty((p, nw, c), dtype=np.float64)
                for a, rows_out in zip(radial, (out[:, 0:6], out[:, 6:30])):
                    np.matmul(
                        lhs[:, 0:rows_out.shape[1]],
                        a[x0:x0 + p * _NEAR_PIECE * c].reshape(p, -1, c),
                        out=rows_out,
                    )
                cout[i] = out
                return
            # a mirror class: the row groups' feature rows in the targets'
            # frames against the transposed blocks
            j = c0 + i - (r1 - r0)
            a, z = cfirst[j], clast[j]
            kk, c, b = mk_l[a], mc_l[a], z - a
            lhs = feat[:, nlr + ml[a]:nlr + ml[a] + b * c]
            lhs = lhs.reshape(nf, b, c).transpose(1, 0, 2)
            out = mout[md[a]:md[a] + b * kk].reshape(b, kk, nw)
            out = out.transpose(0, 2, 1)
            for src, rows_out in zip(radial, (out[:, 0:6], out[:, 6:30])):
                # the class's blocks: rows of a view of every run of
                # kk * c consecutive elements
                runs = np.ndarray((src.size - kk * c + 1, kk * c),
                                  np.float64, src, strides=(8, 8))
                blk = runs[mx[a:z]].reshape(b, kk, c)
                np.matmul(lhs[:, 0:rows_out.shape[1]], blk.transpose(0, 2, 1),
                          out=rows_out)

        bk.map_batches(distances, range(r0, r1))
        f, g = kernel.f_g_from_rho2(x, sigma, gradient)
        radial = (f, g) if gradient else (f,)
        bk.map_batches(contract, range(r1 - r0 + c1 - c0))

        # the reduction, row by row: a row's pieces, summed in order, onto
        # its targets; its mirrors onto distinct groups
        e0 = mrun[r0]
        mbuf = mout[mlane[e0:mrun[r1]]]
        for i in range(r1 - r0):
            r = r0 + i
            if cout[i] is not None:
                g0 = int(gstart[rows[r]])
                acc[g0:g0 + rc_l[r]] += np.add.reduce(cout[i], axis=0).T
            if mrun[r + 1] > mrun[r]:
                acc[mtarget[mrun[r]:mrun[r + 1]]] += (
                    mbuf[mrun[r] - e0:mrun[r + 1] - e0]
                )
    return tloc, acc


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
