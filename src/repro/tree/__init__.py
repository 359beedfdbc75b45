"""Barnes-Hut tree code ("PEPC"): oct-tree, multipoles, MAC, traversal."""

from repro.tree.morton import (
    MAX_DEPTH,
    BoundingCube,
    morton_encode,
    morton_decode,
    quantize,
    cell_of_key,
)
from repro.tree.build import Octree, build_octree
from repro.tree.multipole import VortexMoments, compute_vortex_moments
from repro.tree.profiles import (
    RationalProfile,
    radial_chain,
    supports_multipoles,
)
from repro.tree.mac import MACVariant, mac_accept_sq
from repro.tree.traversal import InteractionLists, dual_traversal
from repro.tree.evaluate import evaluate_vortex_far, evaluate_vortex_far_pairs
from repro.tree.state import (
    CacheStats,
    TreeState,
    TreeStateCache,
    array_fingerprint,
)
from repro.tree.engine import (
    SegmentLayout,
    TraversalLayout,
    build_traversal_layout,
    segment_layout,
)
from repro.tree.evaluator import TreeStats, TreeEvaluator

__all__ = [
    "MAX_DEPTH",
    "BoundingCube",
    "morton_encode",
    "morton_decode",
    "quantize",
    "cell_of_key",
    "Octree",
    "build_octree",
    "VortexMoments",
    "compute_vortex_moments",
    "RationalProfile",
    "radial_chain",
    "supports_multipoles",
    "MACVariant",
    "mac_accept_sq",
    "InteractionLists",
    "dual_traversal",
    "evaluate_vortex_far",
    "evaluate_vortex_far_pairs",
    "CacheStats",
    "TreeState",
    "TreeStateCache",
    "array_fingerprint",
    "SegmentLayout",
    "TraversalLayout",
    "build_traversal_layout",
    "segment_layout",
    "TreeStats",
    "TreeEvaluator",
]
