"""Central message-tag registry for the simulated MPI.

Every point-to-point tag and collective base tag in this repository is a
string *head* — alone (``"space:brx"``) or as the first element of a
tuple carrying routing components (``("lvl", block, attempt, lev, k)``).
Before this module existed the heads were scattered string literals, and
nothing stopped two subsystems from picking the same head: traffic on the
colliding channels would silently interleave FIFO-style, deterministic
per run but *not* the channels the programs meant — exactly the bug class
that is invisible to one replay and fatal once a third process dimension
(PFASST-ER node comms) or a serving layer multiplexes more programs onto
one scheduler world.

The registry makes tag heads a checked namespace:

* every head is declared **once**, with its owning subsystem, its tuple
  arity (components after the head; ``None`` for bare/derived tags) and —
  for the PFASST recovery protocol — which component carries the restart
  ``attempt`` counter;
* declaring the same head twice raises :class:`TagCollisionError` at
  import time;
* call sites reference the exported constants (``PRED``, ``SPACE_BRX``,
  ...) instead of re-spelling the literal — enforced by ``repro-lint``
  rule RPR007 and by the ``repro-comm check`` skeleton verifier;
* :func:`tag_class` maps any on-the-wire tag — including tags wrapped by
  nested :class:`~repro.parallel.simmpi.SubComm` translation
  ``(comm_id, tag)`` and the split protocol's derived forms — back to
  its registered head, which is the grouping key for orphan reports and
  happens-before race certification.

The constant *values* are exactly the pre-registry literals, so message
streams, virtual clocks and replay digests are byte-identical across the
migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

__all__ = [
    "TagCollisionError",
    "TagFamily",
    "TagRegistry",
    "REGISTRY",
    "register",
    "family_of",
    "tag_head",
    "tag_class",
    "attempt_of",
    # -- pfasst controller --
    "PRED",
    "LVL",
    "FTUB",
    "FTPRED",
    "FTSYNC",
    "FTWARM",
    "FTROW",
    "RTOL",
    "BLOCKEND",
    # -- space-parallel tree --
    "SPACE_BRX",
    "SPACE_RHS",
    "SPACE_DIGEST",
    # -- node-parallel sweeps (PFASST-ER) --
    "NODE_F",
    "NODE_DIGEST",
    # -- collective sub-phase defaults --
    "BCAST",
    "REDUCE",
    "ALLREDUCE",
    "SCATTER",
    "ALLGATHER",
    # -- simulated-MPI infrastructure --
    "SPLIT",
    "SUBCOMM",
    "FTEPOCH",
]


class TagCollisionError(RuntimeError):
    """Two subsystems declared (or used) the same tag head."""


@dataclass(frozen=True)
class TagFamily:
    """One registered tag head and its shape contract.

    ``arity`` is the number of tuple components *after* the head at
    construction sites (``("lvl", block, attempt, lev, k)`` has arity 4);
    ``None`` means the head is used bare or with derived/variable shapes
    (collective base tags, infrastructure wrappers).  ``attempt_index``
    names the 0-based component (after the head) carrying the PFASST
    restart attempt counter, used by orphan reports to summarise
    recovery-protocol retag storms.  ``shared`` marks infrastructure
    families (collective sub-phases, the split protocol) that any
    subsystem may legitimately route traffic through.
    """

    head: str
    subsystem: str
    arity: Optional[int] = None
    description: str = ""
    attempt_index: Optional[int] = None
    shared: bool = False


class TagRegistry:
    """Mapping of tag heads to :class:`TagFamily`, collision-checked."""

    def __init__(self) -> None:
        self._families: Dict[str, TagFamily] = {}

    def register(
        self,
        head: str,
        subsystem: str,
        arity: Optional[int] = None,
        description: str = "",
        attempt_index: Optional[int] = None,
        shared: bool = False,
    ) -> str:
        """Declare a tag family; returns ``head`` for constant binding."""
        if not isinstance(head, str) or not head:
            raise ValueError(f"tag head must be a non-empty string, got {head!r}")
        existing = self._families.get(head)
        if existing is not None:
            raise TagCollisionError(
                f"tag head {head!r} already registered by subsystem "
                f"{existing.subsystem!r}; subsystem {subsystem!r} must pick "
                "a distinct head (colliding channels interleave silently)"
            )
        self._families[head] = TagFamily(
            head=head,
            subsystem=subsystem,
            arity=arity,
            description=description,
            attempt_index=attempt_index,
            shared=shared,
        )
        return head

    def family_of(self, head: Hashable) -> Optional[TagFamily]:
        if isinstance(head, str):
            return self._families.get(head)
        return None

    def __contains__(self, head: object) -> bool:
        return isinstance(head, str) and head in self._families

    def families(self) -> List[TagFamily]:
        return [self._families[h] for h in sorted(self._families)]


#: the process-wide registry all subsystems declare into at import time
REGISTRY = TagRegistry()


def register(
    head: str,
    subsystem: str,
    arity: Optional[int] = None,
    description: str = "",
    attempt_index: Optional[int] = None,
    shared: bool = False,
) -> str:
    return REGISTRY.register(
        head, subsystem, arity, description, attempt_index, shared
    )


# ---------------------------------------------------------------------------
# family declarations (values are the historical literals — byte-identical
# message streams across the migration)
# ---------------------------------------------------------------------------

# PFASST controller (repro/pfasst/controller.py)
PRED = register(
    "pred", "pfasst", 3, "predictor staircase hand-off (block, attempt, j)",
    attempt_index=1,
)
LVL = register(
    "lvl", "pfasst", 4,
    "V-cycle slice end value forward (block, attempt, lev, k)",
    attempt_index=1,
)
FTUB = register(
    "ftub", "pfasst", 2, "recovery block-initial-value refetch bcast",
    attempt_index=1,
)
FTPRED = register(
    "ftpred", "pfasst", 2, "predictor-phase failure-status allreduce",
    attempt_index=1,
)
FTSYNC = register(
    "ftsync", "pfasst", 3,
    "per-iteration failure-status + residual allreduce (block, attempt, k)",
    attempt_index=1,
)
FTWARM = register(
    "ftwarm", "pfasst", 3,
    "warm-restart coarse hand-off to a rebuilt rank (block, attempt, rank)",
    attempt_index=1,
)
FTROW = register(
    "ftrow", "pfasst", 2,
    "grid-recovery row-resync level-state bcast over a space row "
    "(block, attempt)",
    attempt_index=1,
)
RTOL = register(
    "rtol", "pfasst", 3, "residual early-exit allreduce (block, attempt, k)",
    attempt_index=1,
)
BLOCKEND = register(
    "blockend", "pfasst", 2, "block-chaining end-value bcast (block, attempt)",
    attempt_index=1,
)

# space-parallel tree evaluation (repro/tree/parallel.py + grid program)
SPACE_BRX = register(
    "space:brx", "space", None, "PEPC branch-node exchange ring allgather"
)
SPACE_RHS = register(
    "space:rhs", "space", None, "per-segment RHS allgather"
)
SPACE_DIGEST = register(
    "space:digest", "space", None, "cross-column end-value digest allgather"
)

# node-parallel sweeps (repro/sdc/sweeper.py RhsContext.node_values + the
# grid program) — the PFASST-ER per-node sub-comm traffic
NODE_F = register(
    "node:f", "node", None,
    "per-node-slice RHS allgather over the PFASST-ER node comm"
)
NODE_DIGEST = register(
    "node:digest", "node", None,
    "cross-node-rank end-value digest allgather"
)

# collective sub-phase defaults (repro/parallel/collectives.py) — callers
# usually pass their own base tag; these are the bare-call defaults and
# derived-phase heads, legitimately used from every subsystem
BCAST = register("_bcast", "collectives", None, shared=True)
REDUCE = register("_reduce", "collectives", None, shared=True)
ALLREDUCE = register("_allreduce", "collectives", None, shared=True)
SCATTER = register("_scatter", "collectives", None, shared=True)
ALLGATHER = register("_allgather", "collectives", None, shared=True)

# simulated-MPI infrastructure (repro/parallel/simmpi.py)
SPLIT = register(
    "_split", "simmpi", None, "MPI_Comm_split gather/bcast protocol",
    shared=True,
)
SUBCOMM = register(
    "sub", "simmpi", None,
    "SubComm tag-translation wrapper head: tags become (comm_id, tag) with "
    "comm_id = ('sub', seq, color)",
    shared=True,
)
FTEPOCH = register(
    "ftepoch", "simmpi", None,
    "EpochComm tag-translation wrapper head: tags become "
    "(('ftepoch', epoch), tag); bumping the epoch orphans in-flight "
    "traffic from an aborted recovery attempt",
    shared=True,
)


# ---------------------------------------------------------------------------
# tag introspection
# ---------------------------------------------------------------------------
def tag_head(tag: Hashable) -> Hashable:
    """First element of a tuple tag, or the tag itself when bare."""
    if isinstance(tag, tuple) and tag:
        return tag[0]
    return tag


def _unwrap(tag: Hashable) -> Hashable:
    """Strip SubComm/derived-phase wrapping down to the family tuple.

    On-the-wire forms this understands (recursively, so nested SubComms
    ``(comm_id, (comm_id, tag))`` unwrap fully):

    * ``(("sub", seq, color), inner_tag)`` — SubComm translation: the
      class lives in ``inner_tag``;
    * ``(("ftepoch", epoch), inner_tag)`` — EpochComm attempt stamping:
      the class lives in ``inner_tag``;
    * ``((base_tag, phase), component)`` — derived collective/split
      phases: the class lives in the nested head ``base_tag``;
    * ``("head", ...)`` / ``"head"`` — already a family form.
    """
    seen = 0
    while isinstance(tag, tuple) and tag:
        head = tag[0]
        if isinstance(head, tuple) and head:
            if head[0] in (SUBCOMM, FTEPOCH) and len(tag) >= 2:
                tag = tag[1]  # descend into the translated tag
            else:
                tag = head  # derived phase: class is in the nested head
        else:
            return tag
        seen += 1
        if seen > 64:  # malformed self-referential tag; bail out
            return tag
    return tag


def tag_class(tag: Hashable) -> Hashable:
    """The registered head a wire tag belongs to (grouping key).

    Unwraps nested SubComm translation and derived collective phases;
    returns the innermost head (a string for registered families, the
    raw value for unregistered tags).
    """
    return tag_head(_unwrap(tag))


def family_of(tag: Hashable) -> Optional[TagFamily]:
    """The :class:`TagFamily` of a wire tag, or ``None`` if unregistered."""
    return REGISTRY.family_of(tag_class(tag))


def attempt_of(tag: Hashable) -> Optional[Any]:
    """The PFASST restart-attempt component of a wire tag, if declared."""
    inner = _unwrap(tag)
    family = REGISTRY.family_of(tag_head(inner))
    if family is None or family.attempt_index is None:
        return None
    idx = family.attempt_index + 1
    if isinstance(inner, tuple) and len(inner) > idx:
        return inner[idx]
    return None
