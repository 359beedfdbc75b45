"""Space-time-node process topology (paper Fig. 2 + PFASST-ER).

A run with ``P_T`` time slices, ``P_S`` spatial ranks per slice and
``P_N`` node ranks per time-space cell uses a ``P_T x P_S x P_N`` grid of
processes.  Each process belongs to one *space* communicator (one PEPC
instance: vary ``s``), one *time* communicator (the matching member of
every PEPC instance: vary ``t``) and one *node* communicator (PFASST-ER:
the ranks sharing the collocation nodes of one cell's SDC sweeps: vary
``n``).  The layout is time-major, then space, then node:
``r = (t * p_space + s) * p_nodes + n``.  The paper's grid is the
``p_nodes = 1`` case, whose numbering is ``divmod(r, p_space)``; an
extent-1 axis simply has singleton communicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["SpaceTimeGrid"]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Cartesian decomposition of world ranks into (time, space, node).

    Matches the paper's "duplicate the PEPC structure P_T times"
    construction, with each ``(t, s)`` cell widened to ``p_nodes`` ranks
    that share the diagonal sweeper's node-parallel RHS evaluations.
    """

    p_time: int
    p_space: int = 1
    p_nodes: int = 1

    def __post_init__(self) -> None:
        if self.p_time < 1 or self.p_space < 1 or self.p_nodes < 1:
            raise ValueError(
                "grid extents must be >= 1, got "
                f"({self.p_time}, {self.p_space}, {self.p_nodes})"
            )

    @property
    def world_size(self) -> int:
        return self.p_time * self.p_space * self.p_nodes

    def coords(self, world_rank: int) -> Tuple[int, int, int]:
        """Return ``(time_slice, space_index, node_index)``."""
        if not 0 <= world_rank < self.world_size:
            raise ValueError(
                f"world rank {world_rank} out of range 0..{self.world_size - 1}"
            )
        cell, n = divmod(world_rank, self.p_nodes)
        t, s = divmod(cell, self.p_space)
        return t, s, n

    def world_rank(
        self, time_slice: int, space_index: int, node_index: int
    ) -> int:
        if not 0 <= time_slice < self.p_time:
            raise ValueError(f"time_slice {time_slice} out of range")
        if not 0 <= space_index < self.p_space:
            raise ValueError(f"space_index {space_index} out of range")
        if not 0 <= node_index < self.p_nodes:
            raise ValueError(f"node_index {node_index} out of range")
        return (
            time_slice * self.p_space + space_index
        ) * self.p_nodes + node_index

    def space_comm(self, world_rank: int) -> List[int]:
        """Ranks sharing this rank's PEPC (space) communicator."""
        t, _, n = self.coords(world_rank)
        return [self.world_rank(t, s, n) for s in range(self.p_space)]

    def time_comm(self, world_rank: int) -> List[int]:
        """Ranks sharing this rank's PFASST (time) communicator."""
        _, s, n = self.coords(world_rank)
        return [self.world_rank(t, s, n) for t in range(self.p_time)]

    def node_comm(self, world_rank: int) -> List[int]:
        """Ranks sharing this rank's PFASST-ER node communicator."""
        t, s, _ = self.coords(world_rank)
        return [self.world_rank(t, s, n) for n in range(self.p_nodes)]

    def time_row(self, time_slice: int) -> List[int]:
        """All world ranks of one time slice (the recovery resync unit)."""
        return [
            self.world_rank(time_slice, s, n)
            for s in range(self.p_space)
            for n in range(self.p_nodes)
        ]
