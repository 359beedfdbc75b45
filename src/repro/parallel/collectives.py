"""Collective operations for simulated-MPI rank programs.

Implemented on top of point-to-point messages with binomial-tree schedules,
so their virtual-time cost scales like ``O(log P)`` — matching how real MPI
implementations behave on the machines the paper targets.  ``allgather``
uses the classic ring schedule (P-1 neighbour exchanges), the same
communication pattern PEPC uses for its branch-node exchange.

All helpers are generator functions used with ``yield from`` inside a rank
program::

    value = yield from bcast(comm, value, root=0)
    total = yield from allreduce(comm, my_part, op=operator.add)

Every collective threads the ``timeout`` / ``retries`` recovery kwargs
into its receive legs, so a collective over a lossy link
(fault-injected drops or corruption) recovers by bounded link-layer
retransmission instead of hanging — see :mod:`repro.parallel.faults`.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, List, Optional

from repro.parallel import tags
from repro.parallel.simmpi import VirtualComm

__all__ = ["bcast", "reduce", "allreduce", "allgather"]


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _arank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def bcast(
    comm: VirtualComm,
    value: Any,
    root: int = 0,
    tag: str = tags.BCAST,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Generator[Any, Any, Any]:
    """Binomial-tree broadcast; returns the root's value on every rank."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    me = _vrank(rank, root, size)
    mask = 1
    # find the bit at which this rank receives
    while mask < size:
        if me & mask:
            value = yield comm.recv(
                _arank(me - mask, root, size), (tag, mask),
                timeout=timeout, retries=retries,
            )
            break
        mask <<= 1
    # forward to higher vranks
    child_mask = mask >> 1 if me else _highest_bit(size)
    mask = child_mask
    while mask >= 1:
        peer = me + mask
        if peer < size:
            yield comm.send(_arank(peer, root, size), (tag, mask), value)
        mask >>= 1
    return value


def _highest_bit(size: int) -> int:
    mask = 1
    while mask < size:
        mask <<= 1
    return mask >> 1 if mask >= size else mask


def reduce(
    comm: VirtualComm,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    root: int = 0,
    tag: str = tags.REDUCE,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Generator[Any, Any, Optional[Any]]:
    """Binomial-tree reduction; only the root returns the combined value."""
    size, rank = comm.size, comm.rank
    me = _vrank(rank, root, size)
    mask = 1
    while mask < size:
        if me & mask:
            yield comm.send(_arank(me - mask, root, size), (tag, mask), value)
            return None
        peer = me + mask
        if peer < size:
            other = yield comm.recv(
                _arank(peer, root, size), (tag, mask),
                timeout=timeout, retries=retries,
            )
            value = op(value, other)
        mask <<= 1
    return value


def allreduce(
    comm: VirtualComm,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    tag: Any = tags.ALLREDUCE,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Generator[Any, Any, Any]:
    """Reduce to rank 0, then broadcast the result (cost ~ 2 log P).

    ``tag`` may be any hashable (tuples included); sub-phases derive
    distinct tags from it.
    """
    reduced = yield from reduce(
        comm, value, op=op, root=0, tag=(tag, "r"),
        timeout=timeout, retries=retries,
    )
    return (yield from bcast(
        comm, reduced, root=0, tag=(tag, "b"),
        timeout=timeout, retries=retries,
    ))


def allgather(
    comm: VirtualComm,
    value: Any,
    tag: str = tags.ALLGATHER,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Generator[Any, Any, List[Any]]:
    """Ring allgather: every rank returns ``[value_0, ..., value_{P-1}]``.

    P-1 rounds; in round ``k`` each rank forwards to its right neighbour
    the value it received in round ``k-1`` (its own in round 0), so each
    contribution travels around the ring exactly once.  This is the
    neighbour-exchange pattern of PEPC's branch-node exchange (paper
    Sec. III-A) and costs ``O(P)`` latency but only ``2 (P-1) / P`` of
    the total payload per link — cheaper than gather+bcast for the large
    branch payloads it carries here.
    """
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    out[rank] = value
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    cur = value
    for step in range(size - 1):
        yield comm.send(right, (tag, step), cur)
        cur = yield comm.recv(
            left, (tag, step),
            timeout=timeout, retries=retries,
        )
        out[(rank - step - 1) % size] = cur
    return out
