"""Happens-before certification of a simulated-MPI run (dynamic layer).

A :class:`~repro.parallel.simmpi.Scheduler` constructed with
``certify=True`` numbers each rank's sends and deliveries in program
order — its *events* — and logs one fixed-width int record per
delivery, in the destination's program order:

    ``(src, channel, send index, receive index)``

``channel`` is the run-local id of the exact ``(src, dst, tag)``
channel (given at its first send), ``send index`` the sender's event
number of the send (the message carries it) and ``receive index`` the
destination's event number of the delivery; the delivery's virtual time
goes to a float list beside it.  With each rank's event count that *is*
the happens-before DAG: every rank's program-order chain plus one
send -> receive edge per delivery.  Logging costs a few int appends per
event (``benchmarks/bench_commgraph_overhead.py`` pins it), and the
derivation below is O(deliveries) in NumPy.  Vector clocks are never
built: they are a function of the DAG (Fidge/Mattern), and each clock's
own component is its event's index, so the DAG is a function of them.

This module turns the logs into:

* **message races** — two deliveries on one exact ``(src, dst, tag)``
  channel whose send events are not strictly ordered.  Both sends on a
  channel come from one rank, whose program order fixes them, so
  consecutive deliveries must carry increasing send indices: an equal
  index means the same send event was delivered twice
  (``duplicate-delivery``, e.g. a fault-injected duplicate), a smaller
  one that the channel delivered out of send order
  (``reordered-delivery``).  This is the Netzer/Miller message-race idea
  specialised to exact-addressed FIFO channels: *cross-source*
  concurrency into one rank (a gather root, a ring allgather) is the
  normal, deterministic case and is deliberately not flagged, because
  matching here is by exact ``(src, tag)`` — there is no wildcard
  receive for concurrent senders to race toward.

* a :class:`DeterminismCertificate` — a digest over the schedule-
  *independent* encoding of the DAG (**no virtual times**, which depend
  on ``measure_compute`` wall measurements).  Two runs of the same
  program get the same digest regardless of service order or execution
  backend; ``verify=True`` + ``certify=True`` enforces exactly that, and
  the CLI compares digests across ``SerialExecutor`` /
  ``ProcessExecutor``.

The digest (format :data:`FORMAT`) is blake2b-16 over little-endian
int64 arrays: the ranks, channel and per-destination delivery counts
and the per-rank event counts; the census ``(src, dst, copies)`` per
channel in canonical order, i.e. sorted by ``(src, dst, tag text)``,
then the tag texts; then every destination's delivery records with
channels renumbered canonically.  A channel's tag text is the ``repr``
of the first tag object sent on it, so tags that compare equal but
repr differently (``2`` and ``np.int64(2)``) are one channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.parallel.tags import tag_class

__all__ = [
    "MessageRace",
    "DeterminismCertificate",
    "find_races",
    "build_certificate",
]

#: the digest's format-version tag, hashed first
FORMAT = b"repro-hb-dag/2"

#: an exact channel, the census key: ``(src, dst, tag)``
Channel = Tuple[int, int, Hashable]


@dataclass(frozen=True)
class MessageRace:
    """Two deliveries on one channel with unordered send events."""

    source: int
    dest: int
    tag: Hashable
    #: ``duplicate-delivery`` (equal send indices — the same send event
    #: delivered twice) or ``reordered-delivery`` (the later delivery
    #: carries the earlier send)
    kind: str
    #: the sender's event indices of the two deliveries' sends
    first_send: int
    second_send: int
    first_time: float
    second_time: float

    @property
    def tag_class(self) -> Hashable:
        return tag_class(self.tag)

    def render(self) -> str:
        return (
            f"race[{self.kind}] channel {self.source} -> {self.dest} "
            f"tag={self.tag!r} (class {self.tag_class!r}): deliveries at "
            f"t={self.first_time:.9g} and t={self.second_time:.9g} carry "
            f"send events {self.first_send} / {self.second_send} of "
            f"rank {self.source}"
        )


@dataclass(frozen=True)
class DeterminismCertificate:
    """Schedule-independent fingerprint of one certified run.

    ``digest`` hashes the happens-before DAG (see module docstring);
    ``channels`` is the wire-message census per exact channel.
    ``races`` non-empty means the run's message order is NOT fixed by
    program order alone and the digest does not certify determinism —
    callers should treat the run as suspect.
    """

    n_ranks: int
    digest: str
    n_messages: int
    n_deliveries: int
    channels: Tuple[Tuple[int, int, str, int], ...]
    races: Tuple[MessageRace, ...]

    @property
    def race_free(self) -> bool:
        return not self.races

    def summary(self) -> str:
        lines = [
            f"DeterminismCertificate digest={self.digest}",
            f"  ranks={self.n_ranks} messages={self.n_messages} "
            f"deliveries={self.n_deliveries} channels={len(self.channels)}",
        ]
        if self.races:
            lines.append(f"  RACES ({len(self.races)}):")
            lines.extend("    " + r.render() for r in self.races)
        else:
            lines.append("  race-free: delivery order fixed by program order")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "n_ranks": self.n_ranks,
            "n_messages": self.n_messages,
            "n_deliveries": self.n_deliveries,
            "n_channels": len(self.channels),
            "race_free": self.race_free,
            "races": [r.render() for r in self.races],
        }


def find_races(
    keys: Sequence[Channel],
    records: np.ndarray,
    times: np.ndarray,
) -> List[MessageRace]:
    """Message races: consecutive deliveries on one channel whose send
    indices do not increase.

    ``records`` holds one ``(src, channel, send index, receive index)``
    int row per delivery, ``channel`` indexing ``keys``; ``times`` the
    deliveries' virtual times.  A channel has one destination, so its
    receive indices are its delivery order: one ``lexsort`` groups the
    deliveries by channel in that order and one ``diff`` compares each
    with its predecessor.
    """
    if len(records) < 2:
        return []
    order = np.lexsort((records[:, 3], records[:, 1]))
    channel, sent = records[order, 1], records[order, 2]
    step = np.diff(sent)
    races: List[MessageRace] = []
    for i in np.flatnonzero((channel[1:] == channel[:-1]) & (step <= 0)):
        a, b = order[i], order[i + 1]
        src, dst, tag = keys[channel[i]]
        races.append(MessageRace(
            source=src, dest=dst, tag=tag,
            kind="duplicate-delivery" if step[i] == 0
            else "reordered-delivery",
            first_send=int(sent[i]), second_send=int(sent[i + 1]),
            first_time=float(times[a]), second_time=float(times[b]),
        ))
    races.sort(key=lambda r: (r.dest, r.source, repr(r.tag), r.first_time))
    return races


def build_certificate(
    n_ranks: int,
    census: Dict[Channel, int],
    copies: Sequence[int],
    events: Sequence[int],
    logs: Sequence[Sequence[int]],
    times: Sequence[Sequence[float]],
) -> DeterminismCertificate:
    """Derive the certificate for one completed ``certify=True`` run.

    ``census`` maps each channel to its run-local id (``0..n-1``, in
    order of first send) and ``copies[id]`` counts its wire messages;
    ``events[r]`` is rank ``r``'s event count, ``logs[r]`` its delivery
    records flattened (four ints each) and ``times[r]`` their times.
    """
    keys = list(census)
    text = [repr(tag) for _, _, tag in keys]
    # canonical channel order: by (src, dst, tag text); a tie of two
    # unequal tags with one repr keeps first-send order, which is one
    # sender's program order
    text_rank = np.empty(len(keys), dtype=np.int64)
    text_rank[sorted(range(len(keys)), key=text.__getitem__)] = \
        np.arange(len(keys))
    table = np.array([(src, dst, n) for (src, dst, _), n
                      in zip(keys, copies)], dtype="<i8").reshape(-1, 3)
    canonical = np.lexsort((text_rank, table[:, 1], table[:, 0]))
    table = table[canonical]
    text = [text[i] for i in canonical]
    src, dst, n = table.T.tolist()
    channels = tuple(zip(src, dst, text, n))
    per_dst = [len(log) // 4 for log in logs]
    records = np.concatenate(
        [np.asarray(log, dtype="<i8") for log in logs]
    ).reshape(-1, 4)
    races = find_races(keys, records, np.concatenate(
        [np.asarray(ts, dtype=np.float64) for ts in times]
    ))
    renumber = np.empty_like(canonical)
    renumber[canonical] = np.arange(len(keys))
    records[:, 1] = renumber[records[:, 1]]
    tag_text = "\n".join(text).encode()
    h = hashlib.blake2b(FORMAT, digest_size=16)
    h.update(np.array([n_ranks, len(keys), len(tag_text), *events,
                       *per_dst], dtype="<i8").tobytes())
    h.update(table.tobytes())
    h.update(tag_text)
    h.update(records.tobytes())
    return DeterminismCertificate(
        n_ranks=n_ranks,
        digest=h.hexdigest(),
        n_messages=int(table[:, 2].sum()),
        n_deliveries=len(records),
        channels=channels,
        races=tuple(races),
    )
