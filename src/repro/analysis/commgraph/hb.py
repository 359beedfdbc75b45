"""Happens-before certification of a simulated-MPI run (dynamic layer).

A :class:`~repro.parallel.simmpi.Scheduler` constructed with
``certify=True`` stamps every message with a scalar send stamp (a
sequence number) and logs send/delivery events in per-rank program order
— O(1) appends, so certification stays off the scheduler's hot path
(``benchmarks/bench_commgraph_overhead.py`` pins the cost).  After the
run :func:`reconstruct_vector_clocks` replays those logs once and fills
each delivery record with the sender's and receiver's **vector clocks**:

    ``(src, dst, tag, send_vc, recv_vc_after, sent_time, deliver_time)``.

This module turns those records into:

* **message races** — two deliveries on one exact ``(src, dst, tag)``
  channel whose *send events* are not strictly ordered by happens-before.
  A single sequential sender totally orders its own sends, so on a
  healthy channel consecutive deliveries always satisfy
  ``send_vc[i] < send_vc[i+1]`` element-wise; equality means the same
  send event was delivered twice (a fault-injected duplicate), and
  incomparability or inversion means the channel carried messages whose
  order no program-order chain fixes — nondeterminism that one lucky
  ``verify=True`` replay can miss.  This is the Netzer/Miller message-race
  idea specialised to exact-addressed FIFO channels: *cross-source*
  concurrency into one rank (a gather root, a ring allgather) is the
  normal, deterministic case and is deliberately not flagged, because
  matching here is by exact ``(src, tag)`` — there is no wildcard receive
  for concurrent senders to race toward.

* a :class:`DeterminismCertificate` — a digest over the schedule-
  *independent* projection of the happens-before DAG (per-destination
  delivery sequences with their vector clocks, the channel census, final
  per-rank clocks; **no virtual times**, which depend on
  ``measure_compute`` wall measurements).  Two runs of the same program
  get the same digest regardless of service order or execution backend;
  ``verify=True`` + ``certify=True`` enforces exactly that, and the CLI
  compares digests across ``SerialExecutor`` / ``ProcessExecutor``.

Derivation walks every delivery (50,864 in ``ctrl-n64``), so clocks are
compared in C (``map(operator.le, ...)``) and each census channel's tag
is ``repr``-ed once; the replay's merge loop stays Python (``map(max,
...)`` measured slower).  Every delivery is on a census channel (each
send is counted), and it is hashed under that channel's text: the repr
of the first tag object sent on it, so tags that compare equal but repr
differently (``2`` and ``np.int64(2)``) hash as one channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import le
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.parallel.tags import tag_class

__all__ = [
    "Delivery",
    "MessageRace",
    "DeterminismCertificate",
    "reconstruct_vector_clocks",
    "build_certificate",
]

#: delivery record layout produced by the scheduler (kept a plain tuple
#: there so commgraph stays a lazy import)
Delivery = Tuple[int, int, Hashable, Optional[Tuple[int, ...]],
                 Tuple[int, ...], float, float]


def _vc_less(a: Sequence[int], b: Sequence[int]) -> bool:
    """Strict vector-clock order: a <= b element-wise and a != b."""
    return all(map(le, a, b)) and tuple(a) != tuple(b)


@dataclass(frozen=True)
class MessageRace:
    """Two deliveries on one channel with unordered send events."""

    source: int
    dest: int
    tag: Hashable
    #: ``duplicate-delivery`` (equal send clocks — the same send event
    #: delivered twice), ``reordered-delivery`` (later delivery carries
    #: an earlier send), or ``concurrent-send`` (incomparable clocks)
    kind: str
    first_vc: Optional[Tuple[int, ...]]
    second_vc: Optional[Tuple[int, ...]]
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
            f"send clocks {self.first_vc} / {self.second_vc}"
        )


@dataclass(frozen=True)
class DeterminismCertificate:
    """Schedule-independent fingerprint of one certified run.

    ``digest`` hashes the happens-before projection (see module
    docstring); ``channels`` is the wire-message census per exact
    channel.  ``races`` non-empty means the run's message order is NOT
    fixed by program order alone and the digest does not certify
    determinism — callers should treat the run as suspect.
    """

    n_ranks: int
    digest: str
    n_messages: int
    n_deliveries: int
    channels: Tuple[Tuple[int, int, str, int], ...]
    clocks: Tuple[Tuple[int, ...], ...]
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


def reconstruct_vector_clocks(
    n_ranks: int,
    events: Sequence[Sequence[Any]],
) -> Tuple[List[Delivery], List[Tuple[int, ...]]]:
    """Replay the scheduler's event logs into vector-clocked deliveries.

    ``events[rank]`` is the rank's program-order log: an ``int`` entry
    is a send stamp (the globally unique sequence number the matching
    raw delivery record carries in slot 3), a tuple entry is the raw
    delivery record ``(src, dst, tag, send_stamp, None, sent, t)``.
    Each rank's clock ticks its own component on every event; a
    delivery additionally merges the sender's clock at the matching
    send.  A rank's replay therefore blocks on a delivery until the
    sender's log has been replayed past that send — since every
    recorded delivery follows its send, the round-robin sweep below
    always terminates on a completed run's logs.

    Returns ``(deliveries, final_clocks)`` where each delivery is the
    canonical 7-tuple with slots 3/4 holding the send / post-receive
    vector clocks (``None`` send clock for unstamped records).  The
    list interleaves ranks in replay order; each destination's
    subsequence is its program order, which is all the downstream
    consumers (races, digest, flow arrows) depend on.
    """
    vclocks = [[0] * n_ranks for _ in range(n_ranks)]
    send_vc: Dict[int, Tuple[int, ...]] = {}
    out: List[Delivery] = []
    ptr = [0] * len(events)
    progress = True
    while progress:
        progress = False
        for rank, log in enumerate(events):
            while ptr[rank] < len(log):
                entry = log[ptr[rank]]
                vc = vclocks[rank]
                if type(entry) is int:
                    vc[rank] += 1
                    send_vc[entry] = tuple(vc)
                else:
                    stamp = entry[3]
                    svc = None
                    if stamp is not None:
                        svc = send_vc.get(stamp)
                        if svc is None:
                            break  # sender not replayed this far yet
                    vc[rank] += 1
                    if svc is not None:
                        for i, v in enumerate(svc):
                            if v > vc[i]:
                                vc[i] = v
                    out.append((entry[0], entry[1], entry[2], svc,
                                tuple(vc), entry[5], entry[6]))
                ptr[rank] += 1
                progress = True
    if any(ptr[r] < len(log) for r, log in enumerate(events)):
        raise ValueError(
            "inconsistent event log: a delivery references a send its "
            "sender never logged"
        )
    return out, [tuple(c) for c in vclocks]


def find_races(deliveries: Sequence[Delivery]) -> List[MessageRace]:
    """Message races: per-channel delivery pairs with unordered sends.

    Deliveries to one destination appear in the global record in that
    destination's program order, so scanning consecutive pairs per exact
    channel covers every adjacent happens-before violation (a total
    order fails iff some adjacent pair fails).
    """
    per_channel: Dict[Tuple[int, int, Hashable], List[Delivery]] = {}
    for d in deliveries:
        per_channel.setdefault((d[0], d[1], d[2]), []).append(d)
    races: List[MessageRace] = []
    for (src, dst, tag), seq in per_channel.items():
        for a, b in zip(seq, seq[1:]):
            va, vb = a[3], b[3]
            if va is None or vb is None:
                continue  # unstamped (pre-certify) message; nothing to say
            if tuple(va) == tuple(vb):
                kind = "duplicate-delivery"
            elif _vc_less(vb, va):
                kind = "reordered-delivery"
            elif not _vc_less(va, vb):
                kind = "concurrent-send"
            else:
                continue
            races.append(MessageRace(
                source=src, dest=dst, tag=tag, kind=kind,
                first_vc=tuple(va), second_vc=tuple(vb),
                first_time=a[6], second_time=b[6],
            ))
    races.sort(key=lambda r: (r.dest, r.source, repr(r.tag), r.first_time))
    return races


def build_certificate(
    n_ranks: int,
    deliveries: Sequence[Delivery],
    census: Dict[Tuple[int, int, Hashable], int],
    clocks: Sequence[Tuple[int, ...]],
) -> DeterminismCertificate:
    """Derive the certificate for one completed ``certify=True`` run."""
    races = find_races(deliveries)
    # one tag repr per census channel, shared with its deliveries
    text = {key: repr(key[2]) for key in census}
    channels = tuple(sorted(
        (key[0], key[1], tag, census[key]) for key, tag in text.items()
    ))
    # canonical, time-free projection: per-destination delivery sequences
    # (destination-local order is program order, hence schedule-free)
    per_dst: List[List[Tuple[Any, ...]]] = [[] for _ in range(n_ranks)]
    for d in deliveries:
        per_dst[d[1]].append((d[0], text[d[:3]], d[3], d[4]))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(("census", channels)).encode())
    h.update(repr(("clocks", tuple(tuple(c) for c in clocks))).encode())
    for dst, seq in enumerate(per_dst):
        h.update(repr((dst, seq)).encode())
    return DeterminismCertificate(
        n_ranks=n_ranks,
        digest=h.hexdigest(),
        n_messages=sum(census.values()),
        n_deliveries=len(deliveries),
        channels=channels,
        clocks=tuple(tuple(c) for c in clocks),
        races=tuple(races),
    )
