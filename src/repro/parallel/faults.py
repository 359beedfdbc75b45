"""Deterministic fault injection for the simulated-MPI scheduler.

The paper's target regime — PFASST on 262k Blue Gene/P cores — is one
where hard faults (node loss) and soft faults (bit flips on the wire or
in memory) are the norm rather than the exception.  This module gives the
discrete-event scheduler (:mod:`repro.parallel.simmpi`) a *declarative*
fault model so that the space-time coupling of the solver can be studied
under failure, reproducibly:

* :class:`RankCrash` — a rank raises :class:`RankFailure` *into* its rank
  program at a virtual-time or operation-count trigger, modelling a node
  loss.  The program may catch it (algorithmic recovery, see
  ``pfasst/controller.py``) or let it propagate (the rank dies).
* :class:`MessageFault` — per-channel message loss, duplication, extra
  delay, or bit-level payload corruption on matching sends.
* :class:`FaultPlan` — a frozen bundle of the above plus a seed.  The
  plan is *pure data*: all pseudo-randomness is derived by hashing the
  ``(seed, rule, channel, occurrence)`` identity, never by drawing from a
  stateful RNG, so injected faults are identical under any scheduler
  service order — a requirement for the ``verify=True`` replay check.
* :class:`ResilienceReport` — every injected fault and every recovery
  action (retransmit, timeout, caught/uncaught crash) with its
  virtual-clock cost, collected per scheduler run.
* :class:`FaultRuntime` — the per-run fault layer the scheduler builds
  from a plan: it carries the injections out, keeps the shadow copies
  the link-layer retransmit falls back on, and judges delivered payloads.

With no plan installed no fault layer is built and the run is
byte-identical to the fault-free scheduler.

Because every injection decision is a pure hash of message/op *identity*
(never of wall-clock or scheduler state), fault plans are also
independent of the execution backend (:mod:`repro.parallel.executor`):
the same plan injects the same faults at the same virtual times whether
compute payloads run inline or on a process pool — the executor
byte-identity suite pins a faulty recovered run across backends.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = [
    "RankCrash",
    "MessageFault",
    "FaultPlan",
    "FaultEvent",
    "ResilienceReport",
    "RankFailure",
    "RecvTimeout",
    "CorruptionError",
    "payload_checksum",
    "corrupt_payload",
    "CorruptedPayload",
    "MESSAGE_FAULT_KINDS",
]

MESSAGE_FAULT_KINDS = ("drop", "duplicate", "delay", "corrupt")


# ---------------------------------------------------------------------------
# exceptions
# ---------------------------------------------------------------------------
class RankFailure(RuntimeError):
    """A simulated hard fault: the rank's node died.

    Thrown *into* the rank program's generator at an operation boundary.
    Catching it models a replacement rank taking over (with all local
    state lost); letting it propagate kills the rank, and the scheduler
    re-raises at the end of the run (or at the deadlock it provokes).
    """

    def __init__(self, rank: int, time: float, detail: str = "") -> None:
        msg = f"rank {rank} crashed at virtual time {time:.9g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.rank = rank
        self.time = time


class RecvTimeout(RuntimeError):
    """A receive with ``timeout=`` expired without a deliverable message.

    Thrown into the receiving rank program; the waiting cost has already
    been charged to its virtual clock.
    """

    def __init__(
        self, rank: int, source: int, tag: Hashable, time: float
    ) -> None:
        super().__init__(
            f"rank {rank} timed out waiting for rank {source}, "
            f"tag={tag!r}, at virtual time {time:.9g}"
        )
        self.rank = rank
        self.source = source
        self.tag = tag
        self.time = time


class CorruptionError(RuntimeError):
    """A corrupted payload was detected and retransmission was exhausted."""

    def __init__(
        self, rank: int, source: int, tag: Hashable, time: float, detail: str
    ) -> None:
        super().__init__(
            f"corrupted payload detected at receive boundary: "
            f"rank {rank} <- rank {source}, tag={tag!r}, "
            f"virtual time {time:.9g}; {detail}"
        )
        self.rank = rank
        self.source = source
        self.tag = tag
        self.time = time


# ---------------------------------------------------------------------------
# order-independent pseudo-randomness
# ---------------------------------------------------------------------------
def _stable_unit(*key: Any) -> float:
    """Deterministic uniform variate in [0, 1) from a hashable key.

    Hash-derived rather than drawn from a stateful RNG so the value a
    message receives depends only on the message's *identity* (seed,
    rule, channel, occurrence), never on the order in which the
    scheduler happens to process channels — replay verification reverses
    that order and must see identical faults.
    """
    blob = repr(key).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


# ---------------------------------------------------------------------------
# payload checksum / corruption
# ---------------------------------------------------------------------------
def payload_checksum(payload: Any) -> int:
    """CRC32 over the canonical byte serialisation of a payload.

    Uses :func:`repro.analysis.commcheck.freeze`, so ndarrays are
    checksummed bit-exactly (dtype, shape and raw bytes) — a single
    flipped mantissa bit changes the checksum.
    """
    from repro.analysis.commcheck import freeze

    return zlib.crc32(freeze(payload))


@dataclass(frozen=True)
class CorruptedPayload:
    """Replacement payload for objects with no byte-level representation."""

    original_type: str


def corrupt_payload(payload: Any, key: Tuple[Any, ...]) -> Any:
    """Return a deterministically bit-corrupted copy of ``payload``.

    Float arrays and scalars get a single bit flip at a hash-chosen
    (element, bit) position — the classic silent-data-corruption model,
    which may produce anything from a last-place perturbation to a
    NaN/Inf.  Byte strings get one flipped bit; other objects are
    replaced by a :class:`CorruptedPayload` marker (detected via the
    checksum either way).
    """
    if isinstance(payload, np.ndarray) and payload.dtype.kind == "f":
        arr = np.ascontiguousarray(payload).copy()
        if arr.size:
            flat = arr.reshape(-1).view(np.uint64)
            idx = int(_stable_unit("elem", *key) * flat.size) % flat.size
            bit = int(_stable_unit("bit", *key) * 64) % 64
            flat[idx] ^= np.uint64(1) << np.uint64(bit)
        return arr
    if isinstance(payload, float):
        (bits,) = struct.unpack("<Q", struct.pack("<d", payload))
        bit = int(_stable_unit("bit", *key) * 64) % 64
        return struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))[0]
    if isinstance(payload, (bytes, bytearray)) and len(payload):
        data = bytearray(payload)
        idx = int(_stable_unit("byte", *key) * len(data)) % len(data)
        data[idx] ^= 1 << (int(_stable_unit("bit", *key) * 8) % 8)
        return bytes(data)
    if isinstance(payload, int) and not isinstance(payload, bool):
        bit = int(_stable_unit("bit", *key) * 16) % 16
        return payload ^ (1 << bit)
    return CorruptedPayload(original_type=type(payload).__name__)


# ---------------------------------------------------------------------------
# declarative fault rules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RankCrash:
    """Crash rule: rank ``rank`` fails once a trigger is reached.

    Exactly one of the triggers must be given:

    ``after_ops``
        Fire when the rank has yielded this many operations (sends,
        receives, work and annotate ops all count).  Operation counts
        are schedule-independent, so this trigger is safe under replay
        verification.
    ``at_time``
        Fire when the rank's virtual clock reaches this value (checked
        at operation boundaries).  Deterministic only with
        ``measure_compute=False`` (modelled clocks).

    The failure fires at most once; after a program catches it, the rank
    continues as its own replacement.
    """

    rank: int
    after_ops: Optional[int] = None
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if (self.after_ops is None) == (self.at_time is None):
            raise ValueError(
                "exactly one of after_ops / at_time must be given"
            )
        if self.after_ops is not None and self.after_ops < 1:
            raise ValueError(f"after_ops must be >= 1, got {self.after_ops}")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"at_time must be >= 0, got {self.at_time}")


@dataclass(frozen=True)
class MessageFault:
    """Message fault rule applied to matching sends.

    Parameters
    ----------
    kind :
        ``"drop"`` (message never delivered; a pristine copy is kept for
        link-layer retransmission), ``"duplicate"`` (delivered twice),
        ``"delay"`` (arrival postponed by ``delay`` seconds) or
        ``"corrupt"`` (payload bit-flipped; pristine copy + checksum
        kept so the receive boundary can detect and repair it).
    source, dest, tag :
        Channel filter; ``None`` matches anything.  Tags are compared
        for equality (PFASST tags are tuples like ``("lvl", block, lev,
        k)``).
    occurrences :
        Indices of matching messages to hit, counted per ``(source,
        dest, tag)`` channel in FIFO order; ``None`` hits every match.
    probability :
        Keep only this fraction of selected messages, decided by an
        order-independent hash of the message identity and the plan
        seed (1.0 = always).
    delay :
        Extra arrival delay in seconds, ``kind="delay"`` only.
    """

    kind: str
    source: Optional[int] = None
    dest: Optional[int] = None
    tag: Optional[Hashable] = None
    occurrences: Optional[Tuple[int, ...]] = None
    probability: float = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {MESSAGE_FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.kind == "delay" and self.delay == 0.0:
            raise ValueError('kind="delay" needs a positive delay')
        if self.kind != "delay" and self.delay != 0.0:
            raise ValueError(f'delay is only meaningful for kind="delay"')
        if self.occurrences is not None:
            occ = tuple(int(i) for i in self.occurrences)
            if any(i < 0 for i in occ):
                raise ValueError(f"occurrences must be >= 0, got {occ}")
            object.__setattr__(self, "occurrences", occ)

    def matches(self, source: int, dest: int, tag: Hashable) -> bool:
        return (
            (self.source is None or self.source == source)
            and (self.dest is None or self.dest == dest)
            and (self.tag is None or self.tag == tag)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults for one scheduler run.

    Passive data: the scheduler instantiates a fresh runtime consumer
    per run (so scheduler reuse and replay verification see identical
    injections).
    """

    crashes: Tuple[RankCrash, ...] = ()
    messages: Tuple[MessageFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "messages", tuple(self.messages))

    @property
    def empty(self) -> bool:
        return not self.crashes and not self.messages


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or recovery action on the virtual timeline."""

    kind: str
    time: float
    rank: Optional[int] = None
    source: Optional[int] = None
    dest: Optional[int] = None
    tag: Optional[Hashable] = None
    detail: str = ""
    #: virtual-clock seconds charged to the affected rank by recovery
    cost: float = 0.0

    def render(self) -> str:
        parts = [f"[t={self.time:.9g}] {self.kind}"]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.source is not None or self.dest is not None:
            parts.append(f"channel={self.source}->{self.dest}")
        if self.tag is not None:
            parts.append(f"tag={self.tag!r}")
        if self.cost:
            parts.append(f"cost={self.cost:.9g}s")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (tag tuples become nested lists)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "rank": self.rank,
            "source": self.source,
            "dest": self.dest,
            "tag": _jsonify_tag(self.tag),
            "detail": self.detail,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=data["kind"],
            time=float(data["time"]),
            rank=data.get("rank"),
            source=data.get("source"),
            dest=data.get("dest"),
            tag=_tuplify_tag(data.get("tag")),
            detail=data.get("detail", ""),
            cost=float(data.get("cost", 0.0)),
        )


def _jsonify_tag(tag: Any) -> Any:
    """Tuples to lists, recursively — the JSON image of a wire tag."""
    if isinstance(tag, tuple):
        return [_jsonify_tag(t) for t in tag]
    return tag


def _tuplify_tag(tag: Any) -> Any:
    """Inverse of :func:`_jsonify_tag`: lists back to tuples."""
    if isinstance(tag, list):
        return tuple(_tuplify_tag(t) for t in tag)
    return tag


@dataclass
class ResilienceReport:
    """Everything the fault layer did during one scheduler run.

    ``injected`` holds the faults the plan fired (crashes, drops,
    duplicates, delays, corruptions); ``recovered`` holds the recovery
    actions taken (retransmits, expired timeouts, caught/uncaught
    crashes, pool respawns) with the virtual-clock cost each one
    charged.  ``rule_activations`` maps every rule of the fault plan —
    in plan order, crashes first — to how many times it actually fired,
    so rules that never matched anything are visible as zero rows
    instead of silently doing nothing.
    """

    injected: List[FaultEvent] = field(default_factory=list)
    recovered: List[FaultEvent] = field(default_factory=list)
    rule_activations: List[Dict[str, Any]] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.injected + self.recovered:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    @property
    def recovery_cost(self) -> float:
        """Total virtual-clock seconds charged by recovery actions."""
        return float(sum(ev.cost for ev in self.recovered))

    def summary(self) -> str:
        if (not self.injected and not self.recovered
                and not self.rule_activations):
            return "resilience report: no faults injected, no recovery needed"
        lines = [
            f"resilience report: {len(self.injected)} fault(s) injected, "
            f"{len(self.recovered)} recovery action(s), "
            f"total recovery cost {self.recovery_cost:.9g}s"
        ]
        for ev in self.injected:
            lines.append("  injected:  " + ev.render())
        for ev in self.recovered:
            lines.append("  recovered: " + ev.render())
        dormant = [r for r in self.rule_activations
                   if r["activations"] == 0]
        for row in dormant:
            lines.append(
                f"  dormant:   {row['rule']} never fired ({row['describe']})"
            )
        return "\n".join(lines)

    def trace_onto(self, tracer: Any) -> None:
        """Mirror the fault and recovery events onto a tracer's timeline."""
        for cat, events in (("fault", self.injected),
                            ("recovery", self.recovered)):
            for ev in events:
                owner = ev.rank if ev.rank is not None else ev.source
                track = f"rank{owner}" if owner is not None else "main"
                args = {"source": ev.source, "dest": ev.dest,
                        "tag": None if ev.tag is None else str(ev.tag),
                        "detail": ev.detail, "cost": ev.cost}
                tracer.instant(
                    ev.kind, t=ev.time, track=track, cat=cat,
                    args={k: v for k, v in args.items() if v is not None},
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable image, invertible via :meth:`from_dict`.

        ``json.dumps(report.to_dict())`` round-trips: wire tags (nested
        tuples) are stored as nested lists and converted back on load.
        """
        return {
            "injected": [ev.to_dict() for ev in self.injected],
            "recovered": [ev.to_dict() for ev in self.recovered],
            "rule_activations": [dict(r) for r in self.rule_activations],
            "counts": self.counts(),
            "recovery_cost": self.recovery_cost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilienceReport":
        return cls(
            injected=[FaultEvent.from_dict(d) for d in data["injected"]],
            recovered=[FaultEvent.from_dict(d) for d in data["recovered"]],
            rule_activations=[dict(r) for r in
                              data.get("rule_activations", [])],
        )


# ---------------------------------------------------------------------------
# per-run consumer
# ---------------------------------------------------------------------------
@dataclass
class SendDisposition:
    """What the fault layer decided for one send; the default is clean."""

    drop: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0
    duplicates: int = 0
    #: identity key for deterministic corruption bit choice
    key: Tuple[Any, ...] = ()


#: an exact ``(source, dest, tag)`` channel of the scheduler
Channel = Tuple[int, int, Hashable]


class FaultRuntime:
    """Mutable per-run consumer of a :class:`FaultPlan`: the fault layer.

    The scheduler builds one per run, and only when a plan is given;
    everything that exists only under a plan lives here.  It tracks
    which crash rules have fired and, per ``(rule, channel)``, how many
    matching messages have been seen — the occurrence counters are per
    channel so they are independent of the order in which the scheduler
    interleaves different channels.  It turns a crash that has come due
    into the :class:`RankFailure` to throw, carries out what
    :meth:`on_send` decided on the wire message (:meth:`inject`), keeps
    the pristine shadow copy of every message it dropped or corrupted
    for the scheduler's bounded retransmit, judges delivered payloads
    (:meth:`verdict`) and logs every ``injected`` event of the report.
    Virtual time, channels, lazy timeouts and the ``recovered`` events
    stay with the scheduler.
    """

    def __init__(self, plan: FaultPlan, report: ResilienceReport) -> None:
        from repro.analysis.sanitize import enabled as sanitize_enabled

        self.plan = plan
        self.report = report
        self._fired_crashes: set = set()
        self._match_counts: Dict[Tuple[int, int, int, Hashable], int] = {}
        #: message-rule index -> number of sends the rule actually altered
        #: (passed the occurrence and probability gates, not just matched)
        self._rule_hits: Dict[int, int] = {}
        #: pristine copies of dropped / corrupted messages, FIFO per
        #: channel; the scheduler's bounded retransmit pops from them
        self.shadow: Dict[Channel, Deque[Any]] = {}
        #: ``REPRO_SANITIZE=1``: every delivered payload is scanned
        self._sanitize = sanitize_enabled()

    def activation_summary(self) -> List[Dict[str, Any]]:
        """Per-rule activation counts, in plan order (crashes first).

        Rules with ``activations == 0`` never fired — usually a trigger
        that the run never reached (an ``after_ops`` past program exit, a
        channel that carries no traffic) and worth surfacing instead of
        silently doing nothing.
        """
        rows: List[Dict[str, Any]] = []
        for i, rule in enumerate(self.plan.crashes):
            trigger = (f"after_ops={rule.after_ops}"
                       if rule.after_ops is not None
                       else f"at_time={rule.at_time}")
            rows.append({
                "rule": f"crash[{i}]",
                "kind": "crash",
                "describe": f"rank={rule.rank} {trigger}",
                "activations": 1 if i in self._fired_crashes else 0,
            })
        for i, rule in enumerate(self.plan.messages):
            rows.append({
                "rule": f"message[{i}]",
                "kind": rule.kind,
                "describe": (
                    f"source={rule.source} dest={rule.dest} "
                    f"tag={_jsonify_tag(rule.tag)!r} "
                    f"occurrences={rule.occurrences} "
                    f"probability={rule.probability}"
                ),
                "activations": self._rule_hits.get(i, 0),
            })
        return rows

    # -- crashes --------------------------------------------------------
    def crash_due(
        self, rank: int, ops_done: int, clock: float
    ) -> Optional[RankFailure]:
        """The failure to throw into ``rank`` now, if a crash is due.

        Fires the first unfired crash rule for ``rank`` whose trigger is
        reached and logs it.
        """
        for i, rule in enumerate(self.plan.crashes):
            if i in self._fired_crashes or rule.rank != rank:
                continue
            due = (
                rule.after_ops is not None and ops_done >= rule.after_ops
            ) or (rule.at_time is not None and clock >= rule.at_time)
            if due:
                self._fired_crashes.add(i)
                self.report.injected.append(
                    FaultEvent(
                        kind="crash", time=clock, rank=rank,
                        detail=(
                            f"after_ops={rule.after_ops} "
                            f"at_time={rule.at_time}"
                        ),
                    )
                )
                return RankFailure(rank, clock)
        return None

    # -- messages -------------------------------------------------------
    def on_send(
        self, source: int, dest: int, tag: Hashable
    ) -> SendDisposition:
        """Fold every matching rule into one disposition for this send."""
        disp = SendDisposition()
        for i, rule in enumerate(self.plan.messages):
            if not rule.matches(source, dest, tag):
                continue
            counter_key = (i, source, dest, tag)
            occ = self._match_counts.get(counter_key, 0)
            self._match_counts[counter_key] = occ + 1
            if rule.occurrences is not None and occ not in rule.occurrences:
                continue
            if rule.probability < 1.0:
                draw = _stable_unit(
                    self.plan.seed, i, source, dest, tag, occ
                )
                if draw >= rule.probability:
                    continue
            disp.key = (self.plan.seed, i, source, dest, tag, occ)
            self._rule_hits[i] = self._rule_hits.get(i, 0) + 1
            if rule.kind == "drop":
                disp.drop = True
            elif rule.kind == "duplicate":
                disp.duplicates += 1
            elif rule.kind == "delay":
                disp.extra_delay += rule.delay
            elif rule.kind == "corrupt":
                disp.corrupt = True
        return disp

    def inject(self, disp: SendDisposition, channel: Channel,
               msg: Any) -> List[Any]:
        """Carry out the disposition of a send on its wire message ``msg``.

        Returns the copies that reach the channel — none for a drop, one
        plus the injected duplicates otherwise (one send event: they
        share ``msg``'s stamp) — logs each injection at the send instant
        ``msg.sent`` and keeps the pristine copy of a dropped or
        corrupted message, the latter with its checksum.
        """
        source, dest, tag = channel

        def log(kind: str, detail: str = "") -> None:
            self.report.injected.append(
                FaultEvent(kind=kind, time=msg.sent, source=source,
                           dest=dest, tag=tag, detail=detail)
            )

        if disp.extra_delay:
            log("delay", f"arrival postponed by {disp.extra_delay:.9g}s")
        if disp.drop:
            self.shadow.setdefault(channel, deque()).append(msg)
            log("drop")
            return []
        if disp.corrupt:
            msg = msg._replace(checksum=payload_checksum(msg.payload))
            self.shadow.setdefault(channel, deque()).append(msg)
            msg = msg._replace(
                payload=corrupt_payload(msg.payload, disp.key)
            )
            log("corrupt", "bit-level payload corruption")
        for _ in range(disp.duplicates):
            log("duplicate")
        return [msg] * (1 + disp.duplicates)

    def verdict(self, msg: Any) -> Optional[str]:
        """None when a delivered payload is intact, else a diagnostic."""
        if (
            msg.checksum is not None
            and payload_checksum(msg.payload) != msg.checksum
        ):
            return "payload checksum mismatch (injected corruption)"
        if self._sanitize:
            from repro.analysis.sanitize import SanitizeError, check_payload

            try:
                check_payload("recv", msg.payload)
            except SanitizeError as exc:
                return f"sanitizer rejected payload: {exc}"
        return None
