"""Metrics registry: named counters, gauges and histograms.

Replaces the ad-hoc private counters that used to be scattered across the
code base (the scheduler's message totals, ``TreeStateCache`` hit/miss
pairs, per-evaluator call counts) with one exportable substrate:

* **counters** — monotonically increasing integers/floats (messages and
  bytes per rank pair, MAC tests, retransmissions, sanitizer
  activations);
* **gauges** — last-written values (cache sizes, alpha estimates);
* **histograms** — streaming count/total/min/max summaries (interaction
  list sizes, per-iteration residuals) without storing every sample.

Metrics may carry **labels** (``counter("mpi.bytes", src=0, dest=1)``);
each label combination is its own series, rendered as
``name{dest=1,src=0}`` in exports (keys sorted, so naming is
deterministic).

Like the tracer, the module-level registry defaults to
:data:`NULL_METRICS`, whose factory methods return shared no-op
instruments — call sites pay one ``enabled`` check and zero allocations
when metrics are off.  Components that *own* a registry (the simulated
MPI scheduler) create a real one unconditionally: their instrument
updates are O(ranks²), nowhere near a hot path.

Export with :func:`MetricsRegistry.as_dict`, ``to_json`` or ``to_csv``,
or bundle into a trace file via :func:`repro.obs.export.save_trace`.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "use_metrics",
]


def _series_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical series name: ``name{k1=v1,k2=v2}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotone accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary (count/total/min/max); no samples retained."""

    __slots__ = ("name", "count", "total", "vmin", "vmax")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.vmin: float = float("inf")
        self.vmax: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.vmin,
                "max": self.vmax, "mean": self.mean}


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def summary(self) -> Dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Inactive registry: factories return a shared no-op instrument."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Live registry; instruments are created on first use and reused."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- factories ------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _series_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(key)
        return found

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _series_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge(key)
        return found

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _series_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(key)
        return found

    # -- export ---------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready snapshot, keys sorted for deterministic output."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].summary()
                           for k in sorted(self._histograms)},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_csv(self) -> str:
        """Flat ``kind,name,field,value`` rows (one histogram field per
        row), deterministic order.

        Fields are quoted per RFC 4180 via :mod:`csv`: multi-label series
        names are comma-joined (``msg_bytes{dst=1,src=0}``), so writing
        them unquoted would split one name across several columns and
        corrupt every per-rank-pair scheduler metric.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "name", "field", "value"])
        snapshot = self.as_dict()
        for name, value in snapshot["counters"].items():
            writer.writerow(["counter", name, "value", value])
        for name, value in snapshot["gauges"].items():
            writer.writerow(["gauge", name, "value", value])
        for name, summary in snapshot["histograms"].items():
            for fld in ("count", "total", "min", "max", "mean"):
                writer.writerow(["histogram", name, fld, summary[fld]])
        return buf.getvalue()

    def merge(self, other: "MetricsRegistry | Dict[str, Dict[str, Any]]") -> None:
        """Fold another registry (or an ``as_dict`` snapshot) into this
        one: counters add, gauges overwrite, histogram summaries add."""
        snap = other.as_dict() if hasattr(other, "as_dict") else other
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snap.get("histograms", {}).items():
            if not summary or not summary.get("count"):
                continue
            h = self.histogram(name)
            h.count += int(summary["count"])
            h.total += summary["total"]
            h.vmin = min(h.vmin, summary["min"])
            h.vmax = max(h.vmax, summary["max"])


#: the module-level active registry (no-op unless replaced)
_ACTIVE: NullMetrics | MetricsRegistry = NULL_METRICS


def get_metrics() -> NullMetrics | MetricsRegistry:
    """The active registry; :data:`NULL_METRICS` unless one was installed."""
    return _ACTIVE


def set_metrics(registry: Optional[NullMetrics | MetricsRegistry]) -> None:
    """Install ``registry`` globally (``None`` restores the no-op)."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_METRICS


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped installation: the previous registry is restored on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
