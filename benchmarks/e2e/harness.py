"""Child-side measurement helpers: spans, resource readings, check points.

Layer times are *outside* spans: the harness records a span around each
call into a layer's public function, using ``repro.obs.Tracer`` as the
span store so ``repro-trace summarize`` reads the file.  With tracing
off the store is ``NULL_TRACER`` and ``span()`` allocates nothing.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import config

HARNESS_TRACK = "harness"


# -- spans --------------------------------------------------------------
class Spans:
    """Harness spans on one track of a (possibly null) tracer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    @property
    def enabled(self) -> bool:
        return bool(self.tracer.enabled)

    def span(self, name: str):
        return self.tracer.span(name, track=HARNESS_TRACK, cat="harness")

    def named(self, name: str) -> list:
        return [s for s in getattr(self.tracer, "spans", ())
                if s.track == HARNESS_TRACK and s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def covered(self, parent, names: Sequence[str]) -> float:
        """Seconds of ``parent`` covered by harness spans named in
        ``names`` (union of intervals, so nesting is not double counted)."""
        inside = sorted(
            (s.t0, s.t1) for s in self.tracer.spans
            if s.track == HARNESS_TRACK and s.name in names
            and s is not parent and s.t0 >= parent.t0 and s.t1 <= parent.t1
        )
        total, end = 0.0, parent.t0
        for t0, t1 in inside:
            if t1 <= end:
                continue
            total += t1 - max(t0, end)
            end = t1
        return total

    def self_time(self, name: str, child_names: Sequence[str]) -> float:
        """Duration of the ``name`` spans minus their child spans."""
        return sum(
            s.duration - self.covered(s, child_names)
            for s in self.named(name)
        )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- resources ----------------------------------------------------------
def cpu_times() -> Tuple[float, float]:
    """(user, system) CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.children_user, t.system + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process, max with its reaped children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# -- check points -------------------------------------------------------
class BenchmarkError(Exception):
    """Base of the harness's named errors (reported, never swallowed)."""


class ReferenceMissing(BenchmarkError):
    pass


class ReferenceDigestMismatch(BenchmarkError):
    pass


class InjectedFault(BenchmarkError):
    pass


class Checks:
    """Verified check points of one run: ``attempted`` is fixed by the
    workload's config, so a crash fails every check point not yet passed."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.passed = 0
        self.failures: List[str] = []

    def check(self, name: str, value: float, tolerance: float) -> None:
        if np.isfinite(value) and value <= tolerance:
            self.passed += 1
        else:
            self.failures.append(
                f"{name}: {value:.6e} exceeds tolerance {tolerance:.3e}"
            )

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def as_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def rel_max_position_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Relative maximum error of the particle positions (paper metric)."""
    return float(np.max(np.abs(u[0] - u_ref[0])) / np.max(np.abs(u_ref[0])))


class Reference:
    """A committed golden reference, accepted only with a matching digest."""

    def __init__(self, key: str, directory: Optional[Path] = None) -> None:
        path = Path(directory or config.REFERENCE_DIR) / f"sheet_{key}.npz"
        if not path.is_file():
            raise ReferenceMissing(f"reference file {path} does not exist")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            expected = config.reference_digest(key)
            if meta.get("digest") != expected:
                raise ReferenceDigestMismatch(
                    f"{path.name} carries digest {meta.get('digest')!r} but "
                    f"the pinned config of reference {key!r} has {expected!r}"
                    "; regenerate it with make_reference.py"
                )
            self.states = data["states"]
        self.store_dt = float(meta["grid"]["store_dt"])

    def at(self, t: float) -> np.ndarray:
        k = int(round(t / self.store_dt))
        if k < 1 or k > self.states.shape[0] \
                or abs(k * self.store_dt - t) > 1e-12:
            raise ReferenceMissing(f"reference holds no state at t={t}")
        return self.states[k - 1]
