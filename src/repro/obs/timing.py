"""Wall-clock stopwatch of the field evaluators.

Every field evaluator keeps a :class:`Timer` over its computed
evaluations; its mean cost gives the measured fine/coarse cost ratio of
the speedup model (Fig. 8).  The tree pipeline's per-phase breakdown
(Fig. 5) is not kept here: its stages record ``phase`` spans on the
active tracer (:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating stopwatch for a single named phase.

    Supports nested use as a context manager; ``elapsed`` accumulates across
    activations and ``count`` records the number of completed activations.
    """

    name: str = ""
    elapsed: float = 0.0
    count: int = 0
    _started: float | None = None

    def start(self) -> None:
        if self._started is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} not running")
        dt = time.perf_counter() - self._started
        self._started = None
        self.elapsed += dt
        self.count += 1
        return dt

    def cancel(self) -> None:
        """Drop the running activation, if any: nothing is accumulated
        and it does not count (the enclosing ``with`` exits cleanly)."""
        self._started = None

    def reset(self) -> None:
        self.elapsed = 0.0
        self.count = 0
        self._started = None

    @property
    def mean(self) -> float:
        """Mean elapsed time per completed activation (0.0 if never run)."""
        return self.elapsed / self.count if self.count else 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._started is not None:
            self.stop()
