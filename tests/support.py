"""Helpers shared by test modules (not collected: no ``test_`` prefix)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from repro.obs import Tracer
from repro.vortex.problem import ODEProblem


class AnnotationLog(Tracer):
    """A tracer that also lists every annotation as ``(rank, label,
    virtual time)``, in the order the ranks yielded them."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Tuple[int, str, float]] = []

    def annotate(self, track: str, label: str, t: float,
                 data: Optional[Dict[str, Any]] = None) -> None:
        self.events.append((int(track[len("rank"):]), label, t))
        super().annotate(track, label, t, data)


def reference_solution(problem: ODEProblem, u0: np.ndarray,
                       t_end: float) -> np.ndarray:
    """``u(t_end)`` from ``u(0) = u0`` by SciPy's adaptive Dormand-Prince
    RK (DOP853) at tight tolerances: a time reference that shares no code
    with SDC or PFASST."""
    sol = solve_ivp(lambda t, y: problem.rhs(t, y.reshape(u0.shape)).ravel(),
                    (0.0, t_end), u0.ravel(), method="DOP853", rtol=1e-12,
                    atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(u0.shape)


def record_golden(path: Path, recorded: Dict[str, Any]) -> None:
    """Write ``recorded`` to the golden file ``path``, printing every case
    that moved — the fields that moved for a record, ``old -> new`` for a
    flat value — then the ``N changed`` total."""
    before = (json.loads(path.read_text(encoding="utf-8"))
              if path.exists() else {})
    changed = 0
    for case in sorted(set(before) | set(recorded)):
        was, now = before.get(case), recorded.get(case)
        if was == now:
            continue
        changed += 1
        if isinstance(was, dict) or isinstance(now, dict):
            was, now = was or {}, now or {}
            moved = ", ".join(sorted(k for k in set(was) | set(now)
                                     if was.get(k) != now.get(k)))
        else:
            moved = f"{was} -> {now}"
        print(f"{case}: {moved}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(recorded)} cases into {path}, {changed} changed")
