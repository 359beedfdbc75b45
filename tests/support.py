"""Helpers shared by test modules (not collected: no ``test_`` prefix)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import Tracer


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


def record_golden(path: Path, recorded: Dict[str, Dict[str, Any]]) -> None:
    """Write ``recorded`` to the golden file ``path``, printing every case
    that moved with the fields that moved, then the ``N changed`` total."""
    before = (json.loads(path.read_text(encoding="utf-8"))
              if path.exists() else {})
    changed = 0
    for case in sorted(set(before) | set(recorded)):
        was, now = before.get(case, {}), recorded.get(case, {})
        fields = sorted(k for k in set(was) | set(now)
                        if was.get(k) != now.get(k))
        if fields:
            changed += 1
            print(f"{case}: {', '.join(fields)}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(recorded)} cases into {path}, {changed} changed")
