"""Static tag-discipline checks over extracted communication skeletons.

Checks (codes mirror the ``repro-lint`` RPR numbering style):

* **CG001 — unregistered tag head**: a resolved tag head that is not
  declared in :mod:`repro.parallel.tags`.  Every channel namespace must
  be owned.
* **CG002 — cross-subsystem tag collision**: a *raw literal* head that
  re-spells a family registered to a different, non-shared subsystem,
  from a module of another subsystem or of none.  Two subsystems
  independently picking the same head would silently interleave their
  channels; registry constants cannot collide (registration is
  duplicate-checked), so only literals are flagged.
* **CG003 — tag arity mismatch**: a directly constructed tag whose
  component count contradicts the registered family arity
  (``(PRED, block)`` against arity 3) — the shape contract that keeps
  recovery attempts, blocks and iterations addressable.

All three are errors.  They cover the bugs that run without a hang or
an undelivered message yet are wrong; protocol shape (a recv nobody
sends, a collective one rank skips, a wait cycle) is left to the
runtime, whose ``DeadlockError`` and ``OrphanMessageWarning`` name the
channel on the first run that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.commgraph.skeleton import Skeleton
from repro.parallel.tags import REGISTRY

__all__ = ["Finding", "check_skeletons", "module_subsystem"]


@dataclass(frozen=True)
class Finding:
    code: str
    module: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def module_subsystem(path: str) -> Optional[str]:
    """Owning tag subsystem of a source file, by path convention."""
    norm = path.replace("\\", "/")
    if norm.endswith("parallel/collectives.py"):
        return "collectives"
    if norm.endswith("parallel/simmpi.py"):
        return "simmpi"
    if "/pfasst/" in norm:
        return "pfasst"
    if "/tree/" in norm:
        return "space"
    return None


_RESOLVED = ("literal", "registry", "derived")


def check_skeletons(skeletons: Sequence[Skeleton]) -> List[Finding]:
    """Run every check; findings sorted by (path, line, code)."""
    findings: List[Finding] = []
    for sk in skeletons:
        findings.extend(_check_tags(sk))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def _check_tags(sk: Skeleton) -> List[Finding]:
    out: List[Finding] = []
    subsystem = module_subsystem(sk.path)
    for op in sk.ops:
        shape = op.tag
        if shape is None or shape.head is None:
            continue
        if shape.resolved_via not in _RESOLVED:
            continue
        family = REGISTRY.family_of(shape.head)
        if family is None:
            out.append(Finding(
                "CG001", sk.module, sk.path, op.line,
                f"tag head {shape.head!r} (from {shape.source}) is not "
                "declared in repro.parallel.tags — register the family "
                "or use an existing constant",
            ))
            continue
        if (shape.resolved_via == "literal" and not family.shared
                and family.subsystem != subsystem):
            where = (f"the {subsystem!r} subsystem" if subsystem
                     else "a module no subsystem owns")
            out.append(Finding(
                "CG002", sk.module, sk.path, op.line,
                f"literal tag head {shape.head!r} re-spells the "
                f"{family.subsystem!r} subsystem's registered family from "
                f"{where} — channels would silently interleave; use the "
                "registry constant",
            ))
        if (family.arity is not None
                and shape.resolved_via in ("literal", "registry")
                and shape.arity is not None
                and shape.arity != family.arity):
            out.append(Finding(
                "CG003", sk.module, sk.path, op.line,
                f"tag {shape.source} has {shape.arity} component(s) after "
                f"the head but family {shape.head!r} declares arity "
                f"{family.arity}",
            ))
    return out
