"""Static analysis and dynamic checking for reproducibility guarantees.

The paper's headline results rest on two properties the code can silently
lose as it grows: *determinism* of the discrete-event simulated MPI (the
PFASST pipeline is only measurable because message matching is
schedule-independent) and *numerical hygiene* of the batched tree engine
(a stray float32 temporary or unseeded RNG corrupts the fine/coarse theta
equivalence the particle-coarsening result depends on).  This package
machine-checks both:

* :mod:`repro.analysis.lint` — ``repro-lint``, the one static checker:
  an AST-based project linter (rules RPR001-RPR006: unseeded RNG,
  nondeterminism sources, per-particle Python loops in hot modules, dtype
  drift, ``assert``-based checks in library code, unpicklable compute
  tasks) plus tag discipline at comm call sites against the central tag
  registry :mod:`repro.parallel.tags` (CG001-CG003: unregistered head,
  foreign literal, arity);
* :mod:`repro.analysis.commcheck` — protocol verification for the
  simulated MPI: wait-for-graph deadlock diagnostics, orphaned-message
  reports, and the byte-identity machinery behind
  ``Scheduler(verify=True)`` replay (a practical race detector for the
  event-driven runtime);
* :mod:`repro.analysis.commgraph` — ``repro-comm certify``, dynamic
  communication verification: happens-before DAG certification
  (message races, schedule-independent determinism certificates);
* :mod:`repro.analysis.sanitize` — opt-in NaN/Inf and shape/dtype
  contract decorators gated behind ``REPRO_SANITIZE=1``, compiled to
  zero-overhead no-ops when the flag is unset;
* :mod:`repro.analysis.linkcheck` / :mod:`repro.analysis.clidoc` — docs
  enforcement: offline verification of every internal markdown link,
  and regeneration of ``docs/cli.md`` from the live ``--help`` output
  of each console tool (CI fails when either drifts).

See ``docs/static_analysis.md`` for the full rule catalogue.
"""

from repro.analysis.commcheck import (
    OrphanMessage,
    VerificationError,
    WaitForGraph,
    find_orphans,
    freeze,
)
from repro.analysis.sanitize import SanitizeError, boundary, enabled

_LINT_NAMES = ("RULES", "Violation", "lint_paths", "lint_source")


def __getattr__(name: str):
    # Lazy so that ``python -m repro.analysis.lint`` does not re-import
    # the module it is executing (runpy double-import warning).
    if name in _LINT_NAMES:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "OrphanMessage",
    "VerificationError",
    "WaitForGraph",
    "find_orphans",
    "freeze",
    "RULES",
    "Violation",
    "lint_paths",
    "lint_source",
    "SanitizeError",
    "boundary",
    "enabled",
]
