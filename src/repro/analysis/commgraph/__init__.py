"""Dynamic communication verification (``repro-comm certify``).

A ``Scheduler(certify=True)`` run logs its happens-before DAG — each
rank's program-order chain plus one send -> receive edge per delivery —
as fixed-width int records (:mod:`~repro.analysis.commgraph.hb`); the DAG
is scanned for message races and hashed into a schedule-independent
:class:`DeterminismCertificate`, comparable across service orders and
execution backends.  The static tag checks (CG001-CG003) are a pass of
``repro-lint`` (:mod:`repro.analysis.lint`).  See
``docs/static_analysis.md``.
"""

from repro.analysis.commgraph.hb import (
    DeterminismCertificate,
    MessageRace,
    build_certificate,
    find_races,
)

__all__ = [
    "DeterminismCertificate",
    "MessageRace",
    "build_certificate",
    "find_races",
]
