"""Dynamic communication verification (``repro-comm certify``).

A ``Scheduler(certify=True)`` run stamps every message with the sender's
vector clock; deliveries form a happens-before DAG
(:mod:`~repro.analysis.commgraph.hb`) that is scanned for message races
and hashed into a schedule-independent :class:`DeterminismCertificate`,
comparable across service orders and execution backends.  The static
tag checks (CG001-CG003) are a pass of ``repro-lint``
(:mod:`repro.analysis.lint`).  See ``docs/static_analysis.md``.
"""

from repro.analysis.commgraph.hb import (
    DeterminismCertificate,
    MessageRace,
    build_certificate,
    find_races,
    reconstruct_vector_clocks,
)

__all__ = [
    "DeterminismCertificate",
    "MessageRace",
    "build_certificate",
    "reconstruct_vector_clocks",
    "find_races",
]
