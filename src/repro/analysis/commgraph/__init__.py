"""Communication verification (``repro-comm``), static and dynamic.

**Static layer** (:mod:`~repro.analysis.commgraph.skeleton` +
:mod:`~repro.analysis.commgraph.checks`): an AST extractor walks the
rank-program generators — the PFASST controller, the space-tree field
program, the collectives, the ``VirtualComm.split`` protocol — and
reconstructs a per-rank automaton of sends/recvs/collectives with
symbolic tag expressions resolved against the central tag registry
(:mod:`repro.parallel.tags`).  Three checks (CG001–CG003) verify tag
registration, cross-subsystem collision freedom and tag arity — the tag
bugs that run without error yet are wrong.  Protocol shape (pairing,
collective symmetry, wait cycles) is checked at run time by the
scheduler's deadlock and orphan reports.

**Dynamic layer** (:mod:`~repro.analysis.commgraph.hb`): a
``Scheduler(certify=True)`` run stamps every message with the sender's
vector clock; deliveries form a happens-before DAG that is scanned for
message races and hashed into a schedule-independent
:class:`DeterminismCertificate`, comparable across service orders and
execution backends.

CLI: ``repro-comm check`` (static), ``repro-comm certify`` (dynamic),
``repro-comm graph`` (skeleton rendering).  See
``docs/static_analysis.md``.
"""

from repro.analysis.commgraph.checks import Finding, check_skeletons
from repro.analysis.commgraph.hb import (
    DeterminismCertificate,
    MessageRace,
    build_certificate,
    find_races,
    reconstruct_vector_clocks,
)
from repro.analysis.commgraph.skeleton import (
    CommOp,
    Skeleton,
    TagShape,
    extract_module,
    extract_paths,
    render_skeleton,
    to_dot,
)

__all__ = [
    "CommOp",
    "DeterminismCertificate",
    "Finding",
    "MessageRace",
    "Skeleton",
    "TagShape",
    "build_certificate",
    "reconstruct_vector_clocks",
    "check_skeletons",
    "extract_module",
    "extract_paths",
    "find_races",
    "render_skeleton",
    "to_dot",
]
