"""Deterministic simulated MPI: scheduler, collectives, faults, topology."""

from repro.parallel.simmpi import (
    CommCostModel,
    Scheduler,
    VirtualComm,
    SubComm,
    EpochComm,
    Send,
    Recv,
    Work,
    DeadlockError,
    OrphanMessageWarning,
    payload_bytes,
)
from repro.parallel.collectives import (
    bcast,
    reduce,
    allreduce,
    allgather,
)
from repro.parallel.faults import (
    FaultPlan,
    RankCrash,
    MessageFault,
    FaultEvent,
    ResilienceReport,
    RankFailure,
    RecvTimeout,
    CorruptionError,
    payload_checksum,
    corrupt_payload,
)
from repro.parallel.topology import SpaceTimeGrid

__all__ = [
    "CommCostModel",
    "Scheduler",
    "VirtualComm",
    "SubComm",
    "EpochComm",
    "Send",
    "Recv",
    "Work",
    "DeadlockError",
    "OrphanMessageWarning",
    "payload_bytes",
    "bcast",
    "reduce",
    "allreduce",
    "allgather",
    "FaultPlan",
    "RankCrash",
    "MessageFault",
    "FaultEvent",
    "ResilienceReport",
    "RankFailure",
    "RecvTimeout",
    "CorruptionError",
    "payload_checksum",
    "corrupt_payload",
    "SpaceTimeGrid",
]
