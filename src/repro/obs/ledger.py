"""Who is computing, and compute seconds owed to a virtual clock.

The simulated-MPI scheduler charges a rank's virtual clock with the wall
time its program spent between yields, which means "one machine per
rank" only while every rank does its own work.  A cache shared by all
rank programs of one process breaks that: when rank 1 is handed a result
rank 0 computed, this process saves the wall time but a real rank 1
would have had to compute it.  The ledger keeps virtual time honest:

* the scheduler stamps :attr:`ComputeLedger.owner` with the rank it is
  about to resume (``(run id, rank)``; ``None`` outside any scheduler
  and under ``measure_compute=False``);
* a shared cache that answers from another owner's work calls
  :meth:`ComputeLedger.bill` with the seconds that work took;
* the scheduler — or, for a dispatched task, the executor — calls
  :meth:`ComputeLedger.drain` when it charges the clock and adds the
  billed seconds to the measured ones.

Like the active tracer and metrics registry, the ledger is one object
per process (:data:`LEDGER`): executor workers have their own, stamped
per task from :attr:`~repro.parallel.executor.ComputeTask.owner`.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Optional

__all__ = ["ComputeLedger", "LEDGER", "new_run_id"]

_RUN_IDS = itertools.count(1)


def new_run_id() -> int:
    """A process-unique id for one scheduler run, so that ownership
    recorded during one run is never mistaken for the next run's."""
    return next(_RUN_IDS)


class ComputeLedger:
    """Current compute owner plus billed-but-not-yet-charged seconds."""

    __slots__ = ("owner", "billed_s")

    def __init__(self) -> None:
        #: who pays for compute happening now; ``None`` = nobody's clock
        self.owner: Optional[Hashable] = None
        self.billed_s = 0.0

    def bill(self, seconds: float) -> None:
        """Owe ``seconds`` of someone else's compute to the current
        owner's clock."""
        self.billed_s += seconds

    def drain(self) -> float:
        """Return the billed seconds and clear them."""
        billed, self.billed_s = self.billed_s, 0.0
        return billed


#: the per-process ledger
LEDGER = ComputeLedger()
