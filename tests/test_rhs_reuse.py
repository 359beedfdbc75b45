"""RHS-call census of the ``ctrl-n64`` configuration at 32 steps.

Every level owns the pair ``(u0, f0 = f(u0))`` and evaluates ``f0`` only
when ``u0`` takes a new value; the diagonal sweeper's final round reuses
its inner round's evaluation wherever a node did not move.  This test
pins what that buys: the exact number of RHS calls of a 32-step run on
the ``P_T = 4 x P_N = 3`` node grid with the diagonal sweeper (the
``ctrl-n64`` benchmark workload, shortened), and that no level on one
rank ever evaluates the same ``(t, u)`` twice.  Counts are deterministic,
so any change to them is a change to the controller or the sweepers.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np
import pytest

from repro.obs.ledger import LEDGER
from repro.parallel import CommCostModel
from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
from repro.vortex import (
    DirectEvaluator,
    SheetConfig,
    VortexProblem,
    spherical_vortex_sheet,
)

#: the parent of this reuse did 1952 calls on the same run
CALLS = {"fine": 464, "coarse": 844}


class CountingProblem(VortexProblem):
    """A vortex problem logging ``(level, rank, state digest)`` per call."""

    def __init__(self, level, log, *args):
        super().__init__(*args)
        self.level, self.log = level, log

    def rhs(self, t, u):
        state = hashlib.blake2b(
            np.float64(t).tobytes() + np.ascontiguousarray(u).tobytes(),
            digest_size=16,
        ).digest()
        self.log.append((self.level, LEDGER.owner[1], state))
        return super().rhs(t, u)


@pytest.fixture(scope="module")
def census():
    sc = SheetConfig(n=64, radius=1.0, sigma_over_h=3.0,
                     placement="fibonacci")
    sheet = spherical_vortex_sheet(sc)
    log = []
    fine, coarse = (
        CountingProblem(name, log, sheet.volumes,
                        DirectEvaluator("algebraic6", sc.sigma), "transpose")
        for name in ("fine", "coarse")
    )
    specs = [LevelSpec(fine, 3, 1, sweeper="diagonal"),
             LevelSpec(coarse, 2, 2, sweeper="diagonal")]
    cfg = PfasstConfig(t0=0.0, t_end=32 / 128, n_steps=32, iterations=3,
                       recovery="warm-restart")
    run_pfasst(cfg, specs, sheet.state(), p_time=4, p_nodes=3,
               cost_model=CommCostModel(), measure_compute=True)
    return log


def test_call_count_is_pinned(census):
    per_level = collections.Counter(level for level, _, _ in census)
    assert dict(per_level) == CALLS
    assert len(census) == sum(CALLS.values())


def test_no_rank_evaluates_a_state_twice(census):
    """Before the reuse 640 calls repeated a state their level had
    evaluated on the same rank (mostly ``f(u0)`` at node 0); no site is
    left that does."""
    repeats = {key: n for key, n in collections.Counter(census).items()
               if n > 1}
    assert repeats == {}
