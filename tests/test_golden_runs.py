"""Golden op-stream test: every grid shape keeps its exact run across commits.

``tests/data/golden_runs.json`` pins, for each (P_T, P_S, P_N) shape x
sweeper x recovery policy, the determinism-certificate digest, the bytes
of ``u_end``, the residual history, the virtual clocks, the message count,
the number of recoveries and a digest of the annotation stream (the
``begin:`` / ``end:`` / ``residual`` events the Fig. 6 Gantt export and the
tracer spans are folded from).  Nothing else in tier-1 compares op streams
*across commits*: a refactor can change split colours or tag shapes and
drift every certificate while each run stays self-consistent.

Re-record (only when a change is *meant* to alter the op stream) with
``PYTHONPATH=src python tests/test_golden_runs.py --record``; it prints
every case and field that differs from the committed file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.commgraph.cli import _smoke_problem
from repro.parallel.faults import FaultPlan, RankCrash
from repro.pfasst import PfasstConfig, run_pfasst

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"

SHAPES = [(2, 1, 1), (4, 1, 1), (2, 2, 1), (4, 2, 1),
          (2, 1, 2), (2, 1, 3), (2, 2, 2)]
SWEEPERS = ["gauss-seidel", "diagonal"]
POLICIES = ["fail", "warm-restart", "cold-restart"]
CASES = [(shape, sweeper, policy) for shape in SHAPES
         for sweeper in SWEEPERS for policy in POLICIES]


def case_id(case) -> str:
    (p_time, p_space, p_nodes), sweeper, policy = case
    return f"{p_time}x{p_space}x{p_nodes}-{sweeper}-{policy}"


def run_case(case) -> dict:
    (p_time, p_space, p_nodes), sweeper, policy = case
    u0, specs = _smoke_problem(96, sweeper=sweeper)
    cfg = PfasstConfig(t0=0.0, t_end=0.1, n_steps=2 * p_time, iterations=2,
                       trace=True, recovery=policy)
    plan = None
    if policy != "fail":
        world = p_time * p_space * p_nodes
        plan = FaultPlan(
            seed=1, crashes=[RankCrash(rank=world - 1, after_ops=60)]
        )
    try:
        res = run_pfasst(cfg, specs, u0, p_time=p_time, p_space=p_space,
                         p_nodes=p_nodes, fault_plan=plan, certify=True,
                         measure_compute=False)
    except Exception as exc:  # the failure itself is the pinned behaviour
        return {"raises": type(exc).__name__, "message": str(exc)[:160]}
    u_end = np.ascontiguousarray(res.u_end).tobytes()
    trace = repr([(ev.rank, ev.label, ev.time) for ev in res.trace])
    return {
        "certificate": res.certificate.digest,
        "u_end": hashlib.blake2b(u_end, digest_size=16).hexdigest(),
        "residuals": repr(res.residuals),
        "clocks": repr(res.clocks),
        "messages": res.metrics["counters"]["mpi.messages"],
        "recoveries": len(res.recoveries),
        "trace": hashlib.blake2b(trace.encode("utf-8"),
                                 digest_size=16).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_run_matches_golden(case, golden):
    assert run_case(case) == golden[case_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_runs.py --record")
    before = (json.loads(GOLDEN.read_text(encoding="utf-8"))
              if GOLDEN.exists() else {})
    recorded = {case_id(c): run_case(c) for c in CASES}
    changed = 0
    for cid in sorted(set(before) | set(recorded)):
        was, now = before.get(cid, {}), recorded.get(cid, {})
        fields = sorted(k for k in set(was) | set(now)
                        if was.get(k) != now.get(k))
        if fields:
            changed += 1
            print(f"{cid}: {', '.join(fields)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(CASES)} cases into {GOLDEN}, {changed} changed")
