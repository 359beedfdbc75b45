"""Tests for the commgraph dynamic layer: vector clocks, message races
and determinism certificates."""

import numpy as np
import pytest

from repro.analysis.commcheck import VerificationError
from repro.analysis.commgraph.hb import (
    build_certificate,
    find_races,
)
from repro.parallel import FaultPlan, MessageFault, Scheduler, tags
from repro.parallel.collectives import allreduce


def _pipeline(comm):
    """Eager pipeline + allreduce: deterministic, certifiable."""
    rank, size = comm.rank, comm.size
    if rank + 1 < size:
        yield comm.send(rank + 1, (tags.PRED, 0, 0, rank), float(rank))
    left = 0.0
    if rank > 0:
        left = yield comm.recv(rank - 1, (tags.PRED, 0, 0, rank - 1))
    total = yield from allreduce(comm, left + 1.0)
    return {"rank": rank, "total": total}


def _run(certify=True, **kw):
    sched = Scheduler(4, certify=certify, **kw)
    results = sched.run(_pipeline)
    return sched, results


class TestCertificate:
    def test_disabled_by_default(self):
        sched = Scheduler(4)
        sched.run(_pipeline)
        assert sched.certificate is None

    def test_race_free_pipeline(self):
        sched, results = _run()
        cert = sched.certificate
        assert cert is not None and cert.race_free
        assert cert.n_ranks == 4
        assert cert.n_messages == cert.n_deliveries > 0
        assert len(cert.digest) == 32  # blake2b-16 hex
        assert "race-free" in cert.summary()
        assert cert.to_json()["race_free"] is True

    def test_digest_is_schedule_independent(self):
        a, _ = _run(service_order="ascending")
        b, _ = _run(service_order="descending")
        assert a.certificate.digest == b.certificate.digest

    def test_digest_survives_verify_replay(self):
        sched, _ = _run(verify=True)
        assert sched.certificate.race_free

    def test_different_programs_differ(self):
        def other(comm):
            total = yield from allreduce(comm, 1.0)
            return total

        a, _ = _run()
        b = Scheduler(4, certify=True)
        b.run(other)
        assert a.certificate.digest != b.certificate.digest

    def test_census_matches_metrics(self):
        sched, _ = _run()
        counters = sched.metrics.as_dict()["counters"]
        assert counters["mpi.messages"] == sched.certificate.n_messages
        assert counters["comm.races"] == 0
        assert any(k.startswith("comm.certificate{")
                   for k in counters)

    def test_certificate_metric_carries_digest(self):
        sched, _ = _run()
        counters = sched.metrics.as_dict()["counters"]
        key = next(k for k in counters if k.startswith("comm.certificate{"))
        assert sched.certificate.digest in key


def _stream(comm):
    """Three same-tag messages 0 -> 1; extra recvs absorb duplicates."""
    if comm.rank == 0:
        for k in range(3):
            yield comm.send(1, (tags.PRED, 0, 0, 0), float(k))
    elif comm.rank == 1:
        got = []
        for _ in range(3):
            got.append((yield comm.recv(0, (tags.PRED, 0, 0, 0))))
        return got
    return None


class TestRaces:
    # the duplicated first message shifts the stream: the third original
    # stays queued at exit, which is exactly the point — ignore the
    # orphan warning and assert on the race instead
    @pytest.mark.filterwarnings(
        "ignore::repro.parallel.simmpi.OrphanMessageWarning")
    def test_duplicate_fault_is_a_race(self):
        plan = FaultPlan(messages=(
            MessageFault(kind="duplicate", tag=(tags.PRED, 0, 0, 0),
                         occurrences=(0,)),
        ))
        sched = Scheduler(2, certify=True, fault_plan=plan)
        sched.run(_stream)
        cert = sched.certificate
        assert not cert.race_free
        [race] = [r for r in cert.races
                  if r.kind == "duplicate-delivery"]
        assert race.source == 0 and race.dest == 1
        # the duplicate shares its original's send event, hence its clock
        assert race.first_vc == race.second_vc
        assert race.tag_class == "pred"
        assert "duplicate-delivery" in race.render()
        counters = sched.metrics.as_dict()["counters"]
        assert counters["comm.races"] >= 1

    @pytest.mark.filterwarnings(
        "ignore::repro.parallel.simmpi.OrphanMessageWarning")
    def test_race_survives_certified_verify(self):
        # digests still agree across the replay (the fault is replayed
        # identically) — the race itself marks the run as suspect
        plan = FaultPlan(messages=(
            MessageFault(kind="duplicate", tag=(tags.PRED, 0, 0, 0),
                         occurrences=(0,)),
        ))
        sched = Scheduler(2, certify=True, verify=True, fault_plan=plan)
        sched.run(_stream)
        assert not sched.certificate.race_free

    def test_find_races_kinds(self):
        # synthetic deliveries on one channel
        def dv(svc, rvc, t):
            return (0, 1, "t", svc, rvc, 0.0, t)

        dup = find_races([dv((1, 0), (1, 1), 1.0),
                          dv((1, 0), (1, 2), 2.0)])
        assert [r.kind for r in dup] == ["duplicate-delivery"]
        reorder = find_races([dv((2, 0), (2, 1), 1.0),
                              dv((1, 0), (2, 2), 2.0)])
        assert [r.kind for r in reorder] == ["reordered-delivery"]
        ordered = find_races([dv((1, 0), (1, 1), 1.0),
                              dv((2, 0), (2, 2), 2.0)])
        assert ordered == []

    def test_concurrent_send_kind(self):
        # incomparable clocks (can only arise with relaying/forwarding)
        deliveries = [
            (0, 1, "t", (1, 0, 0), (1, 1, 0), 0.0, 1.0),
            (0, 1, "t", (0, 0, 1), (1, 2, 1), 0.0, 2.0),
        ]
        [race] = find_races(deliveries)
        assert race.kind == "concurrent-send"


class TestVerifyIntegration:
    def test_schedule_dependent_program_still_caught(self):
        # the classic verify=True catch composes with certify=True
        shared = []

        def racy(comm):
            shared.append(comm.rank)
            yield comm.send((comm.rank + 1) % comm.size, ("pred", 0, 0, 0),
                            float(len(shared)))
            v = yield comm.recv((comm.rank - 1) % comm.size,
                                ("pred", 0, 0, 0))
            return v

        sched = Scheduler(2, certify=True, verify=True)
        with pytest.raises(VerificationError):
            sched.run(racy)


class TestBuildCertificate:
    def test_empty_run(self):
        cert = build_certificate(2, [], {}, [(0, 0), (0, 0)])
        assert cert.race_free and cert.n_messages == 0
        assert cert.digest  # still a stable digest

    def test_digest_sensitive_to_census(self):
        a = build_certificate(2, [], {(0, 1, "t"): 1}, [(1, 0), (0, 0)])
        b = build_certificate(2, [], {(0, 1, "t"): 2}, [(1, 0), (0, 0)])
        assert a.digest != b.digest


class TestPfasstIntegration:
    def test_run_pfasst_exposes_certificate(self, scalar_problem):
        from repro.pfasst.controller import PfasstConfig, run_pfasst
        from repro.pfasst.level import LevelSpec

        cfg = PfasstConfig(t0=0.0, t_end=0.4, n_steps=2, iterations=2)
        specs = [LevelSpec(scalar_problem, 3, sweeps=1),
                 LevelSpec(scalar_problem, 2, sweeps=1)]
        u0 = np.array([1.0])
        res = run_pfasst(cfg, specs, u0, p_time=2, certify=True,
                         verify=True)
        assert res.certificate is not None
        assert res.certificate.race_free
        plain = run_pfasst(cfg, specs, u0, p_time=2)
        assert plain.certificate is None
        np.testing.assert_array_equal(res.u_end, plain.u_end)
