"""Tests for the commgraph dynamic layer: the happens-before log,
message races and determinism certificates."""

import collections
import json
from pathlib import Path

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
        # the verify replay runs the reversed service order and raises
        # unless its digest is the primary's
        a, _ = _run()
        b, _ = _run(verify=True)
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
        # the duplicate shares its original's send event
        assert race.first_send == race.second_send == 0
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
        # synthetic deliveries 0 -> 1 carrying these send indices, on
        # channel 0 unless a second channel is given
        def races(*sends, channels=(0, 0)):
            records = np.array([(0, c, s, k) for k, (c, s)
                                in enumerate(zip(channels, sends))])
            keys = [(0, 1, "t"), (0, 1, "u")]
            return [r.kind for r in find_races(keys, records,
                                               np.array([1.0, 2.0]))]

        assert races(1, 1) == ["duplicate-delivery"]
        assert races(2, 1) == ["reordered-delivery"]
        assert races(1, 2) == []
        # a decrease across two channels is no race: no program order
        # of one channel is violated
        assert races(2, 1, channels=(0, 1)) == []

    def test_swapped_send_match_is_reordered(self):
        """Seeded swap: two deliveries on one channel match each other's
        send.  Census and per-destination ``(src, tag)`` sequence are
        unchanged; the DAG, hence the digest, is not, and the channel
        reports the inversion."""
        sched = Scheduler(2, certify=True)
        sched.run(_stream)
        honest = sched.certificate
        assert honest.race_free
        logs = [list(log) for log in sched._hb]
        assert logs[1][2::4] == [0, 1, 2]  # send indices, in order
        logs[1][2], logs[1][6] = logs[1][6], logs[1][2]
        swapped = build_certificate(2, sched._census, sched._copies,
                                    sched._events, logs, sched._hb_times)
        # the (src, channel) columns did not move
        assert [log[0::4] + log[1::4] for log in logs] == \
            [log[0::4] + log[1::4] for log in sched._hb]
        assert swapped.channels == honest.channels
        assert swapped.digest != honest.digest
        [race] = swapped.races
        assert race.kind == "reordered-delivery"
        assert (race.source, race.dest, race.tag) == \
            (0, 1, (tags.PRED, 0, 0, 0))
        assert (race.first_send, race.second_send) == (1, 0)

    def test_log_is_the_dag(self):
        # rank 0: three sends (events 0-2); rank 1: three deliveries of
        # them on one channel (its events 0-2)
        sched = Scheduler(2, certify=True)
        sched.run(_stream)
        assert sched._events == [3, 3]
        assert sched._hb == [[], [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2]]
        assert list(sched._census) == [(0, 1, (tags.PRED, 0, 0, 0))]
        assert sched._copies == [3]


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
        cert = build_certificate(2, {}, [], [0, 0], [[], []], [[], []])
        assert cert.race_free and cert.n_messages == 0
        assert cert.digest  # still a stable digest

    def test_digest_sensitive_to_census(self):
        def digest(copies):
            return build_certificate(2, {(0, 1, "t"): 0}, [copies], [1, 0],
                                     [[], []], [[], []]).digest

        assert digest(1) != digest(2)

    def test_equal_tags_are_one_channel(self):
        # 2 and np.int64(2) compare and hash equal: one census key, one
        # channel, hashed under the repr of the first tag sent on it
        sched = Scheduler(2, certify=True)

        def program(comm):
            if comm.rank == 0:
                yield comm.send(1, ("t", 2), 1.0)
                yield comm.send(1, ("t", np.int64(2)), 2.0)
            else:
                yield comm.recv(0, ("t", np.int64(2)))
                yield comm.recv(0, ("t", 2))

        sched.run(program)
        [channel] = sched.certificate.channels
        assert channel == (0, 1, "('t', 2)", 2)


#: ``tests/data/golden_runs.json``'s certificate pairs: the only cases
#: whose happens-before DAGs coincide (a sweeper or recovery policy that
#: does not change the message pattern); every other certificate is
#: unique
GOLDEN_PAIRS = {
    ("2x1x1-diagonal-cold-restart", "2x1x1-gauss-seidel-cold-restart"),
    ("2x1x1-diagonal-fail", "2x1x1-gauss-seidel-fail"),
    ("2x1x1-diagonal-warm-restart", "2x1x1-gauss-seidel-warm-restart"),
    ("2x2x1-diagonal-cold-restart", "2x2x1-diagonal-warm-restart"),
    ("2x2x2-diagonal-cold-restart", "2x2x2-diagonal-warm-restart"),
    ("4x1x1-diagonal-cold-restart", "4x1x1-gauss-seidel-cold-restart"),
    ("4x1x1-diagonal-fail", "4x1x1-gauss-seidel-fail"),
    ("4x1x1-diagonal-warm-restart", "4x1x1-gauss-seidel-warm-restart"),
    ("4x2x1-diagonal-cold-restart", "4x2x1-diagonal-warm-restart"),
    ("4x2x1-gauss-seidel-cold-restart", "4x2x1-gauss-seidel-warm-restart"),
}


def test_golden_certificates_partition_the_cases():
    """A digest that merges two runs' DAGs, or splits one, moves this
    partition: 40 certificates, 30 values, 20 singletons, 10 pairs."""
    golden = json.loads((Path(__file__).parent / "data"
                         / "golden_runs.json").read_text(encoding="utf-8"))
    classes = collections.defaultdict(list)
    for case, fields in sorted(golden.items()):
        if "certificate" in fields:
            classes[fields["certificate"]].append(case)
    assert sum(map(len, classes.values())) == 40
    assert len(classes) == 30
    assert {tuple(c) for c in classes.values() if len(c) > 1} == GOLDEN_PAIRS
    assert sum(len(c) == 1 for c in classes.values()) == 20


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
