"""Tests for fault injection in the simulated MPI (repro.parallel.faults)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.parallel import CommCostModel, Scheduler
from repro.parallel.collectives import bcast
from repro.parallel.faults import (
    MESSAGE_FAULT_KINDS,
    CorruptedPayload,
    CorruptionError,
    FaultPlan,
    MessageFault,
    RankCrash,
    RankFailure,
    RecvTimeout,
    ResilienceReport,
    _stable_unit,
    corrupt_payload,
    payload_checksum,
)

MODEL = CommCostModel(latency=1.0, bandwidth=1e30, send_overhead=0.0)


# ---------------------------------------------------------------------------
# plan construction / validation
# ---------------------------------------------------------------------------
class TestPlanValidation:
    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            RankCrash(rank=0)
        with pytest.raises(ValueError, match="exactly one"):
            RankCrash(rank=0, after_ops=3, at_time=1.0)
        RankCrash(rank=0, after_ops=3)
        RankCrash(rank=0, at_time=1.0)

    def test_crash_trigger_ranges(self):
        with pytest.raises(ValueError, match="after_ops"):
            RankCrash(rank=0, after_ops=0)
        with pytest.raises(ValueError, match="rank"):
            RankCrash(rank=-1, after_ops=1)

    def test_message_fault_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            MessageFault(kind="explode")

    def test_message_fault_probability_checked(self):
        with pytest.raises(ValueError, match="probability"):
            MessageFault(kind="drop", probability=1.5)

    def test_delay_coupling(self):
        with pytest.raises(ValueError, match="delay"):
            MessageFault(kind="delay")  # needs delay > 0
        with pytest.raises(ValueError, match="delay"):
            MessageFault(kind="drop", delay=1.0)

    def test_plan_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(crashes=(RankCrash(rank=0, after_ops=1),)).empty


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------
class TestPrimitives:
    def test_stable_unit_deterministic_and_in_range(self):
        a = _stable_unit(1, "x", (2, 3))
        assert a == _stable_unit(1, "x", (2, 3))
        assert 0.0 <= a < 1.0
        assert a != _stable_unit(1, "x", (2, 4))

    def test_corrupt_float_array_flips_one_bit(self):
        arr = np.linspace(0.0, 1.0, 7)
        bad = corrupt_payload(arr, key=(0, "k"))
        assert bad.shape == arr.shape
        diff = bad.view(np.uint64) ^ arr.view(np.uint64)
        nz = diff[diff != 0]
        assert len(nz) == 1  # exactly one element touched
        assert bin(int(nz[0])).count("1") == 1  # by exactly one bit
        # the original is untouched (pristine copy semantics)
        assert np.array_equal(arr, np.linspace(0.0, 1.0, 7))

    def test_corrupt_scalars_change_value(self):
        assert corrupt_payload(2.5, key=("a",)) != 2.5
        assert corrupt_payload(17, key=("a",)) != 17
        assert corrupt_payload(b"abc", key=("a",)) != b"abc"

    def test_corrupt_unknown_type_marker(self):
        bad = corrupt_payload({"not": "bit-flippable"}, key=("a",))
        assert isinstance(bad, CorruptedPayload)

    def test_checksum_detects_corruption(self):
        arr = np.arange(5, dtype=np.float64)
        ck = payload_checksum(arr)
        assert ck == payload_checksum(arr.copy())
        assert ck != payload_checksum(corrupt_payload(arr, key=("z",)))


# ---------------------------------------------------------------------------
# crash injection
# ---------------------------------------------------------------------------
class TestCrashInjection:
    def _ping(self, comm):
        if comm.rank == 0:
            yield comm.send(1, "t", 1.0)
            yield comm.send(1, "t", 2.0)
        else:
            a = yield comm.recv(0, "t")
            b = yield comm.recv(0, "t")
            return a + b

    def test_uncaught_crash_raises_and_names_rank(self):
        plan = FaultPlan(crashes=(RankCrash(rank=0, after_ops=1),))
        with pytest.raises(RankFailure, match="rank 0 crashed"):
            Scheduler(2, measure_compute=False, fault_plan=plan).run(self._ping)

    def test_caught_crash_lets_program_act_as_replacement(self):
        def prog(comm):
            if comm.rank == 0:
                try:
                    yield comm.send(1, "t", "original")
                    yield comm.send(1, "u", "original")
                except RankFailure:
                    yield comm.send(1, "u", "replacement")
            else:
                t = yield comm.recv(0, "t")
                u = yield comm.recv(0, "u")
                return (t, u)

        plan = FaultPlan(crashes=(RankCrash(rank=0, after_ops=1),))
        sched = Scheduler(2, measure_compute=False, fault_plan=plan)
        assert sched.run(prog)[1] == ("original", "replacement")
        assert sched.resilience.counts() == {"crash": 1, "crash-handled": 1}

    def test_crash_blocking_others_is_diagnosed(self):
        plan = FaultPlan(crashes=(RankCrash(rank=0, after_ops=1),))
        with pytest.raises(RankFailure, match="blocked"):
            Scheduler(2, measure_compute=False, fault_plan=plan).run(self._ping)


# ---------------------------------------------------------------------------
# link faults: drop / delay / duplicate / corrupt
# ---------------------------------------------------------------------------
class TestLinkFaults:
    def test_drop_with_retransmit_recovers(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 42.0)
            else:
                return (yield comm.recv(0, "t", timeout=0.5, retries=1))

        plan = FaultPlan(messages=(MessageFault(kind="drop", occurrences=(0,)),))
        sched = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        assert sched.run(prog)[1] == 42.0
        counts = sched.resilience.counts()
        assert counts["drop"] == 1
        assert counts["retransmit"] == 1
        # retransmit costs the timeout wait plus one more transfer
        assert sched.clocks[1] == pytest.approx(0.5 + MODEL.latency)

    def test_drop_without_retries_times_out_with_diagnostic(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 42.0)
            else:
                return (yield comm.recv(0, "t", timeout=0.5))

        plan = FaultPlan(messages=(MessageFault(kind="drop"),))
        with pytest.raises(RecvTimeout, match=r"tag='t'"):
            Scheduler(
                2, cost_model=MODEL, measure_compute=False, fault_plan=plan
            ).run(prog)

    def test_drop_without_timeout_deadlocks_with_fault_note(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 42.0)
            else:
                return (yield comm.recv(0, "t"))

        plan = FaultPlan(messages=(MessageFault(kind="drop"),))
        with pytest.raises(Exception, match="dropped by fault injection"):
            Scheduler(
                2, cost_model=MODEL, measure_compute=False, fault_plan=plan
            ).run(prog)

    def test_delay_shifts_clock_not_numerics(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 7.0)
            else:
                return (yield comm.recv(0, "t"))

        base = Scheduler(2, cost_model=MODEL, measure_compute=False)
        r0 = base.run(prog)
        plan = FaultPlan(messages=(MessageFault(kind="delay", delay=3.0),))
        faulty = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan,
            verify=True,
        )
        r1 = faulty.run(prog)
        assert freeze(r0) == freeze(r1)
        assert faulty.clocks[1] == pytest.approx(base.clocks[1] + 3.0)

    def test_duplicate_delivers_second_copy(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 5)
            else:
                a = yield comm.recv(0, "t")
                b = yield comm.recv(0, "t")
                return (a, b)

        plan = FaultPlan(
            messages=(MessageFault(kind="duplicate", occurrences=(0,)),)
        )
        sched = Scheduler(2, measure_compute=False, fault_plan=plan)
        assert sched.run(prog)[1] == (5, 5)

    def test_corruption_detected_and_repaired_by_retransmit(self):
        payload = np.linspace(0.0, 1.0, 9)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", payload)
            else:
                return (yield comm.recv(0, "t", timeout=0.5, retries=1))

        plan = FaultPlan(messages=(MessageFault(kind="corrupt"),))
        sched = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        out = sched.run(prog)[1]
        assert np.array_equal(out, payload)
        counts = sched.resilience.counts()
        assert counts["corrupt"] == 1
        assert counts["corruption-detected"] == 1
        assert counts["retransmit"] == 1

    def test_corruption_with_exhausted_retries_raises_diagnostic(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", np.ones(4))
            else:
                return (yield comm.recv(0, "t"))

        plan = FaultPlan(messages=(MessageFault(kind="corrupt"),))
        with pytest.raises(
            CorruptionError, match=r"rank 1 <- rank 0, tag='t'"
        ):
            Scheduler(
                2, cost_model=MODEL, measure_compute=False, fault_plan=plan
            ).run(prog)

    def test_probability_zero_never_fires(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 1)
            else:
                return (yield comm.recv(0, "t"))

        plan = FaultPlan(
            messages=(MessageFault(kind="drop", probability=0.0),)
        )
        sched = Scheduler(2, measure_compute=False, fault_plan=plan)
        assert sched.run(prog)[1] == 1
        assert sched.resilience.counts() == {}


# ---------------------------------------------------------------------------
# determinism of the injection itself
# ---------------------------------------------------------------------------
class TestInjectionDeterminism:
    def _lossy_pipeline(self, comm):
        """Each rank forwards an accumulating sum over a lossy link."""
        total = float(comm.rank)
        if comm.rank > 0:
            total += yield comm.recv(
                comm.rank - 1, "fwd", timeout=1.0, retries=2
            )
        if comm.rank < comm.size - 1:
            yield comm.send(comm.rank + 1, "fwd", total)
        return total

    def _plan(self):
        return FaultPlan(
            messages=(
                MessageFault(kind="drop", probability=0.5),
                MessageFault(kind="delay", delay=0.25, probability=0.5),
            ),
            seed=7,
        )

    def test_same_plan_same_injections_across_runs(self):
        runs = []
        for _ in range(2):
            sched = Scheduler(
                4, cost_model=MODEL, measure_compute=False,
                fault_plan=self._plan(),
            )
            results = sched.run(self._lossy_pipeline)
            runs.append(
                (freeze(results), tuple(sched.clocks),
                 tuple(sorted(sched.resilience.counts().items())))
            )
        assert runs[0] == runs[1]

    def test_injections_are_service_order_independent(self):
        """verify=True replays under the reversed order: injections must
        hit the same messages for results to stay byte-identical."""
        sched = Scheduler(
            4, cost_model=MODEL, measure_compute=False,
            fault_plan=self._plan(), verify=True,
        )
        sched.run(self._lossy_pipeline)  # raises VerificationError if not

    def test_seed_changes_selection(self):
        counts = []
        for seed in (7, 8):
            plan = FaultPlan(
                messages=(MessageFault(kind="drop", probability=0.5),),
                seed=seed,
            )
            sched = Scheduler(
                4, cost_model=MODEL, measure_compute=False, fault_plan=plan
            )
            sched.run(self._lossy_pipeline)
            counts.append(sched.resilience.counts().get("drop", 0))
        # not a strict requirement for every seed pair, but these differ
        assert counts[0] != counts[1]

    def test_fault_free_path_byte_identical_to_no_plan(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", np.arange(6, dtype=np.float64))
            else:
                return (yield comm.recv(0, "t"))

        bare = Scheduler(2, cost_model=MODEL, measure_compute=False)
        r0 = bare.run(prog)
        # a plan whose rules never match this traffic
        plan = FaultPlan(
            crashes=(RankCrash(rank=1, after_ops=10_000),),
            messages=(MessageFault(kind="drop", tag="other"),),
        )
        armed = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        r1 = armed.run(prog)
        assert freeze(r0) == freeze(r1)
        assert bare.clocks == armed.clocks
        assert armed.resilience.counts() == {}


# ---------------------------------------------------------------------------
# collectives over lossy links
# ---------------------------------------------------------------------------
class TestLossyCollectives:
    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 5])
    def test_bcast_survives_drops_with_retries(self, n_ranks):
        def prog(comm):
            value = 123 if comm.rank == 0 else None
            return (
                yield from bcast(
                    comm, value, root=0, timeout=0.5, retries=2
                )
            )

        plan = FaultPlan(
            messages=(MessageFault(kind="drop", occurrences=(0,)),)
        )
        sched = Scheduler(
            n_ranks, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        assert sched.run(prog) == [123] * n_ranks
        assert sched.resilience.counts()["retransmit"] >= 1


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
class TestReport:
    def test_empty_summary(self):
        assert "no faults" in ResilienceReport().summary()

    def test_summary_lists_events_and_cost(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 1.0)
            else:
                return (yield comm.recv(0, "t", timeout=0.5, retries=1))

        plan = FaultPlan(messages=(MessageFault(kind="drop"),))
        sched = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        sched.run(prog)
        text = sched.resilience.summary()
        assert "injected" in text and "drop" in text and "retransmit" in text
        assert sched.resilience.recovery_cost > 0.0


class TestReportSerialization:
    """ResilienceReport.to_dict()/from_dict() JSON round trip."""

    def _report_from_run(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, ("lvl", 0), 1.0)
            else:
                return (yield comm.recv(0, ("lvl", 0), timeout=0.5,
                                        retries=1))

        plan = FaultPlan(messages=(MessageFault(kind="drop"),))
        sched = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        sched.run(prog)
        return sched.resilience

    def test_json_round_trip(self):
        import json

        report = self._report_from_run()
        blob = json.dumps(report.to_dict())  # must be JSON-serializable
        again = ResilienceReport.from_dict(json.loads(blob))
        assert again.counts() == report.counts()
        assert again.recovery_cost == report.recovery_cost
        assert len(again.injected) == len(report.injected)
        for a, b in zip(again.injected, report.injected):
            assert (a.kind, a.rank, a.source, a.dest, a.tag, a.time) == \
                (b.kind, b.rank, b.source, b.dest, b.tag, b.time)
        assert again.rule_activations == report.rule_activations

    def test_tuple_tags_survive_round_trip(self):
        report = self._report_from_run()
        tags = [e.tag for e in report.injected if e.tag is not None]
        assert tags and all(isinstance(t, tuple) for t in tags)
        again = ResilienceReport.from_dict(report.to_dict())
        assert [e.tag for e in again.injected if e.tag is not None] == tags

    def test_empty_report_round_trip(self):
        again = ResilienceReport.from_dict(ResilienceReport().to_dict())
        assert again.injected == [] and again.recovered == []
        assert "no faults" in again.summary()


class TestRuleActivations:
    """Zero-activation accounting: rules that never fire are reported."""

    def _run(self, plan, n_ranks=2):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, ("lvl", 0), 1.0)
                return 0
            return (yield comm.recv(0, ("lvl", 0), timeout=0.5, retries=2))

        sched = Scheduler(
            n_ranks, cost_model=MODEL, measure_compute=False,
            fault_plan=plan,
        )
        sched.run(prog)
        return sched.resilience

    def test_dormant_message_rule_reported(self):
        plan = FaultPlan(messages=(
            MessageFault(kind="drop", tag=("never-sent-tag",)),
        ))
        report = self._run(plan)
        rows = report.rule_activations
        assert len(rows) == 1
        assert rows[0]["rule"] == "message[0]"
        assert rows[0]["activations"] == 0
        assert "dormant" in report.summary()

    def test_dormant_crash_rule_reported(self):
        plan = FaultPlan(crashes=(RankCrash(rank=1, after_ops=10_000),))
        report = self._run(plan)
        rows = report.rule_activations
        assert len(rows) == 1
        assert rows[0]["rule"] == "crash[0]"
        assert rows[0]["kind"] == "crash"
        assert rows[0]["activations"] == 0
        assert "never fired" in report.summary()

    def test_fired_rules_counted(self):
        plan = FaultPlan(
            crashes=(RankCrash(rank=1, after_ops=1),),
            messages=(MessageFault(kind="drop"),),
        )

        def prog(comm):
            try:
                if comm.rank == 0:
                    yield comm.send(1, ("lvl", 0), 1.0)
                    return 0
                return (yield comm.recv(0, ("lvl", 0), timeout=0.5,
                                        retries=2))
            except RankFailure:
                return -1

        sched = Scheduler(
            2, cost_model=MODEL, measure_compute=False, fault_plan=plan
        )
        sched.run(prog)
        rows = {r["rule"]: r for r in sched.resilience.rule_activations}
        assert rows["crash[0]"]["activations"] == 1
        assert rows["message[0]"]["activations"] >= 1
        assert "dormant" not in sched.resilience.summary()

    def test_mixed_plan_reports_only_dormant_rules_as_dormant(self):
        plan = FaultPlan(
            crashes=(RankCrash(rank=1, after_ops=10_000),),
            messages=(MessageFault(kind="drop"),),
        )
        report = self._run(plan)
        rows = {r["rule"]: r["activations"] for r in report.rule_activations}
        assert rows["crash[0]"] == 0
        assert rows["message[0]"] >= 1
        text = report.summary()
        assert "dormant:   crash[0]" in text
        assert "dormant:   message[0]" not in text


class TestRecvArgumentValidation:
    """recv(timeout=, retries=, backoff=) argument validation."""

    def _run_single(self, **recv_kw):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", 1.0)
                return 0
            return (yield comm.recv(0, "t", **recv_kw))

        return Scheduler(2).run(prog)

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            self._run_single(timeout=0.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            self._run_single(timeout=-1.0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            self._run_single(timeout=1.0, retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff must be >= 0"):
            self._run_single(timeout=1.0, backoff=-0.5)

    def test_valid_arguments_accepted(self):
        assert self._run_single(timeout=1.0, retries=3, backoff=0.1) == \
            [0, 1.0]


# ---------------------------------------------------------------------------
# golden link-fault runs: the scheduler's fault paths pinned across commits
# ---------------------------------------------------------------------------
GOLDEN_LINK = Path(__file__).parent / "data" / "golden_link_faults.json"
#: dyadic figures, so every virtual clock below is an exact float
RING_MODEL = CommCostModel(latency=0.25, bandwidth=64.0, send_overhead=0.0625)
RING_TAG = ("ring", 0)


def _ring(comm, rounds, recv_kw):
    """Pass an accumulating vector round a ring; a timed-out rank leaves."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    acc = np.arange(4, dtype=np.float64) + comm.rank
    for k in range(rounds):
        yield comm.send(right, ("ring", k), acc)
        yield comm.work(0.125)
        try:
            got = yield comm.recv(left, ("ring", k), **recv_kw)
        except RecvTimeout as exc:
            return ("timeout", k, exc.source, exc.time)
        acc = acc + got
    return acc


def _link_case(messages, crashes=(), **recv_kw):
    return FaultPlan(messages=messages, crashes=crashes, seed=3), recv_kw


RETRY = dict(timeout=0.5, retries=1, backoff=0.03125)
LINK_CASES = {
    # one per MESSAGE_FAULT_KINDS entry, on the second message 0 -> 1
    **{
        f"kind-{kind}": _link_case(
            (MessageFault(kind=kind, source=0, dest=1, tag=("ring", 1),
                          delay=0.375 if kind == "delay" else 0.0),),
            **RETRY)
        for kind in MESSAGE_FAULT_KINDS
    },
    # the three recovery outcomes of the link layer
    "corrupt-then-retransmit": _link_case(
        (MessageFault(kind="corrupt", tag=RING_TAG),), **RETRY),
    "drop-timeout-retransmit": _link_case(
        (MessageFault(kind="drop", tag=RING_TAG),), **RETRY),
    "recv-timeout-thrown": _link_case(
        (MessageFault(kind="drop", source=0, dest=1, tag=RING_TAG),),
        timeout=0.5),
    # several kinds on one send, retries exhausted, a seeded mix, and link
    # faults beside an uncaught crash (after_ops and at_time triggers)
    "all-kinds-one-send": _link_case(
        tuple(MessageFault(kind=kind, source=2, dest=0, tag=RING_TAG,
                           delay=0.375 if kind == "delay" else 0.0)
              for kind in ("delay", "corrupt", "duplicate")), **RETRY),
    "retries-exhausted": _link_case(
        (MessageFault(kind="corrupt", source=1, dest=2, tag=RING_TAG),),
        timeout=0.5),
    "probabilistic-mix": _link_case(
        (MessageFault(kind="drop", probability=0.4),
         MessageFault(kind="delay", delay=0.375, probability=0.5),
         MessageFault(kind="duplicate", probability=0.3)), **RETRY),
    "crash-uncaught-with-drop": _link_case(
        (MessageFault(kind="drop", source=0, dest=1, tag=RING_TAG),),
        crashes=(RankCrash(rank=2, after_ops=4),), **RETRY),
    "crash-at-time": _link_case(
        (MessageFault(kind="delay", delay=0.375, source=0),),
        crashes=(RankCrash(rank=1, at_time=1.0),), **RETRY),
}


def run_link_case(name) -> dict:
    plan, recv_kw = LINK_CASES[name]
    sched = Scheduler(3, cost_model=RING_MODEL, measure_compute=False,
                      certify=True, warn_orphans=False, fault_plan=plan)
    try:
        outcome = {"results": freeze(sched.run(_ring, args=(3, recv_kw))).hex()}
    except (CorruptionError, RankFailure) as exc:
        outcome = {"raises": type(exc).__name__, "message": str(exc)}
    report = sched.resilience
    counters = sched.metrics.as_dict()["counters"]
    return {
        **outcome,
        "clocks": repr(sched.clocks),
        "injected": [ev.render() for ev in report.injected],
        "recovered": [ev.render() for ev in report.recovered],
        "rule_activations": report.rule_activations,
        "certificate": (sched.certificate.digest
                        if sched.certificate is not None else None),
        "orphans": [o.render() for o in sched.orphans],
        "messages": counters.get("mpi.messages", 0),
        "retransmissions": counters.get("mpi.retransmissions", 0),
    }


class TestGoldenLinkFaults:
    """Drop / duplicate / delay / corrupt and the three link-layer
    recovery outcomes, pinned byte for byte in
    ``tests/data/golden_link_faults.json``.  ``golden_runs.json`` holds
    crash plans only; this is the cross-commit pin of the message-fault
    paths.  Re-record (only when a change is *meant* to move them) with
    ``PYTHONPATH=src python tests/test_faults.py --record``."""

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(GOLDEN_LINK.read_text(encoding="utf-8"))

    def test_golden_file_covers_the_cases(self, golden):
        assert sorted(golden) == sorted(LINK_CASES)
        assert {f"kind-{k}" for k in MESSAGE_FAULT_KINDS} <= set(golden)

    @pytest.mark.parametrize("name", sorted(LINK_CASES))
    def test_run_matches_golden(self, name, golden):
        assert run_link_case(name) == golden[name]

    def test_the_cases_reach_every_link_layer_path(self, golden):
        kinds = {line.split()[1] for case in golden.values()
                 for line in case["injected"] + case["recovered"]}
        assert kinds >= {
            "drop", "duplicate", "delay", "corrupt", "crash",
            "corruption-detected", "retransmit", "timeout", "crash-uncaught",
        }
        assert golden["recv-timeout-thrown"]["results"] != \
            golden["drop-timeout-retransmit"]["results"]
        assert golden["retries-exhausted"]["raises"] == "CorruptionError"

    def test_sanitizer_verdict_at_the_receive_boundary(self, monkeypatch):
        """``REPRO_SANITIZE=1`` plus any plan scans delivered payloads; a
        NaN that no rule injected has no pristine copy to fall back on."""
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "t", np.array([1.0, np.nan]))
            else:
                return (yield comm.recv(0, "t", timeout=0.5, retries=1))

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        plan = FaultPlan(messages=(MessageFault(kind="drop", tag="other"),))
        sched = Scheduler(2, cost_model=RING_MODEL, measure_compute=False,
                          fault_plan=plan)
        verdict = ("sanitizer rejected payload: recv produced 1 non-finite "
                   "value(s) in an array of shape (2,)")
        with pytest.raises(CorruptionError) as err:
            sched.run(prog)
        assert str(err.value) == (
            "corrupted payload detected at receive boundary: rank 1 <- "
            f"rank 0, tag='t', virtual time 0.5625; {verdict}; no pristine "
            "copy available for retransmit"
        )
        assert [ev.render() for ev in sched.resilience.recovered] == [
            f"[t=0.5625] corruption-detected rank=1 channel=0->1 tag='t' "
            f"({verdict})"
        ]
        # without a plan the receive boundary is not guarded
        assert np.isnan(Scheduler(2, measure_compute=False).run(prog)[1][1])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_faults.py --record")
    GOLDEN_LINK.write_text(
        json.dumps({name: run_link_case(name) for name in sorted(LINK_CASES)},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(LINK_CASES)} cases into {GOLDEN_LINK}")
