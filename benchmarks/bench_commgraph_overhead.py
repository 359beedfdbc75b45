"""Vector-clock certification overhead — ``certify=False`` must be free.

``Scheduler(certify=True)`` logs a scalar send stamp and a per-rank
event record on every send and delivery; the vector clocks of the
happens-before DAG are reconstructed **offline** by
:func:`repro.analysis.commgraph.hb.reconstruct_vector_clocks` when the
:class:`~repro.analysis.commgraph.hb.DeterminismCertificate` is derived
after the run.  That split keeps certification off the scheduler's hot
path, and this benchmark pins the contract on a message-heavy ring
exchange (pure scheduler work, trivial payloads — the worst case, since
real runs amortise the cost over RHS evaluations):

* **identity when disabled** — a ``certify=False`` run allocates no
  event logs at all (``_events is None``, ``certificate is None``), and
  its results and message counters are byte-identical
  (:func:`repro.analysis.commcheck.freeze`) to a ``certify=True`` run of
  the same program: certification observes the schedule, it never
  perturbs it (virtual clocks are wall-measured under the default
  ``measure_compute=True`` and are compared under
  ``measure_compute=False``);
* **< 5% when certifying** — the in-run event logging (run time minus
  the one-shot certificate derivation, which is reported separately per
  delivery) stays below five percent even with zero compute to hide
  behind.  The contract number is the best paired off/on window; the
  median of all windows is reported alongside, since on a shared
  machine wall-clock noise alone spans several percent;
* **derivation cost per delivery** — measured twice: on the ring above,
  where every hop is a fresh channel, and on the same ring with every
  link reusing one channel (``rounds`` messages per channel, the
  pattern of a PFASST run's repeated collectives), where the
  certificate's per-channel work shows.

The row carries a ``machine`` block (CPU model, nproc, OpenBLAS
threads) to read its timings against.

Results go to ``BENCH_commgraph.json`` at the repository root.  Run
directly (``python benchmarks/bench_commgraph_overhead.py [--quick]``);
the pytest entry points are marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.commcheck import freeze
from repro.analysis.commgraph.hb import build_certificate
from repro.parallel import Scheduler
from repro.parallel.collectives import allreduce

RANKS_DEFAULT = 8
ROUNDS_DEFAULT = 400
REPEATS_DEFAULT = 12
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_commgraph.json"


def _ring(rounds: int, repeated: bool = False):
    """Rank program: ``rounds`` eager ring hops, then one allreduce.

    Every hop is a fresh ``(head, round, src)`` channel — with
    ``repeated``, every hop of a link the one ``(head, src)`` channel —
    so the run is orphan-free and race-free by construction (a link's
    sends are ordered by its sender's program order) and the wall clock
    is dominated by scheduler bookkeeping, not payload handling.
    """

    def program(comm):
        rank, size = comm.rank, comm.size
        right, left = (rank + 1) % size, (rank - 1) % size
        acc = float(rank)
        for r in range(rounds):
            hop = () if repeated else (r,)
            yield comm.send(right, ("bench-ring", *hop, rank), acc)
            acc = yield comm.recv(left, ("bench-ring", *hop, left))
        total = yield from allreduce(comm, acc)
        return total

    return program


def _run_once(certify: bool, ranks: int, rounds: int,
              measure_compute: bool = True, repeated: bool = False):
    """One fresh-scheduler run; returns ``(scheduler, results, seconds)``.

    The collector is parked during the timed region: certification's
    per-event allocations would otherwise be billed whatever GC cycles
    they happen to trigger, drowning a sub-5% signal in collection
    noise.
    """
    sched = Scheduler(ranks, certify=certify, measure_compute=measure_compute)
    program = _ring(rounds, repeated)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        results = sched.run(program)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return sched, results, elapsed


def _traffic(sched: Scheduler) -> Tuple[int, int]:
    """``(messages, bytes)`` of the scheduler's last run."""
    counters = sched.metrics.as_dict()["counters"]
    return counters["mpi.messages"], counters["mpi.bytes"]


def identity_when_disabled(ranks: int, rounds: int) -> Dict:
    """The disabled path carries no logs and matches the certified run.

    Virtual clocks are compared under ``measure_compute=False`` — with
    the default wall-time compute measurement they are genuinely
    nondeterministic in both modes, which is exactly why the certificate
    digest excludes them.
    """
    off, res_off, _ = _run_once(False, ranks, rounds, measure_compute=False)
    off2, res_off2, _ = _run_once(False, ranks, rounds, measure_compute=False)
    on, res_on, _ = _run_once(True, ranks, rounds, measure_compute=False)

    structural = off._events is None and off.certificate is None
    deterministic = (
        freeze(res_off) == freeze(res_off2)
        and freeze(off.clocks) == freeze(off2.clocks)
    )
    unperturbed = (
        freeze(res_off) == freeze(res_on)
        and freeze(off.clocks) == freeze(on.clocks)
        and _traffic(off) == _traffic(on)
    )
    return {
        "structural_zero_state": structural,
        "disabled_run_deterministic": deterministic,
        "certify_does_not_perturb": unperturbed,
        "messages_per_run": _traffic(off)[0],
        "certificate_race_free": bool(on.certificate.race_free),
    }


def _hotpath_and_derivation(ranks: int, rounds: int,
                            repeated: bool = False) -> Tuple[float, float]:
    """``(t_hotpath, t_derive)`` for one certified run.

    The certificate step is stubbed out of the timed run, so the first
    number is the pure in-run logging cost; the derivation is then run
    for real on the raw event logs and timed on its own.
    """
    from repro.analysis.commgraph.hb import reconstruct_vector_clocks

    sched = Scheduler(ranks, certify=True)
    sched._build_certificate = lambda: None  # type: ignore[method-assign]
    program = _ring(rounds, repeated)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sched.run(program)
        t_hot = time.perf_counter() - t0
        t0 = time.perf_counter()
        deliveries, clocks = reconstruct_vector_clocks(
            sched.n_ranks, sched._events
        )
        build_certificate(sched.n_ranks, deliveries, sched._census, clocks)
        t_der = time.perf_counter() - t0
    finally:
        gc.enable()
    return t_hot, t_der


def _paired_sessions(ranks: int, rounds: int,
                     repeats: int) -> List[Tuple[float, float, float]]:
    """Per-round ``(t_off, t_hotpath, t_derive)`` timings, interleaved.

    Each round times the off run and the certified run back to back,
    alternating which goes first to cancel ordering bias.  The contract
    number is the **best** (minimum) paired difference: on a shared
    machine with frequency scaling, wall-clock noise is several percent
    either way, so only the quietest window measures the true cost — the
    median is reported alongside as the noise-inclusive figure.
    """
    _run_once(False, ranks, rounds)  # warm before either side is timed
    _run_once(True, ranks, rounds)   # (includes the lazy commgraph import)
    sessions = []
    for i in range(repeats):
        if i % 2 == 0:
            _, _, t_off = _run_once(False, ranks, rounds)
            t_hot, t_der = _hotpath_and_derivation(ranks, rounds)
        else:
            t_hot, t_der = _hotpath_and_derivation(ranks, rounds)
            _, _, t_off = _run_once(False, ranks, rounds)
        sessions.append((t_off, t_hot, t_der))
    return sessions


def machine() -> Dict:
    """CPU model, nproc and the OpenBLAS thread count of this host."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = os.cpu_count()
    return {
        "cpu_model": model,
        "nproc": nproc,
        # OpenBLAS starts one thread per core unless told otherwise
        "openblas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS",
                                               nproc or 1)),
    }


def repeated_channel_derivation(ranks: int, rounds: int,
                                repeats: int) -> Dict:
    """Best-of-``repeats`` derivation cost when every link reuses one
    channel for all its ``rounds`` messages."""
    sched, _, _ = _run_once(True, ranks, rounds, repeated=True)
    if not sched.certificate.race_free or sched.orphans:
        raise RuntimeError("the repeated-channel ring must be race- and "
                           "orphan-free")
    derive_s = min(_hotpath_and_derivation(ranks, rounds, repeated=True)[1]
                   for _ in range(repeats))
    n_msgs = _traffic(sched)[0]
    return {
        "messages_per_channel": rounds,
        "derive_certificate_s": round(derive_s, 6),
        "derive_us_per_delivery": round(derive_s / n_msgs * 1e6, 3),
    }


def measure(ranks: int = RANKS_DEFAULT, rounds: int = ROUNDS_DEFAULT,
            repeats: int = REPEATS_DEFAULT) -> Dict:
    """Identity probes plus the certify-on overhead of the ring workload."""
    row = identity_when_disabled(ranks, rounds)
    sessions = _paired_sessions(ranks, rounds, repeats)
    off_s = min(t for t, _, _ in sessions)
    hot_s = min(t for _, t, _ in sessions)
    derive_s = min(t for _, _, t in sessions)
    diffs = [(t_hot - t_off) / t_off for t_off, t_hot, _ in sessions]
    hotpath_best = 100.0 * max(0.0, min(diffs))
    hotpath_median = 100.0 * statistics.median(diffs)
    total_pct = 100.0 * (hot_s + derive_s - off_s) / off_s
    n_msgs = row["messages_per_run"]
    row.update({
        "ranks": ranks,
        "rounds": rounds,
        "run_off_s": round(off_s, 6),
        "run_certify_s": round(hot_s + derive_s, 6),
        "derive_certificate_s": round(derive_s, 6),
        "overhead_hotpath_pct": round(hotpath_best, 4),
        "overhead_hotpath_median_pct": round(hotpath_median, 4),
        "overhead_total_pct": round(total_pct, 4),
        "derive_us_per_delivery": round(derive_s / n_msgs * 1e6, 3),
        "repeated_channel": repeated_channel_derivation(ranks, rounds,
                                                        repeats),
        "machine": machine(),
    })
    return row


# ---------------------------------------------------------------------------
# pytest entry points (excluded from tier-1 by the `slow` marker)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_certify_off_is_identity():
    """Acceptance: disabled certification is byte-for-byte invisible."""
    row = identity_when_disabled(ranks=4, rounds=50)
    assert row["structural_zero_state"], row
    assert row["disabled_run_deterministic"], row
    assert row["certify_does_not_perturb"], row


@pytest.mark.slow
def test_certify_hotpath_overhead_below_five_percent():
    """Acceptance: in-run event logging costs < 5% on the scheduler."""
    row = measure(ranks=4, rounds=200, repeats=12)
    assert row["certify_does_not_perturb"], row
    assert row["overhead_hotpath_pct"] < 5.0, row


def main(argv: List[str]) -> None:
    rounds = 100 if "--quick" in argv else ROUNDS_DEFAULT
    row = measure(rounds=rounds)
    data = {
        "benchmark": "commgraph_overhead",
        "description": "vector-clock certification cost on a message-"
                       "heavy ring exchange (identity when disabled, "
                       "<5% in-run scheduler overhead when certifying; "
                       "certificate derivation is a one-shot post-pass)",
        "config": {
            "ranks": row["ranks"],
            "rounds": row["rounds"],
            "repeats": REPEATS_DEFAULT,
            "workload": "eager ring exchange + final allreduce; the "
                        "same ring on one channel per link",
        },
        "results": [row],
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    print(f"ranks={row['ranks']} rounds={row['rounds']} "
          f"({row['messages_per_run']} messages): "
          f"off {row['run_off_s']:.4f}s, "
          f"certify {row['run_certify_s']:.4f}s "
          f"(hot path {row['overhead_hotpath_pct']:.2f}% best / "
          f"{row['overhead_hotpath_median_pct']:.2f}% median, "
          f"total {row['overhead_total_pct']:.2f}%, "
          f"derive {row['derive_us_per_delivery']:.1f}us/delivery, "
          f"{row['repeated_channel']['derive_us_per_delivery']:.1f}"
          f"us/delivery on repeated channels); "
          f"identity: structural={row['structural_zero_state']}, "
          f"deterministic={row['disabled_run_deterministic']}, "
          f"unperturbed={row['certify_does_not_perturb']}")


if __name__ == "__main__":
    main(sys.argv[1:])
