"""Seeded chaos campaigns: randomized fault soak over the P_T x P_S grid.

The unit suites pin *specific* failure scenarios (one crash at one op
count).  This module complements them with randomized-but-reproducible
*campaigns*: every trial derives its crash site, trigger, recovery
policy and executor from a counter-keyed RNG, runs a short PFASST
problem on the space-time grid, and classifies the outcome against a
fault-free baseline.  Campaigns are pure functions of ``(config, seed)``
— re-running one replays the identical fault sequence, so a campaign
failure is a reproducible bug report, not a flake.

Outcome classes:

``recovered``
    the run survived its injected faults (or was killed and resumed from
    a durable checkpoint) and reached the fault-free end state.
``converged-differs``
    the run survived but its end state differs from the baseline — a
    recovery-correctness bug; campaigns fail on any occurrence.
``fatal-protocol``
    the crash landed inside a recovery collective (the documented
    unrecoverable window) and the run aborted with a protocol error.
``exhausted``
    recovery gave up after the block's three allowed restarts.
``rank-death``
    a :class:`~repro.parallel.faults.RankFailure` propagated (expected
    when the trial runs with ``recovery="fail"``).
``error``
    any other exception — campaigns fail on any occurrence.

Run ``python -m repro.parallel.chaos --smoke`` for the CI-sized soak.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.faults import FaultPlan, RankCrash, RankFailure
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import paper_levels
from repro.vortex.problem import ODEProblem

__all__ = [
    "ChaosODE",
    "CampaignConfig",
    "TrialResult",
    "CampaignReport",
    "run_campaign",
    "main",
]


class ChaosODE(ODEProblem):
    """Small linear system u' = A u (module-level, hence picklable)."""

    def __init__(self) -> None:
        self.matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def _config(**kw: Any) -> PfasstConfig:
    kw.setdefault("t0", 0.0)
    kw.setdefault("t_end", 1.0)
    kw.setdefault("n_steps", 4)
    kw.setdefault("iterations", 30)
    kw.setdefault("residual_tol", 1e-11)
    return PfasstConfig(**kw)


@dataclass(frozen=True)
class CampaignConfig:
    """A reproducible chaos campaign over the space-time grid."""

    seed: int = 0
    trials: int = 8
    p_time: int = 2
    p_space: int = 2
    executors: Tuple[str, ...] = ("serial",)
    #: every Nth trial is a kill-mid-run + checkpoint-resume trial
    #: instead of an in-run recovery trial (0 disables them)
    kill_resume_every: int = 4
    recovery_timeout: float = 2e-4
    max_workers: int = 2

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        bad = [e for e in self.executors if e not in ("serial", "process")]
        if bad:
            raise ValueError(
                f"unknown executor(s) {bad}; choose from 'serial', 'process'"
            )
        if self.kill_resume_every < 0:
            raise ValueError("kill_resume_every must be >= 0")


@dataclass
class TrialResult:
    trial: int
    executor: str
    kind: str  # "crash" | "kill-resume"
    policy: str
    crash_rank: int
    after_ops: int
    outcome: str
    recoveries: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class CampaignReport:
    config: Dict[str, Any]
    trials: List[TrialResult] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.trials:
            out[t.outcome] = out.get(t.outcome, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        """No correctness bug surfaced (aborted windows are expected)."""
        bad = ("converged-differs", "error")
        return not any(t.outcome in bad for t in self.trials)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "counts": self.counts(),
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
        }

    def summary(self) -> str:
        lines = [
            "chaos campaign: "
            f"{len(self.trials)} trial(s), seed {self.config.get('seed')}, "
            f"grid {self.config.get('p_time')}x{self.config.get('p_space')}"
        ]
        for name, n in sorted(self.counts().items()):
            lines.append(f"  {name:18s} {n}")
        for t in self.trials:
            if t.outcome in ("converged-differs", "error"):
                lines.append(
                    f"  FAIL trial {t.trial} [{t.executor}/{t.kind}/"
                    f"{t.policy}] rank={t.crash_rank} ops={t.after_ops}: "
                    f"{t.outcome} — {t.detail}"
                )
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _classify(exc: BaseException) -> Tuple[str, str]:
    if isinstance(exc, RankFailure):
        return "rank-death", str(exc)
    if isinstance(exc, RuntimeError):
        text = str(exc)
        if "gave up" in text:
            return "exhausted", text
        if "protocol" in text:
            return "fatal-protocol", text
    return "error", f"{type(exc).__name__}: {exc}"


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute a campaign; deterministic in ``cfg`` (seed included)."""
    problem = ChaosODE()
    specs = paper_levels(problem, problem, "gauss-seidel")
    u0 = np.array([1.0, 2.0])
    world = cfg.p_time * cfg.p_space
    report = CampaignReport(config=dict(
        seed=cfg.seed, trials=cfg.trials, p_time=cfg.p_time,
        p_space=cfg.p_space, executors=list(cfg.executors),
        kill_resume_every=cfg.kill_resume_every,
    ))

    def _run(executor_name: str, **kw: Any):
        if executor_name == "process":
            with ProcessExecutor(max_workers=cfg.max_workers) as ex:
                return run_pfasst(
                    specs=specs, u0=u0, p_time=cfg.p_time,
                    p_space=cfg.p_space, executor=ex, **kw,
                )
        executor = SerialExecutor() if executor_name == "serial" else None
        return run_pfasst(
            specs=specs, u0=u0, p_time=cfg.p_time,
            p_space=cfg.p_space, executor=executor, **kw,
        )

    baselines = {
        name: _run(name, config=_config()) for name in cfg.executors
    }

    for trial in range(cfg.trials):
        executor_name = cfg.executors[trial % len(cfg.executors)]
        base = baselines[executor_name]
        rng = np.random.default_rng([cfg.seed, trial])
        crash_rank = int(rng.integers(0, world))
        after_ops = int(rng.integers(8, 64))
        policy = ("cold-restart", "warm-restart")[int(rng.integers(0, 2))]
        plan = FaultPlan(
            crashes=[RankCrash(rank=crash_rank, after_ops=after_ops)],
            seed=cfg.seed * 1000 + trial,
        )
        kill_resume = (
            cfg.kill_resume_every > 0
            and trial % max(cfg.kill_resume_every, 1)
            == cfg.kill_resume_every - 1
        )
        if kill_resume:
            result = _kill_resume_trial(
                trial, executor_name, plan, crash_rank, after_ops, base, _run
            )
        else:
            result = _crash_trial(
                trial, executor_name, plan, crash_rank, after_ops, policy,
                base, cfg, _run,
            )
        report.trials.append(result)
    return report


def _matches(res: Any, base: Any, exact: bool) -> bool:
    if exact:
        return bool(np.array_equal(res.u_end, base.u_end))
    # in-run recovery re-converges to the residual tolerance, not to the
    # bit: apply the same 10x-residual-tol contract as the unit suite
    return bool(np.allclose(res.u_end, base.u_end, rtol=0.0, atol=1e-10))


def _crash_trial(
    trial, executor_name, plan, crash_rank, after_ops, policy, base, cfg,
    _run,
) -> TrialResult:
    tr = TrialResult(
        trial=trial, executor=executor_name, kind="crash", policy=policy,
        crash_rank=crash_rank, after_ops=after_ops, outcome="",
    )
    try:
        res = _run(
            executor_name,
            config=_config(
                recovery=policy, recovery_timeout=cfg.recovery_timeout
            ),
            fault_plan=plan,
        )
    except BaseException as exc:  # noqa: BLE001 — classified, not hidden
        tr.outcome, tr.detail = _classify(exc)
        return tr
    tr.recoveries = len(res.recoveries)
    if _matches(res, base, exact=False):
        tr.outcome = "recovered"
    else:
        tr.outcome = "converged-differs"
        tr.detail = (
            f"u_end={res.u_end!r} expected {base.u_end!r} after "
            f"{tr.recoveries} recover(ies)"
        )
    return tr


def _kill_resume_trial(
    trial, executor_name, plan, crash_rank, after_ops, base, _run
) -> TrialResult:
    """Kill a checkpointing run mid-flight, resume it, compare bitwise."""
    tr = TrialResult(
        trial=trial, executor=executor_name, kind="kill-resume",
        policy="fail", crash_rank=crash_rank, after_ops=after_ops,
        outcome="",
    )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = pathlib.Path(tmp) / "chaos.ckpt"
        try:
            _run(
                executor_name, config=_config(), fault_plan=plan,
                checkpoint=ckpt,
            )
            # the crash never fired (op count past the run's end):
            # nothing was killed, so there is nothing to resume
            tr.outcome = "recovered"
            tr.detail = "crash trigger never fired; run completed"
            return tr
        except RankFailure:
            pass
        except BaseException as exc:  # noqa: BLE001
            tr.outcome, tr.detail = _classify(exc)
            return tr
        if not ckpt.exists():
            tr.outcome = "recovered"
            tr.detail = "killed before the first checkpoint; cold rerun"
            res = None
        else:
            try:
                res = _run(executor_name, config=_config(), resume_from=ckpt)
            except BaseException as exc:  # noqa: BLE001
                tr.outcome, tr.detail = _classify(exc)
                return tr
        if res is not None:
            if _matches(res, base, exact=True):
                tr.outcome = "recovered"
            else:
                tr.outcome = "converged-differs"
                tr.detail = (
                    f"resumed u_end={res.u_end!r} != uninterrupted "
                    f"{base.u_end!r}"
                )
    return tr


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.chaos",
        description="seeded fault-injection soak over the space-time grid",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--p-time", type=int, default=2)
    parser.add_argument("--p-space", type=int, default=2)
    parser.add_argument(
        "--executors", default="serial",
        help="comma-separated subset of: serial,process",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized campaign: 6 trials under both executors",
    )
    parser.add_argument("--json", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    executors = tuple(e for e in args.executors.split(",") if e)
    trials = args.trials
    if args.smoke:
        executors = ("serial", "process")
        trials = 6
    cfg = CampaignConfig(
        seed=args.seed, trials=trials, p_time=args.p_time,
        p_space=args.p_space, executors=executors,
    )
    report = run_campaign(cfg)
    print(report.summary())
    if args.json is not None:
        args.json.write_text(json.dumps(report.to_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
