"""Fault-tolerant PFASST: crash recovery policies and lossy-link runs.

The crash op counts below were chosen to land inside a V-cycle iteration
(or the predictor) — the protocol's recoverable window.  A crash landing
inside a recovery collective itself is fatal by design, mirroring a real
fault-tolerant MPI whose recovery collective fails.
"""

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.parallel import CommCostModel
from repro.parallel.faults import FaultPlan, MessageFault, RankCrash, RankFailure
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec

TOL = 1e-11

#: (p_time, crashed rank, after_ops) triples landing in iteration k >= 1
ITER_CRASH = {2: (1, 24), 4: (2, 26)}


def _specs(problem):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1),
        LevelSpec(problem, num_nodes=2, sweeps=2),
    ]


def _config(**kw):
    kw.setdefault("t0", 0.0)
    kw.setdefault("t_end", 1.0)
    kw.setdefault("n_steps", 4)
    kw.setdefault("iterations", 30)
    kw.setdefault("residual_tol", TOL)
    return PfasstConfig(**kw)


@pytest.fixture
def u0():
    return np.array([1.0, 2.0])


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            _config(recovery="reboot")

    def test_timeout_positive(self):
        with pytest.raises(ValueError, match="recovery_timeout"):
            _config(recovery_timeout=0.0)

    def test_retries_nonnegative(self):
        with pytest.raises(ValueError, match="recovery_retries"):
            _config(recovery_retries=-1)

    def test_max_restarts_positive(self):
        with pytest.raises(ValueError, match="max_restarts"):
            _config(max_restarts=0)


class TestFailPolicy:
    def test_crash_is_fatal_without_recovery(self, linear_problem, u0):
        rank, ops = ITER_CRASH[4]
        plan = FaultPlan(crashes=(RankCrash(rank=rank, after_ops=ops),))
        with pytest.raises(RankFailure, match=f"rank {rank} crashed"):
            run_pfasst(
                _config(), _specs(linear_problem), u0, p_time=4,
                fault_plan=plan,
            )

    def test_recovery_enabled_without_faults_matches_fail_numerics(
        self, linear_problem, u0
    ):
        """The protocol collectives must not change the numerics."""
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=4)
        for policy in ("cold-restart", "warm-restart"):
            res = run_pfasst(
                _config(recovery=policy), _specs(linear_problem), u0,
                p_time=4, verify=True,
            )
            assert freeze(res.u_end) == freeze(base.u_end)
            assert res.recoveries == []
            assert res.total_iterations == res.iterations_done


class TestCrashRecovery:
    @pytest.mark.parametrize("p_time", [2, 4])
    @pytest.mark.parametrize("policy", ["cold-restart", "warm-restart"])
    def test_single_crash_converges_to_fault_free_solution(
        self, linear_problem, u0, p_time, policy
    ):
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=p_time)
        rank, ops = ITER_CRASH[p_time]
        plan = FaultPlan(crashes=(RankCrash(rank=rank, after_ops=ops),))
        res = run_pfasst(
            _config(recovery=policy), _specs(linear_problem), u0,
            p_time=p_time, fault_plan=plan, verify=True,
        )
        # converged back to the fault-free solution within the residual tol
        assert np.abs(res.u_end - base.u_end).max() < 10 * TOL
        assert len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec["policy"] == policy
        assert rec["failed_ranks"] == [rank]
        assert rec["phase"] == "iteration"
        # the scheduler saw the crash and the program absorbed it
        counts = res.resilience.counts()
        assert counts["crash"] == 1
        assert counts["crash-handled"] == 1
        # recovery costs extra iterations over the fault-free run
        assert res.recovery_iterations >= 1

    @pytest.mark.parametrize("p_time", [2, 4])
    def test_warm_restart_cheaper_than_cold(self, linear_problem, u0, p_time):
        rank, ops = ITER_CRASH[p_time]
        plan = FaultPlan(crashes=(RankCrash(rank=rank, after_ops=ops),))
        extra = {}
        for policy in ("cold-restart", "warm-restart"):
            res = run_pfasst(
                _config(recovery=policy), _specs(linear_problem), u0,
                p_time=p_time, fault_plan=plan,
            )
            extra[policy] = res.recovery_iterations
        assert extra["warm-restart"] < extra["cold-restart"]

    def test_predictor_crash_restarts_block(self, linear_problem, u0):
        # rank 2's ops 1-2 are predictor staircase receives
        plan = FaultPlan(crashes=(RankCrash(rank=2, after_ops=1),))
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=4)
        for policy in ("cold-restart", "warm-restart"):
            res = run_pfasst(
                _config(recovery=policy), _specs(linear_problem), u0,
                p_time=4, fault_plan=plan, verify=True,
            )
            assert np.abs(res.u_end - base.u_end).max() < 10 * TOL
            assert res.recoveries[0]["phase"] == "predictor"

    def test_crash_in_second_block_recovers(self, linear_problem, u0):
        cfg = _config(n_steps=4, recovery="warm-restart")
        base = run_pfasst(_config(n_steps=4), _specs(linear_problem), u0,
                          p_time=2)
        # past the first block's traffic on rank 1
        plan = FaultPlan(crashes=(RankCrash(rank=1, after_ops=64),))
        res = run_pfasst(
            cfg, _specs(linear_problem), u0, p_time=2, fault_plan=plan,
        )
        assert np.abs(res.u_end - base.u_end).max() < 10 * TOL
        assert res.recoveries[0]["block"] == 1
        # only the second block paid for the recovery
        assert res.total_iterations[0] == res.iterations_done[0]
        assert res.total_iterations[1] > res.iterations_done[1]

    def test_give_up_after_max_restarts(self, linear_problem, u0):
        rank, ops = ITER_CRASH[4]
        # two distinct crashes, budget of one restart
        plan = FaultPlan(crashes=(
            RankCrash(rank=rank, after_ops=ops),
            RankCrash(rank=rank, after_ops=ops + 12),
        ))
        with pytest.raises(
            (RuntimeError, RankFailure), match="crash|gave up"
        ):
            run_pfasst(
                _config(recovery="cold-restart", max_restarts=1),
                _specs(linear_problem), u0, p_time=4, fault_plan=plan,
            )


class TestLossyLinks:
    def test_delayed_messages_keep_numerics_bit_identical(
        self, linear_problem, u0
    ):
        """Satellite: delays shift clocks, never values."""
        model = CommCostModel(latency=1e-4, bandwidth=1e9, send_overhead=0.0)
        base = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=4,
            cost_model=model,
        )
        plan = FaultPlan(messages=(
            MessageFault(kind="delay", delay=0.01, probability=0.5),
        ))
        res = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=4,
            cost_model=model, fault_plan=plan, verify=True,
        )
        assert freeze(res.u_end) == freeze(base.u_end)
        assert freeze(res.residuals) == freeze(base.residuals)
        assert res.makespan > base.makespan
        assert res.resilience.counts()["delay"] >= 1

    def test_descending_service_order_bit_identical(self, linear_problem, u0):
        """Multi-block PFASST numerics are schedule-independent: the
        verify replay runs the descending order and must match the
        primary's results, clocks and operation budget."""
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=2)
        res = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, verify=True,
        )
        assert freeze(res.u_end) == freeze(base.u_end)
        assert freeze(res.residuals) == freeze(base.residuals)
        assert freeze(res.slice_end_values) == freeze(base.slice_end_values)

    def test_corruption_repaired_in_flight(self, linear_problem, u0):
        """A bit flip on a neighbour message is caught by the checksum at
        the receive boundary and repaired by retransmit — bit-identical
        numerics to the clean run."""
        base = run_pfasst(
            _config(recovery="warm-restart"), _specs(linear_problem), u0,
            p_time=4,
        )
        # exactly one message: the fine-level forward send at iteration 1
        plan = FaultPlan(messages=(
            MessageFault(
                kind="corrupt", source=1, dest=2, tag=("lvl", 0, 0, 0, 1),
            ),
        ))
        res = run_pfasst(
            _config(recovery="warm-restart"), _specs(linear_problem), u0,
            p_time=4, fault_plan=plan, verify=True,
        )
        assert freeze(res.u_end) == freeze(base.u_end)
        counts = res.resilience.counts()
        assert counts["corrupt"] == 1
        assert counts["corruption-detected"] == 1
        assert counts["retransmit"] == 1
        assert res.recoveries == []  # repaired below the algorithmic layer


class TestGridRecovery:
    """Grid-wide fault tolerance: recovery on the full P_T x P_S grid.

    World ranks on the 2x2 grid are ``t * p_space + s``: rank 3 is the
    space rank (t=1, s=1) — its loss must be detected by *every* column,
    not just its own, because the columns couple through the space-row
    collectives.
    """

    GRID_TOL = 10 * TOL

    def _grid(self, problem, u0, **kw):
        kw.setdefault("p_time", 2)
        kw.setdefault("p_space", 2)
        return run_pfasst(specs=_specs(problem), u0=u0, **kw)

    @pytest.mark.parametrize("policy", ["cold-restart", "warm-restart"])
    def test_space_rank_crash_recovers_to_fault_free_solution(
        self, linear_problem, u0, policy
    ):
        """Acceptance: a seeded RankCrash on a space rank of a 2x2 run
        recovers and converges back to the fault-free residuals."""
        base = self._grid(linear_problem, u0, config=_config())
        plan = FaultPlan(crashes=(RankCrash(rank=3, after_ops=20),))
        res = self._grid(
            linear_problem, u0,
            config=_config(recovery=policy, recovery_timeout=2e-4),
            fault_plan=plan,
        )
        assert np.abs(res.u_end - base.u_end).max() < self.GRID_TOL
        assert res.residuals[-1][-1] < TOL
        assert len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec["policy"] == policy
        assert rec["failed_ranks"] == [3]
        assert rec["failed_time_ranks"] == [1]
        counts = res.resilience.counts()
        assert counts["crash"] == 1
        assert counts["crash-handled"] == 1

    def test_time_only_column_rank_crash_recovers(self, linear_problem, u0):
        """A crash in the s=0 column (the one whose results are reported)
        recovers the same way."""
        base = self._grid(linear_problem, u0, config=_config())
        plan = FaultPlan(crashes=(RankCrash(rank=2, after_ops=40),))
        res = self._grid(
            linear_problem, u0,
            config=_config(recovery="warm-restart", recovery_timeout=2e-4),
            fault_plan=plan,
        )
        assert np.abs(res.u_end - base.u_end).max() < self.GRID_TOL
        assert res.recoveries[0]["failed_ranks"] == [2]
        assert res.recoveries[0]["failed_time_ranks"] == [1]

    def test_predictor_phase_crash_recovers_on_grid(self, linear_problem, u0):
        base = self._grid(linear_problem, u0, config=_config())
        plan = FaultPlan(crashes=(RankCrash(rank=3, after_ops=5),))
        res = self._grid(
            linear_problem, u0,
            config=_config(recovery="cold-restart", recovery_timeout=2e-4),
            fault_plan=plan,
        )
        assert res.recoveries[0]["phase"] == "predictor"
        assert np.abs(res.u_end - base.u_end).max() < self.GRID_TOL

    def test_grid_recovery_is_replay_stable(self, linear_problem, u0):
        """verify=True re-runs under reversed service order: the injected
        crash, the row resync and the epoch-tagged space traffic must all
        replay to the same bytes."""
        plan = FaultPlan(crashes=(RankCrash(rank=3, after_ops=20),))
        res = self._grid(
            linear_problem, u0,
            config=_config(recovery="warm-restart", recovery_timeout=2e-4),
            fault_plan=plan, verify=True,
        )
        assert len(res.recoveries) == 1

    def test_fault_free_grid_with_policy_matches_plain_grid(
        self, linear_problem, u0
    ):
        """Turning recovery on (EpochComm wrap, world detection) without
        any faults must not change the numerics of a grid run."""
        base = self._grid(linear_problem, u0, config=_config())
        res = self._grid(
            linear_problem, u0,
            config=_config(recovery="warm-restart", recovery_timeout=2e-4),
        )
        assert freeze(res.u_end) == freeze(base.u_end)
        assert freeze(res.residuals) == freeze(base.residuals)
        assert res.recoveries == []

    def test_p_space1_recovery_unchanged_by_grid_support(
        self, linear_problem, u0
    ):
        """The grid extension leaves p_space=1 recovery byte-identical:
        same recoveries dict shape (no grid keys), same numerics."""
        rank, ops = ITER_CRASH[2]
        plan = FaultPlan(crashes=(RankCrash(rank=rank, after_ops=ops),))
        res = run_pfasst(
            _config(recovery="warm-restart"), _specs(linear_problem), u0,
            p_time=2, fault_plan=plan, verify=True,
        )
        assert "failed_time_ranks" not in res.recoveries[0]
        assert sorted(res.recoveries[0]) == [
            "attempt", "block", "failed_ranks", "k", "phase", "policy",
        ]
