"""Tests for the PFASST controller (Algorithm 1)."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.topology import SpaceTimeGrid
from repro.pfasst import (
    Level,
    LevelSpec,
    PfasstConfig,
    adopt_levels,
    pfasst_rank_program,
    run_pfasst,
    snapshot_levels,
)
from repro.sdc import (
    RhsContext,
    SDCStepper,
    available_node_types,
    make_rule,
    make_sweeper,
)
from repro.vortex import DirectEvaluator, VortexProblem, get_kernel, pack_state


def _specs(problem, fine_nodes=3, coarse_nodes=2, coarse_sweeps=2,
           node_type="lobatto"):
    return [
        LevelSpec(problem, num_nodes=fine_nodes, sweeps=1,
                  node_type=node_type),
        LevelSpec(problem, num_nodes=coarse_nodes, sweeps=coarse_sweeps,
                  node_type=node_type),
    ]


def _collocation_reference(problem, u0, t_end, n_steps,
                           node_type="lobatto", num_nodes=3):
    """Fine collocation solution via heavily-swept serial SDC."""
    s = SDCStepper(problem, num_nodes=num_nodes, sweeps=14,
                   node_type=node_type)
    return s.run(u0, 0.0, t_end, t_end / n_steps)


class TestValidation:
    def test_needs_two_levels(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=1)
        with pytest.raises(ValueError, match="2 levels"):
            run_pfasst(cfg, [LevelSpec(scalar_problem, 3)], np.array([1.0]),
                       p_time=2)

    def test_steps_multiple_of_ranks(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=3, iterations=1)
        with pytest.raises(ValueError, match="multiple"):
            run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=2)

    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            PfasstConfig(t0=0.0, t_end=1.0, n_steps=0, iterations=1)
        with pytest.raises(ValueError):
            PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=0)
        with pytest.raises(ValueError):
            PfasstConfig(t0=1.0, t_end=1.0, n_steps=2, iterations=1)

    def test_level_spec_validation(self, scalar_problem):
        with pytest.raises(ValueError, match="nodes"):
            LevelSpec(scalar_problem, num_nodes=1)
        with pytest.raises(ValueError, match="sweep"):
            LevelSpec(scalar_problem, num_nodes=3, sweeps=0)

    def test_level_spec_rejects_unknown_node_type(self, scalar_problem):
        """At construction, not from inside a rank program of the run."""
        with pytest.raises(
            ValueError, match="node_type.*equidistant.*lobatto.*radau-right"
        ):
            LevelSpec(scalar_problem, 3, node_type="radau-right")

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_residual_tol_must_be_positive(self, tol):
        """A tolerance no residual can meet would silently disable the
        early exit while every iteration still pays its allreduce."""
        with pytest.raises(ValueError, match="residual_tol"):
            PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=1,
                         residual_tol=tol)


class TestConvergence:
    @pytest.mark.parametrize("node_type", available_node_types())
    def test_converges_to_fine_collocation_solution(self, scalar_problem,
                                                    node_type):
        """Four fine nodes, where the families differ."""
        u0 = np.array([1.0])
        ref = _collocation_reference(scalar_problem, u0, 2.0, 8,
                                     node_type=node_type, num_nodes=4)
        cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=8, iterations=10)
        specs = _specs(scalar_problem, fine_nodes=4, node_type=node_type)
        res = run_pfasst(cfg, specs, u0, p_time=8)
        assert np.allclose(res.u_end, ref, atol=1e-10)

    def test_error_decreases_with_iterations(self, scalar_problem):
        u0 = np.array([1.0])
        ref = _collocation_reference(scalar_problem, u0, 2.0, 8)
        errors = []
        for k in (1, 2, 4):
            cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=8, iterations=k)
            res = run_pfasst(cfg, _specs(scalar_problem), u0, p_time=8)
            errors.append(abs((res.u_end - ref).item()))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1] * 0.5

    def test_residuals_decrease(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=6)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=4)
        for rank_res in res.residuals:
            assert rank_res[-1] < rank_res[0]

    def test_single_rank_runs_blocks_serially(self, scalar_problem):
        """p_time=1 is valid: every slice is one block."""
        u0 = np.array([1.0])
        ref = _collocation_reference(scalar_problem, u0, 1.0, 4)
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=8)
        res = run_pfasst(cfg, _specs(scalar_problem), u0, p_time=1)
        assert np.allclose(res.u_end, ref, atol=1e-8)

    def test_multi_block_matches_single_block_accuracy(self, scalar_problem):
        u0 = np.array([1.0])
        ref = _collocation_reference(scalar_problem, u0, 2.0, 8)
        cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=8, iterations=8)
        res2 = run_pfasst(cfg, _specs(scalar_problem), u0, p_time=2)  # 4 blocks
        res8 = run_pfasst(cfg, _specs(scalar_problem), u0, p_time=8)  # 1 block
        assert np.allclose(res2.u_end, ref, atol=1e-8)
        assert np.allclose(res8.u_end, ref, atol=1e-8)

    def test_three_level_hierarchy(self, scalar_problem):
        u0 = np.array([1.0])
        # reference must match the FINE level: 5-node collocation
        ref = SDCStepper(scalar_problem, num_nodes=5, sweeps=14).run(
            u0, 0.0, 1.0, 0.25
        )
        specs = [
            LevelSpec(scalar_problem, num_nodes=5, sweeps=1),
            LevelSpec(scalar_problem, num_nodes=3, sweeps=1),
            LevelSpec(scalar_problem, num_nodes=2, sweeps=2),
        ]
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=10)
        res = run_pfasst(cfg, specs, u0, p_time=4)
        assert np.allclose(res.u_end, ref, atol=1e-8)

    def test_vector_state(self, linear_problem):
        u0 = np.array([1.0, 0.5])
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=8)
        res = run_pfasst(cfg, _specs(linear_problem), u0, p_time=4)
        # converge to the fine collocation solution, not the exact ODE
        ref = SDCStepper(linear_problem, num_nodes=3, sweeps=14).run(
            u0, 0.0, 1.0, 0.25
        )
        assert np.allclose(res.u_end, ref, atol=1e-9)
        # and the collocation solution itself is close to exact
        exact = linear_problem.exact(1.0, u0)
        assert np.allclose(ref, exact, atol=5e-4)


class TestResultMetadata:
    def test_slice_end_values_chain(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=8)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=4)
        assert len(res.slice_end_values) == 4
        # converged: slice k's end == reference at t_{k+1}
        s = SDCStepper(scalar_problem, num_nodes=3, sweeps=14)
        u = np.array([1.0])
        for k in range(4):
            u = s.run(u, k * 0.5, (k + 1) * 0.5, 0.5)
            assert np.allclose(res.slice_end_values[k], u, atol=1e-6)

    def test_clock_count(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=2)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=4)
        assert len(res.clocks) == 4
        assert res.makespan >= 0.0

    def test_iterations_done_records_full_count(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=3)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=4)
        assert res.iterations_done == [3]

    def test_residual_tol_early_exit(self, scalar_problem):
        cfg = PfasstConfig(
            t0=0.0, t_end=1.0, n_steps=4, iterations=25, residual_tol=1e-10
        )
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]), p_time=4)
        assert res.iterations_done[0] < 25
        assert max(r[-1] for r in res.residuals) <= 1e-10


class TestPaperConfigurations:
    """PFASST(X, Y, P_T) variants from Fig. 7b."""

    @pytest.mark.parametrize("iters,coarse_sweeps", [(1, 2), (2, 2)])
    def test_paper_variant_accuracy_order(self, scalar_problem, iters,
                                          coarse_sweeps):
        """PFASST(1,2,·) ~ 3rd order, PFASST(2,2,·) ~ 4th order (Fig. 7b).

        The mean rate over a 3-point dt ladder is used: single-halving
        rates fluctuate around error-curve crossovers."""
        u0 = np.array([1.0])
        ref = SDCStepper(scalar_problem, num_nodes=5, sweeps=10).run(
            u0, 0.0, 2.0, 0.01
        )
        errors = []
        for n_steps in (8, 16, 32):
            cfg = PfasstConfig(t0=0.0, t_end=2.0, n_steps=n_steps,
                               iterations=iters)
            specs = _specs(scalar_problem, coarse_sweeps=coarse_sweeps)
            res = run_pfasst(cfg, specs, u0, p_time=8)
            errors.append(abs((res.u_end - ref).item()))
        mean_rate = np.log2(errors[0] / errors[-1]) / 2.0
        assert mean_rate > iters + 1.0  # at least order iters+2 w/ slack


class TestRunShape:
    """One shape check, before the scheduler or any rank program exists."""

    def _cfg(self):
        return PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=1)

    def test_rejected_before_anything_is_built(self, scalar_problem,
                                               monkeypatch, tmp_path):
        """n_steps % p_time is raised by run_pfasst itself: no scheduler,
        no registered problems, no checkpointer."""
        import repro.pfasst.controller as controller

        def boom(*args, **kwargs):
            raise AssertionError("built before the run shape was checked")

        monkeypatch.setattr(controller, "Scheduler", boom)
        monkeypatch.setattr(controller, "RunCheckpointer", boom)
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=3, iterations=1)
        with pytest.raises(ValueError, match="multiple"):
            run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]),
                       p_time=2, checkpoint=tmp_path / "run.ckpt")
        with pytest.raises(ValueError, match="2 levels"):
            run_pfasst(self._cfg(), [LevelSpec(scalar_problem, 3)],
                       np.array([1.0]), p_time=2)

    def test_rank_program_entry_shares_the_check(self, scalar_problem):
        from repro.parallel.simmpi import Scheduler
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=3, iterations=1)
        with pytest.raises(ValueError, match="multiple of p_time=2"):
            Scheduler(2, measure_compute=False).run(
                pfasst_rank_program,
                args=(cfg, _specs(scalar_problem), np.array([1.0]),
                      SpaceTimeGrid(2)),
            )


class TestLevelSeams:
    """``Level`` owns dt, the sweep's ``u0`` rule and its state fields."""

    def test_end_value_right_endpoint_needs_no_dt(self, scalar_problem):
        level = Level(LevelSpec(scalar_problem, 3, 1))
        with pytest.raises(RuntimeError, match="not been initialised"):
            level.end_value
        level.U = np.arange(3.0).reshape(3, 1)
        level.F = np.ones((3, 1))
        level.u0 = np.array([0.0])
        assert np.array_equal(level.end_value, level.U[-1])

    @pytest.mark.parametrize("sweeper", ["gauss-seidel", "diagonal"])
    @pytest.mark.parametrize("state", ["dirty", "clean", "explicit"])
    def test_sweep_u0_rule(self, scalar_problem, sweeper, state):
        """What reaches ``sweeper.sweep_gen`` from ``Level.sweep``, what
        node 0 costs, and whether the level holds ``f0`` afterwards.

        ``dirty`` holds no ``f0``, ``clean`` holds it and ``explicit``
        hands the sweep a new ``u0``, which clears it.  The sweeper is
        always given the level's ``u0`` and ``f0``; node 0 ends at
        ``u0``, so the sweep leaves its evaluation as ``f0``.
        """
        level = Level(LevelSpec(scalar_problem, 3, 1, sweeper=sweeper),
                      dt=0.1)
        seen = {}
        real_sweep_gen = level.sweeper.sweep_gen

        def recording_sweep_gen(*args, **kw):
            seen.update(kw)
            return (yield from real_sweep_gen(*args, **kw))

        level.sweeper.sweep_gen = recording_sweep_gen
        tracked, new = np.array([1.0]), np.array([2.0])
        level.u0 = tracked
        level.U, level.F = level.sweeper.initialize(0.3, 0.1, tracked)
        held = level.F[0].copy() if state == "clean" else None
        level.f0 = held
        scalar_problem.evals = 0
        ctx = RhsContext()
        for _ in level.sweep(0.3, ctx, new if state == "explicit" else None):
            pass
        assert seen["u0"] is (new if state == "explicit" else tracked)
        assert seen["f0"] is held and seen["ctx"] is ctx
        # three nodes per round; the diagonal sweeper's second round
        # reuses node 0 (d_0 = 0), and a held f0 spares node 0's call
        rounds = 2 if sweeper == "diagonal" else 1
        saved = int(state == "clean") + (rounds - 1)
        assert scalar_problem.evals == 3 * rounds - saved
        if state == "clean":
            assert level.f0 is held
        else:
            t_node0 = level.sweeper.node_times(0.3, 0.1)[0]
            assert np.array_equal(
                level.f0, scalar_problem.rhs(t_node0, level.u0))

    def test_u0_assignment_keeps_f0_iff_bitwise_equal(self, scalar_problem):
        level = Level(LevelSpec(scalar_problem, 3, 1), dt=0.1)
        level.u0 = np.array([1.0])
        f0 = level.f0 = np.array([-1.0])
        level.u0 = np.array([1.0])  # a new array, the same bits
        assert level.f0 is f0
        level.u0 = np.array([np.nextafter(1.0, 2.0)])
        assert level.f0 is None
        level.u0, level.f0 = np.array([1.0]), f0
        level.reset()
        assert level.u0 is None and level.f0 is None

    def test_sweep_without_fas_leaves_tau_out(self, scalar_problem):
        """A block's first sweeps carry no FAS term: ``spread`` drops the
        previous block's, so the predictor needs no switch for it."""
        level = Level(LevelSpec(scalar_problem, 3, 1), dt=0.1)
        level.u0 = np.array([1.0])
        level.tau = np.full((3, 1), 5.0)  # a previous block's correction
        for _ in level.spread(0.0, RhsContext()):
            pass
        assert level.tau is None
        assert np.array_equal(level.U[2], level.u0)
        assert np.array_equal(level.f0, level.F[0])
        U_before = level.U.copy()
        for _ in level.sweep(0.0, RhsContext()):
            pass
        F_before = level.sweeper.initialize(0.0, 0.1, level.u0)[1]
        plain_U, _ = level.sweeper.sweep(0.0, 0.1, U_before, F_before)
        assert np.array_equal(level.U, plain_U)

    def test_state_tuple_drives_reset_and_checkpoint(self, scalar_problem):
        level = Level(LevelSpec(scalar_problem, 3, 1), dt=0.1)
        for i, name in enumerate(Level.STATE):
            setattr(level, name, np.full((2,), float(i)))
        (entry,) = snapshot_levels([level])
        assert sorted(entry) == sorted(Level.STATE)
        level.reset()
        assert all(getattr(level, name) is None for name in Level.STATE)
        adopt_levels([level], [entry])
        for i, name in enumerate(Level.STATE):
            assert np.array_equal(getattr(level, name), np.full((2,), float(i)))


class TestSweeperFactory:
    def test_names_and_classes(self, scalar_problem):
        from repro.sdc import (SWEEPERS, DiagonalSDCSweeper,
                               ExplicitSDCSweeper)

        rule = make_rule(3)
        assert SWEEPERS == ("gauss-seidel", "diagonal")
        gs = make_sweeper(scalar_problem, rule, "gauss-seidel")
        assert type(gs) is ExplicitSDCSweeper
        diag = make_sweeper(scalar_problem, rule, "diagonal")
        assert isinstance(diag, DiagonalSDCSweeper)
        assert np.array_equal(diag.d, rule.nodes / 3.0)

    def test_one_error_for_every_entrance(self, scalar_problem):
        for build in (
            lambda: make_sweeper(scalar_problem, make_rule(3), "jacobi"),
            lambda: LevelSpec(scalar_problem, 3, sweeper="jacobi"),
            lambda: SDCStepper(scalar_problem, sweeper="jacobi"),
        ):
            with pytest.raises(ValueError, match="sweeper must be one of"):
                build()


class TestOperationBudget:
    """``ctrl-n64``'s configuration at N=16 — the (4, 1, 3) grid, diagonal
    sweeper, warm-restart protocol, certify: what the scheduler did
    is a function of the program, published as ``sched.*`` counters."""

    def _budget(self, **kw):
        rng = np.random.default_rng(3)
        n = 16
        problem = VortexProblem(
            np.full(n, 1.0 / n), DirectEvaluator(get_kernel("algebraic6"), 0.1)
        )
        u0 = pack_state(rng.uniform(-1.0, 1.0, (n, 3)),
                        rng.normal(size=(n, 3)) * 0.2)
        specs = [LevelSpec(problem, 3, sweeps=1, sweeper="diagonal"),
                 LevelSpec(problem, 2, sweeps=2, sweeper="diagonal")]
        cfg = PfasstConfig(t0=0.0, t_end=1.0 / 16.0, n_steps=8, iterations=3,
                           recovery="warm-restart")
        res = run_pfasst(cfg, specs, u0, p_time=4, p_nodes=3, certify=True,
                         **kw)
        return {k: v for k, v in res.metrics["counters"].items()
                if k.startswith("sched.")}

    def test_identical_runs_have_equal_budgets(self):
        budget = self._budget()
        assert budget == self._budget()
        per_rank = [budget[f"sched.ops{{rank={r}}}"] for r in range(12)]
        assert budget["sched.ops"] == sum(per_rank) and min(per_rank) > 0
        assert budget["sched.resumes"] == sum(
            budget[f"sched.resumes{{rank={r}}}"] for r in range(12))
        # every blocking receive that is not the rank's first turn is
        # one more switch-in, and the run ends without a stall
        assert 12 <= budget["sched.resumes"] <= budget["sched.ops"]
        assert budget["sched.stalls"] == 0

    def test_ops_do_not_depend_on_the_service_order(self):
        # the verify replay runs the reversed service order and raises
        # unless its per-rank ``sched.ops`` equal the primary's
        budget = self._budget(verify=True)
        assert budget == self._budget()


class TestStructure:
    """The controller closure is gone, not wrapped; the scheduler under
    it has one message path and leaves fault-plan knowledge to
    ``faults.py``."""

    SRC = Path(__file__).parent.parent / "src" / "repro"
    #: files -> longest function allowed, its docstring not counted
    LIMITS = {"pfasst/*.py": 120, "parallel/simmpi.py": 70}

    def _functions(self, pattern):
        for path in sorted(self.SRC.glob(pattern)):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path.name, node
                assert not isinstance(node, ast.Nonlocal), path.name

    def test_no_function_over_120_lines_and_no_nonlocal(self):
        for pattern, limit in self.LIMITS.items():
            longest = {}
            for name, fn in self._functions(pattern):
                first = fn.body[0]
                has_doc = (isinstance(first, ast.Expr)
                           and isinstance(first.value, ast.Constant)
                           and isinstance(first.value.value, str))
                lines = fn.end_lineno - fn.lineno + 1
                if has_doc:
                    lines -= first.end_lineno - first.lineno + 1
                longest[f"{name}:{fn.name}"] = lines
            worst = max(longest, key=longest.get)
            assert longest[worst] <= limit, (worst, longest[worst])

    def test_link_fault_handling_lives_in_faults_py(self):
        parallel = self.SRC / "parallel"
        simmpi = (parallel / "simmpi.py").read_text(encoding="utf-8")
        imported = {
            alias.name for node in ast.walk(ast.parse(simmpi))
            if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert not imported & {"corrupt_payload", "payload_checksum"}
        assert simmpi.count("_Message(") == 1
        assert simmpi.count("state.blocked_on = None") == 1
        injecting = [p.name for p in sorted(self.SRC.rglob("*.py"))
                     if "injected.append" in p.read_text(encoding="utf-8")]
        assert injecting == ["faults.py"]

    def test_entry_point_signatures_are_the_parents(self):
        assert list(inspect.signature(run_pfasst).parameters) == [
            "config", "specs", "u0", "p_time", "cost_model",
            "measure_compute", "verify", "fault_plan",
            "tracer", "p_space", "p_nodes", "executor",
            "certify", "checkpoint", "resume_from",
        ]
        defaults = {
            name: p.default
            for name, p in inspect.signature(run_pfasst).parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        assert defaults == {
            "cost_model": None, "measure_compute": False, "verify": False,
            "fault_plan": None, "tracer": None, "p_space": 1,
            "p_nodes": 1, "executor": None, "certify": False,
            "checkpoint": None, "resume_from": None,
        }
        # one rank program for every grid shape
        params = inspect.signature(pfasst_rank_program).parameters
        assert list(params) == ["comm", "config", "specs", "u0", "grid",
                                "executor", "checkpointer", "resume"]
        assert all(params[name].default is None
                   for name in ("executor", "checkpointer", "resume"))

    def test_runtime_settings_are_pinned(self):
        """Every setting of the parallel runtime, the solver layers and
        the sheet setup has a non-test caller; a knob that comes back
        fails here."""
        from repro.io import save_particles
        from repro.parallel.collectives import (allgather, allreduce, bcast,
                                                reduce)
        from repro.parallel.executor import ProcessExecutor
        from repro.parallel.simmpi import EpochComm, Scheduler, VirtualComm
        from repro.pfasst.checkpoint import RunCheckpointer
        from repro.sdc import SDCStepper
        from repro.sdc.diagonal import DiagonalSDCSweeper
        from repro.tree.state import TreeStateCache
        from repro.vortex.sheet import SheetConfig, sphere_points

        link = ["timeout", "retries"]
        pinned = {
            Scheduler.__init__: ["self", "n_ranks", "cost_model",
                                 "measure_compute", "verify", "fault_plan",
                                 "tracer", "executor", "certify"],
            VirtualComm.recv: ["self", "source", "tag", *link],
            EpochComm.__init__: ["self", "parent", *link],
            bcast: ["comm", "value", "root", "tag", *link],
            reduce: ["comm", "value", "op", "root", "tag", *link],
            allreduce: ["comm", "value", "op", "tag", *link],
            allgather: ["comm", "value", "tag", *link],
            ProcessExecutor.__init__: ["self", "max_workers"],
            DiagonalSDCSweeper.__init__: ["self", "problem", "rule"],
            PfasstConfig: ["t0", "t_end", "n_steps", "iterations",
                           "residual_tol", "trace", "recovery",
                           "recovery_timeout", "recovery_retries"],
            SDCStepper.__init__: ["self", "problem", "num_nodes", "sweeps",
                                  "node_type", "sweeper"],
            RunCheckpointer.__init__: ["self", "path", "p_time",
                                       "config_digest", "metrics_source"],
            TreeStateCache.__init__: ["self"],
            SheetConfig: ["n", "radius", "sigma_over_h", "placement"],
            sphere_points: ["n"],
            save_particles: ["path", "ps", "time"],
        }
        for fn, names in pinned.items():
            assert list(inspect.signature(fn).parameters) == names, fn
