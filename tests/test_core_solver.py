"""Tests for the solver's core run path: the plain objects a run is built
from (``VortexProblem`` with a tree or direct evaluator, the theta
coarsening, ``get_integrator`` / ``SDCStepper`` / ``run_pfasst``), wired
the way ``repro sheet`` wires them."""

import numpy as np
import pytest

from repro.cli import main
from repro.integrators import get_integrator
from repro.pfasst import (LevelSpec, PfasstConfig, alpha_from_measurements,
                          run_pfasst)
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import (DirectEvaluator, SheetConfig, VortexProblem,
                          spherical_vortex_sheet)


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=200)
    return spherical_vortex_sheet(cfg), cfg


def _direct(ps, cfg):
    return VortexProblem(ps.volumes, DirectEvaluator("algebraic6", cfg.sigma))


def _pfasst(fine, coarse, u0, t_end, dt, iterations, p_time):
    config = PfasstConfig(t0=0.0, t_end=t_end,
                          n_steps=int(round(t_end / dt)),
                          iterations=iterations)
    specs = [LevelSpec(fine, 3, 1), LevelSpec(coarse, 2, 2)]
    return run_pfasst(config, specs, u0, p_time=p_time)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            get_integrator("leapfrog")

    def test_bad_evaluator(self):
        with pytest.raises(SystemExit):
            main(["sheet", "--evaluator", "fmm"])

    def test_bad_dt(self, sheet):
        ps, cfg = sheet
        with pytest.raises(ValueError, match="dt"):
            SDCStepper(_direct(ps, cfg)).run(ps.state(), 0.0, 1.0, -0.5)
        with pytest.raises(ValueError, match="dt"):
            get_integrator("rk2").run(_direct(ps, cfg), ps.state(), 0.0, 1.0,
                                      -0.5)

    def test_n_steps(self):
        config = PfasstConfig(t0=0.0, t_end=4.0, n_steps=8, iterations=2)
        assert config.dt == 0.5

    def test_n_steps_non_divisible(self):
        with pytest.raises(ValueError, match="integer multiple"):
            main(["sheet", "-n", "40", "--method", "pfasst", "--t-end",
                  "1.0", "--dt", "0.3", "--p-time", "1"])

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="theta"):
            TreeEvaluator("algebraic6", 0.1, theta=-1.0)


class TestRuns:
    def test_rk_run(self, sheet):
        ps, cfg = sheet
        problem = _direct(ps, cfg)
        u_end = get_integrator("rk2").run(problem, ps.state(), 0.0, 1.0, 0.5)
        assert ps.with_state(u_end).n == ps.n
        assert problem.evaluator.calls == 4  # 2 steps x 2 stages

    def test_sdc_run(self, sheet):
        ps, cfg = sheet
        problem = _direct(ps, cfg)
        u_end = SDCStepper(problem, sweeps=3).run(ps.state(), 0.0, 1.0, 0.5)
        assert u_end.shape == ps.state().shape
        assert problem.evaluator.calls > 0

    def test_pfasst_run_records_alpha(self, sheet):
        ps, cfg = sheet
        fine = VortexProblem(ps.volumes, TreeEvaluator(
            "algebraic6", cfg.sigma, theta=0.3, leaf_size=24))
        coarse = fine.coarsened(theta=0.6)
        res = _pfasst(fine, coarse, ps.state(), 1.0, 0.25, 2, 4)
        assert coarse.evaluator.calls > 0
        ratio = fine.evaluator.mean_cost / coarse.evaluator.mean_cost
        assert alpha_from_measurements(2, 3, ratio) > 0
        assert len(res.residuals) == 4

    def test_methods_agree_on_final_state(self, sheet):
        """All integrators must land on (approximately) the same flow."""
        ps, cfg = sheet
        u0 = ps.state()
        results = {
            "rk4": get_integrator("rk4").run(_direct(ps, cfg), u0, 0.0, 1.0,
                                             0.5),
            "sdc": SDCStepper(_direct(ps, cfg), sweeps=4).run(u0, 0.0, 1.0,
                                                              0.5),
            "pfasst": _pfasst(_direct(ps, cfg), _direct(ps, cfg), u0, 1.0,
                              0.5, 3, 2).u_end,
        }
        results = {k: ps.with_state(u).positions for k, u in results.items()}
        scale = np.max(np.abs(results["rk4"]))
        assert np.max(np.abs(results["sdc"] - results["rk4"])) < 1e-4 * scale
        assert np.max(np.abs(results["pfasst"] - results["sdc"])) < 1e-4 * scale

    def test_callback_receives_states(self, sheet):
        ps, cfg = sheet
        seen = []
        get_integrator("euler").run(
            _direct(ps, cfg), ps.state(), 0.0, 1.0, 0.5,
            callback=lambda t, u: seen.append(t),
        )
        assert seen == pytest.approx([0.0, 0.5, 1.0])

    def test_tree_and_direct_agree(self, sheet):
        ps, cfg = sheet
        tree = VortexProblem(ps.volumes, TreeEvaluator(
            "algebraic6", cfg.sigma, theta=0.2, leaf_size=24))
        rk2 = get_integrator("rk2")
        r_direct = ps.with_state(rk2.run(_direct(ps, cfg), ps.state(), 0.0,
                                         0.5, 0.5)).positions
        r_tree = ps.with_state(rk2.run(tree, ps.state(), 0.0, 0.5,
                                       0.5)).positions
        scale = np.max(np.abs(r_direct))
        assert np.max(np.abs(r_tree - r_direct)) < 1e-4 * scale
