"""End-to-end integration tests crossing all subsystems."""

import numpy as np
import pytest

from repro import (
    LevelSpec,
    PfasstConfig,
    SDCStepper,
    TreeEvaluator,
    run_pfasst,
    spherical_vortex_sheet,
)
from repro.vortex import (
    DirectEvaluator,
    VortexProblem,
    get_kernel,
)
from repro.vortex.diagnostics import linear_impulse, total_vorticity
from repro.vortex.particles import ParticleSystem
from repro.vortex.sheet import SheetConfig
from support import reference_solution


@pytest.fixture(scope="module")
def setup():
    cfg = SheetConfig(n=250, sigma_over_h=4.0)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    return ps, cfg, kernel


class TestFullStack:
    def test_pfasst_tree_vs_sdc_direct(self, setup):
        """The paper's full pipeline vs the exact serial reference."""
        ps, cfg, kernel = setup
        u0 = ps.state()
        t_end, dt = 1.0, 0.5

        direct = VortexProblem(ps.volumes,
                               DirectEvaluator(kernel, cfg.sigma))
        ref = SDCStepper(direct, num_nodes=3, sweeps=8).run(
            u0, 0.0, t_end, dt
        )

        fine = VortexProblem(
            ps.volumes, TreeEvaluator(kernel, cfg.sigma, theta=0.3,
                                      leaf_size=32),
        )
        coarse = fine.with_evaluator(
            TreeEvaluator(kernel, cfg.sigma, theta=0.6, leaf_size=32)
        )
        pf = PfasstConfig(t0=0.0, t_end=t_end, n_steps=2, iterations=3)
        specs = [LevelSpec(fine, 3, 1), LevelSpec(coarse, 2, 2)]
        res = run_pfasst(pf, specs, u0, p_time=2)
        rel = np.max(np.abs(res.u_end[0] - ref[0])) / np.max(np.abs(ref[0]))
        assert rel < 5e-4  # tree-code approximation + finite iterations

    def test_pfasst_preserves_invariants(self, setup):
        ps, cfg, kernel = setup
        fine = VortexProblem(ps.volumes,
                             DirectEvaluator(kernel, cfg.sigma))
        pf = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=3)
        specs = [LevelSpec(fine, 3, 1), LevelSpec(fine, 2, 2)]
        res = run_pfasst(pf, specs, ps.state(), p_time=4)
        after = ps.with_state(res.u_end)
        drift_omega = np.linalg.norm(
            total_vorticity(after) - total_vorticity(ps)
        )
        assert drift_omega < 1e-8 * np.abs(ps.charges).sum()
        imp_before = linear_impulse(ps)
        imp_after = linear_impulse(after)
        assert np.linalg.norm(imp_after - imp_before) < \
            2e-3 * np.linalg.norm(imp_before)

    def test_tree_pfasst_multiblock_matches_singleblock(self, setup):
        """Blocks (P_T < n_steps) and one big block must agree once
        converged."""
        ps, cfg, kernel = setup
        fine = VortexProblem(ps.volumes,
                             DirectEvaluator(kernel, cfg.sigma))
        specs = [LevelSpec(fine, 3, 1), LevelSpec(fine, 2, 2)]
        pf = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=8)
        res_multi = run_pfasst(pf, specs, ps.state(), p_time=2)
        res_single = run_pfasst(pf, specs, ps.state(), p_time=4)
        assert np.allclose(res_multi.u_end, res_single.u_end, atol=1e-7)

    def test_rk_and_pfasst_same_flow(self, setup):
        ps, cfg, kernel = setup
        fine = VortexProblem(ps.volumes,
                             DirectEvaluator(kernel, cfg.sigma))
        ref = reference_solution(fine, ps.state(), 1.0)
        pf = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=4)
        specs = [LevelSpec(fine, 3, 1), LevelSpec(fine, 2, 2)]
        res = run_pfasst(pf, specs, ps.state(), p_time=4)
        rel = np.max(np.abs(res.u_end[0] - ref[0])) / np.max(np.abs(ref[0]))
        assert rel < 1e-4
