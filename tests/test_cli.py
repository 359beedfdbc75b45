"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_sheet_defaults(self):
        args = build_parser().parse_args(["sheet"])
        assert args.n == 400
        assert args.method == "sdc"

    def test_sheet_custom(self):
        args = build_parser().parse_args(
            ["sheet", "-n", "100", "--method", "pfasst", "--p-time", "2"]
        )
        assert args.n == 100
        assert args.method == "pfasst"
        assert args.p_time == 2

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sheet", "--method", "leapfrog"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "algebraic6" in out
        assert "pfasst" in out

    def test_sheet_sdc_direct(self, capsys):
        code = main(["sheet", "-n", "80", "--method", "sdc",
                     "--evaluator", "direct", "--t-end", "0.5",
                     "--dt", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fine RHS evaluations: 9 (" in out  # f(u0) + 4 sweeps x 2
        assert "enstrophy" in out

    def test_sheet_pfasst_reports_alpha(self, capsys):
        code = main(["sheet", "-n", "80", "--method", "pfasst",
                     "--t-end", "1.0", "--dt", "0.5", "--p-time", "2"])
        assert code == 0
        assert "measured alpha" in capsys.readouterr().out

    def test_sheet_save(self, tmp_path, capsys):
        target = tmp_path / "final.npz"
        code = main(["sheet", "-n", "60", "--method", "sdc",
                     "--evaluator", "direct", "--t-end", "0.5",
                     "--dt", "0.5", "--save", str(target)])
        assert code == 0
        from repro.io import load_particles

        ps, time = load_particles(target)
        assert ps.n == 60
        assert time == 0.5

    def test_speedup_small(self, capsys):
        code = main(["speedup", "-n", "100", "--steps", "2",
                     "--p-times", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "theory" in out

    def test_speedup_rejects_p_time_not_dividing_steps(self, capsys):
        # P_T values that do not divide the step count used to be
        # skipped without a word
        with pytest.raises(SystemExit) as exc_info:
            main(["speedup", "-n", "50", "--steps", "3"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--p-times [2, 4] do not divide --steps 3" in err

    def test_speedup_cost_ratio_times_every_measured_state(self):
        """The alpha behind ``repro speedup`` is a mean over computed
        evaluations: no measured state may be a field-memo hit."""
        from repro.pfasst.theory import COST_SAMPLES, measured_cost_ratio
        from repro.tree import TreeEvaluator
        from repro.vortex import VortexProblem, spherical_vortex_sheet
        from repro.vortex.sheet import SheetConfig

        sheet = SheetConfig(n=100, sigma_over_h=3.0)
        ps = spherical_vortex_sheet(sheet)
        fine = VortexProblem(
            ps.volumes, TreeEvaluator("algebraic6", sheet.sigma, theta=0.3)
        )
        coarse = fine.coarsened(theta=0.6)
        ratio = measured_cost_ratio(fine, coarse, ps.state())
        for problem in (fine, coarse):
            assert problem.evaluator.timer.count == COST_SAMPLES
            assert problem.evaluator.calls == COST_SAMPLES
        assert ratio > 0


#: fine RHS evaluations ``repro sheet -n 80 --t-end 1 --dt 0.5 --p-time 2``
#: makes per method (extra arguments, expected count)
SHEET_RHS_COUNTS = {
    "sdc": ([], 17),
    "pfasst": ([], 11),
    "pfasst-direct-diagonal": (["--evaluator", "direct", "--p-nodes", "3",
                                "--sweeper", "diagonal"], 19),
}


class TestSheet:
    @pytest.mark.parametrize("case", SHEET_RHS_COUNTS)
    def test_rhs_counts(self, case, capsys):
        extra, count = SHEET_RHS_COUNTS[case]
        code = main(["sheet", "-n", "80", "--t-end", "1", "--dt", "0.5",
                     "--p-time", "2", "--method", case.split("-")[0]]
                    + extra)
        assert code == 0
        assert f"fine RHS evaluations: {count} (" in capsys.readouterr().out

    def test_alpha_is_eq26_of_the_evaluators_mean_cost(self, capsys,
                                                       monkeypatch):
        """``measured alpha`` is (M_c / M_f) over the fine/coarse mean
        cost of the run's evaluators, not the bare coarse/fine cost."""
        from repro.tree import TreeEvaluator

        monkeypatch.setattr(
            TreeEvaluator, "mean_cost",
            property(lambda ev: 1.0 if ev.theta == 0.3 else 0.25),
        )
        code = main(["sheet", "-n", "80", "--t-end", "1", "--dt", "0.5",
                     "--p-time", "2", "--method", "pfasst"])
        assert code == 0
        # (2 / 3) / (1.0 / 0.25)
        assert "measured alpha: 0.167\n" in capsys.readouterr().out

    def test_alpha_is_measured_like_speedup_after_the_run(self, capsys,
                                                          monkeypatch):
        """``measured alpha`` comes from ``measured_cost_ratio`` (one
        computed state per sample, as in ``repro speedup``), called
        after the run's fine call count is printed."""
        import repro.pfasst

        counts = []

        def spy(fine, coarse, u0):
            counts.append(fine.evaluator.calls)
            return 4.0

        monkeypatch.setattr(repro.pfasst, "measured_cost_ratio", spy)
        code = main(["sheet", "-n", "80", "--t-end", "1", "--dt", "0.5",
                     "--p-time", "2", "--method", "pfasst"])
        assert code == 0
        out = capsys.readouterr().out
        assert counts == [11]
        assert "fine RHS evaluations: 11 (" in out
        assert "measured alpha: 0.167\n" in out
