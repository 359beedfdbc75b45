"""Tests for the command-line interface."""

import numpy as np
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

    def test_sheet_rk2_direct(self, capsys):
        code = main(["sheet", "-n", "80", "--method", "rk2",
                     "--evaluator", "direct", "--t-end", "0.5",
                     "--dt", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fine RHS evaluations: 2" in out
        assert "enstrophy" in out

    def test_sheet_pfasst_reports_alpha(self, capsys):
        code = main(["sheet", "-n", "80", "--method", "pfasst",
                     "--t-end", "1.0", "--dt", "0.5", "--p-time", "2"])
        assert code == 0
        assert "measured alpha" in capsys.readouterr().out

    def test_sheet_save(self, tmp_path, capsys):
        target = tmp_path / "final.npz"
        code = main(["sheet", "-n", "60", "--method", "euler",
                     "--evaluator", "direct", "--t-end", "0.5",
                     "--dt", "0.5", "--save", str(target)])
        assert code == 0
        from repro.io import load_particles

        ps, time, _ = load_particles(target)
        assert ps.n == 60
        assert time == 0.5

    def test_speedup_small(self, capsys):
        code = main(["speedup", "-n", "100", "--steps", "2",
                     "--p-times", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "theory" in out

    def test_speedup_cost_ratio_times_every_measured_state(self):
        """The alpha behind ``repro speedup`` is a mean over computed
        evaluations: no measured state may be a field-memo hit."""
        from repro.cli import _measured_cost_ratio
        from repro.tree import TreeEvaluator
        from repro.vortex import VortexProblem, spherical_vortex_sheet
        from repro.vortex.sheet import SheetConfig

        sheet = SheetConfig(n=100, sigma_over_h=3.0)
        ps = spherical_vortex_sheet(sheet)
        fine = VortexProblem(
            ps.volumes, TreeEvaluator("algebraic6", sheet.sigma, theta=0.3)
        )
        coarse = fine.coarsened(theta=0.6)
        ratio = _measured_cost_ratio(fine, coarse, ps.state(), samples=4)
        for problem in (fine, coarse):
            assert problem.evaluator.timer.count == 4
            assert problem.evaluator.calls == 4
        assert ratio > 0
