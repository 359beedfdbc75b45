"""Tests for the speedup/efficiency theory (paper Eqs. 21-25)."""

import numpy as np
import pytest

from repro.pfasst.theory import (
    PfasstCostModel,
    alpha_from_measurements,
    efficiency_two_level,
    multi_level_speedup,
    parareal_speedup,
    speedup_bound,
    speedup_two_level,
)


class TestAlpha:
    def test_paper_small_setup(self):
        """Eq. 26: alpha_small = 2 / (2.65 * 3)."""
        a = alpha_from_measurements(2, 3, 2.65)
        assert a == pytest.approx(2.0 / (2.65 * 3.0))

    def test_paper_large_setup(self):
        a = alpha_from_measurements(2, 3, 3.23)
        assert a == pytest.approx(2.0 / (3.23 * 3.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_from_measurements(0, 3, 2.0)
        with pytest.raises(ValueError):
            alpha_from_measurements(2, 3, 0.0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        """A non-finite ratio has no alpha (it would read as nan or 0)."""
        with pytest.raises(ValueError, match=f"got {ratio}"):
            alpha_from_measurements(2, 3, ratio)


class TestTwoLevelSpeedup:
    def test_bound_eq25_holds_everywhere(self):
        """S(P_T; alpha) <= Ks/Kp * P_T for any alpha (Eq. 25)."""
        p = np.array([1, 2, 4, 8, 16, 32, 64])
        for alpha in (0.05, 0.25, 1.0):
            s = speedup_two_level(p, alpha, ks=4, kp=2, n_coarse=2)
            assert np.all(s <= speedup_bound(p, 4, 2) + 1e-12)

    def test_smaller_alpha_is_faster(self):
        s_fast = speedup_two_level(16, 0.1, ks=4, kp=2, n_coarse=2)
        s_slow = speedup_two_level(16, 0.5, ks=4, kp=2, n_coarse=2)
        assert s_fast > s_slow

    def test_monotone_in_p(self):
        p = np.arange(1, 65)
        s = speedup_two_level(p, 0.25, ks=4, kp=2, n_coarse=2)
        assert np.all(np.diff(s) > 0)

    def test_asymptote(self):
        """S -> Ks / (nL alpha) as P_T -> infinity."""
        s = speedup_two_level(10**9, 0.25, ks=4, kp=2, n_coarse=2)
        assert s == pytest.approx(4.0 / (2 * 0.25), rel=1e-5)

    def test_beta_overhead_reduces_speedup(self):
        s0 = speedup_two_level(16, 0.25, 4, 2, 2, beta=0.0)
        s1 = speedup_two_level(16, 0.25, 4, 2, 2, beta=0.5)
        assert s1 < s0

    def test_efficiency_below_ks_over_kp(self):
        p = np.array([2, 8, 32])
        e = efficiency_two_level(p, 0.2, ks=4, kp=2, n_coarse=2)
        assert np.all(e <= 4 / 2 + 1e-12)
        assert np.all(e > 0)

    def test_paper_fig8_magnitudes(self):
        """Paper: ~5x (small) and ~7x (large) at P_T = 32."""
        alpha_small = alpha_from_measurements(2, 3, 2.65)
        alpha_large = alpha_from_measurements(2, 3, 3.23)
        s_small = speedup_two_level(32, alpha_small, ks=4, kp=2, n_coarse=2)
        s_large = speedup_two_level(32, alpha_large, ks=4, kp=2, n_coarse=2)
        assert 4.0 < s_small < 7.5
        assert 5.0 < s_large < 8.5
        assert s_large > s_small


class TestPararealContrast:
    def test_parareal_efficiency_bounded_by_inverse_k(self):
        p = np.array([4, 16, 64, 256])
        for k in (2, 3, 4):
            eff = parareal_speedup(p, 0.0, k) / p
            assert np.all(eff <= 1.0 / k + 1e-12)

    def test_pfasst_beats_parareal_bound(self):
        """With Ks=4, Kp=2 PFASST can exceed parareal's P/K ceiling."""
        p = 64
        pfasst = speedup_two_level(p, 0.05, ks=4, kp=2, n_coarse=2)
        parareal_ceiling = p / 2
        # PFASST's ceiling is Ks/Kp * P = 2P; check it exceeds P/K here
        assert speedup_bound(p, 4, 2) > parareal_ceiling


class TestCostModel:
    def test_serial_cost_eq21(self):
        m = PfasstCostModel(ks=4, kp=2, n_sweeps=[1, 2],
                            upsilon=[1.0, 0.2], gamma=[0.0, 0.0])
        assert m.serial_cost(8) == 8 * 4 * 1.0

    def test_parallel_cost_eq22(self):
        m = PfasstCostModel(ks=4, kp=2, n_sweeps=[1, 2],
                            upsilon=[1.0, 0.2], gamma=[0.1, 0.05])
        expected = 8 * 2 * 0.2 + 2 * (1 * (1.0 + 0.1) + 2 * (0.2 + 0.05))
        assert m.parallel_cost(8) == pytest.approx(expected)

    def test_speedup_consistency_with_closed_form(self):
        """Eq. 23 with gamma=0 reduces to Eq. 24."""
        alpha = 0.25
        m = PfasstCostModel(ks=4, kp=2, n_sweeps=[1, 2],
                            upsilon=[1.0, alpha], gamma=[0.0, 0.0])
        for p in (2, 8, 32):
            closed = speedup_two_level(p, alpha, 4, 2, 2)
            assert m.speedup(p) == pytest.approx(float(closed))

    def test_multi_level_speedup_matches_cost_model(self):
        n_sweeps, upsilon = [1, 1, 2], [1.0, 0.4, 0.1]
        m = PfasstCostModel(ks=4, kp=2, n_sweeps=n_sweeps,
                            upsilon=upsilon, gamma=[0.0] * 3)
        s = multi_level_speedup(16, 4, 2, n_sweeps, upsilon)
        assert float(s) == pytest.approx(m.speedup(16))

    def test_multi_level_speedup_vectorised_over_p(self):
        p = np.array([1, 4, 16, 64])
        s = multi_level_speedup(p, 4, 2, [1, 2], [1.0, 0.25])
        assert s.shape == p.shape
        assert np.array_equal(s, speedup_two_level(p, 0.25, 4, 2, 2))

    def test_multi_level_speedup_rejects_mismatched_levels(self):
        """Per-level sequences of different lengths are an error, not
        truncated to the shortest (which would read 3.64, not 2.86)."""
        with pytest.raises(ValueError, match="equal lengths"):
            multi_level_speedup(4, 4, 2, [1, 2], [1.0, 0.3], gamma=[0.0])
        with pytest.raises(ValueError, match="equal lengths"):
            multi_level_speedup(4, 4, 2, [1, 2], [1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="equal lengths"):
            PfasstCostModel(ks=4, kp=2, n_sweeps=[1], upsilon=[1.0, 0.2],
                            gamma=[0.0, 0.0])
        with pytest.raises(ValueError, match=">= 1"):
            PfasstCostModel(ks=0, kp=2, n_sweeps=[1], upsilon=[1.0],
                            gamma=[0.0])
