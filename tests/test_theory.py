"""Tests for the speedup/efficiency theory (paper Eqs. 24-26)."""

import numpy as np
import pytest

from repro.pfasst.theory import (
    alpha_from_measurements,
    efficiency_two_level,
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

    def test_speedup_consistency_with_closed_form(self):
        """Eq. 24 at the paper's Eq. 26 ``alpha_small = 2/(2.65*3)
        = 40/159``, Ks=4, Kp=2, nL=2, by hand: ``S = 4 P / (P 80/159
        + 2 (1 + 80/159)) = 636 P / (80 P + 478)``."""
        alpha_small = 2.0 / (2.65 * 3.0)
        by_hand = {2: 636 / 319, 8: 2544 / 559, 32: 10176 / 1519}
        for p, expected in by_hand.items():
            s = speedup_two_level(p, alpha_small, ks=4, kp=2, n_coarse=2)
            assert float(s) == pytest.approx(expected, rel=1e-14)


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
