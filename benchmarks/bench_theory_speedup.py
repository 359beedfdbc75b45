"""Eqs. 24-26 — theoretical speedup/efficiency landscape.

Regenerates the theory curves of Fig. 8 (dashed lines) at the paper's
alpha values, the Eq. 25 bound, and the PFASST-vs-parareal efficiency
contrast the paper highlights (Ks/Kp vs 1/K).
"""

from __future__ import annotations

import sys
from typing import List

import numpy as np
import pytest

from common import format_table
from repro.pfasst.level import COARSE_SWEEPS
from repro.pfasst.theory import (KP, KS, efficiency_two_level, paper_alpha,
                                 paper_speedup, parareal_speedup,
                                 speedup_bound)

P_T = (1, 2, 4, 8, 16, 32, 64, 128)
ALPHA_SMALL = paper_alpha(2.65)  # paper Eq. 26
ALPHA_LARGE = paper_alpha(3.23)


def run_experiment():
    return {
        "p_t": list(P_T),
        "S_small": list(paper_speedup(np.array(P_T), ALPHA_SMALL)),
        "S_large": list(paper_speedup(np.array(P_T), ALPHA_LARGE)),
        "bound": list(speedup_bound(np.array(P_T), KS, KP)),
        "parareal_K2": list(parareal_speedup(np.array(P_T), ALPHA_SMALL, 2)),
        "eff_small": list(efficiency_two_level(np.array(P_T), ALPHA_SMALL,
                                               KS, KP, COARSE_SWEEPS)),
    }


@pytest.fixture(scope="module")
def theory():
    return run_experiment()


def test_paper_fig8_endpoints(theory):
    """At P_T = 32 the paper reads ~5x (small) and ~7x (large)."""
    idx = P_T.index(32)
    assert 4.0 < theory["S_small"][idx] < 7.0
    assert 5.5 < theory["S_large"][idx] < 8.5


def test_large_alpha_curve_above_small(theory):
    for s, l in zip(theory["S_small"][1:], theory["S_large"][1:]):
        assert l > s


def test_bound_respected(theory):
    for key in ("S_small", "S_large"):
        for s, b in zip(theory[key], theory["bound"]):
            assert s <= b + 1e-12


def test_efficiency_monotone_decreasing(theory):
    eff = theory["eff_small"]
    assert all(eff[i] >= eff[i + 1] - 1e-12 for i in range(len(eff) - 1))


def test_pfasst_exceeds_parareal_at_scale(theory):
    idx = P_T.index(128)
    assert theory["S_small"][idx] > theory["parareal_K2"][idx]


def test_benchmark_theory_eval(benchmark):
    p = np.arange(1, 4097)
    benchmark(lambda: paper_speedup(p, ALPHA_SMALL))


def main(argv: List[str]) -> None:
    t = run_experiment()
    rows = list(zip(t["p_t"], t["S_small"], t["S_large"], t["bound"],
                    t["parareal_K2"], t["eff_small"]))
    print("Eqs. 24-26 — theoretical speedup "
          f"(alpha_small={ALPHA_SMALL:.3f}, alpha_large={ALPHA_LARGE:.3f},"
          f" Ks={KS}, Kp={KP})")
    print(format_table(
        ["P_T", "S(alpha_small)", "S(alpha_large)", "Ks/Kp*P_T bound",
         "parareal K=2", "efficiency"], rows,
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
