"""Vortex sheet roll-up — the paper's Fig. 1 scenario, with CSV output.

Evolves the spherical vortex sheet with second-order Runge-Kutta and
dt = 1 (the paper's visualisation run; Heun's RK2 is SDC on 2 Lobatto
nodes with 2 sweeps) and writes particle snapshots to
CSV files that any plotting tool can render: columns
``x, y, z, speed, |omega|``.  Particle size/colour in the paper's figure
correspond to the ``speed`` column.

Run:  python examples/vortex_sheet.py [out_dir]
"""

import csv
import pathlib
import sys

import numpy as np

from repro import SDCStepper, SheetConfig, spherical_vortex_sheet
from repro.vortex import DirectEvaluator, VortexProblem, get_kernel, unpack_state
from repro.vortex.diagnostics import compute_diagnostics
from repro.vortex.particles import ParticleSystem

N_PARTICLES = 1000
T_END = 10.0
DT = 1.0
SNAPSHOT_EVERY = 2.0


def write_snapshot(path: pathlib.Path, positions, velocity, vorticity):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "speed", "vorticity_mag"])
        speed = np.linalg.norm(velocity, axis=1)
        wmag = np.linalg.norm(vorticity, axis=1)
        for row in zip(positions[:, 0], positions[:, 1], positions[:, 2],
                       speed, wmag):
            writer.writerow([f"{v:.6e}" for v in row])


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "sheet_out")
    out_dir.mkdir(exist_ok=True)

    sheet = SheetConfig(n=N_PARTICLES, sigma_over_h=3.0)
    particles = spherical_vortex_sheet(sheet)
    kernel = get_kernel("algebraic6")
    evaluator = DirectEvaluator(kernel, sheet.sigma)
    problem = VortexProblem(particles.volumes, evaluator)
    rk2 = SDCStepper(problem, num_nodes=2, sweeps=2)  # Heun's RK2

    print(f"evolving N={N_PARTICLES} sheet to T={T_END} with RK2, dt={DT}")
    next_snapshot = [0.0]

    def callback(t: float, u: np.ndarray) -> None:
        if t + 1e-9 < next_snapshot[0]:
            return
        next_snapshot[0] += SNAPSHOT_EVERY
        x, w = unpack_state(u)
        field = evaluator.field(x, w * particles.volumes[:, None],
                                gradient=False)
        path = out_dir / f"sheet_t{t:05.1f}.csv"
        write_snapshot(path, x, field.velocity, w)
        ps = ParticleSystem(x, w, particles.volumes)
        d = compute_diagnostics(ps, time=t).as_dict()
        print(f"t={t:5.1f}  mean z={x[:, 2].mean():+.3f}  "
              f"max |u|={np.linalg.norm(field.velocity, axis=1).max():.3f}  "
              f"enstrophy={d['enstrophy']:.4f}  -> {path.name}")

    rk2.run(particles.state(), 0.0, T_END, DT, callback=callback)
    print(f"snapshots written to {out_dir}/")


if __name__ == "__main__":
    main()
