"""Generate the golden references the end-to-end benchmark verifies against.

For every entry of ``config.REFERENCES`` the spherical vortex sheet is
integrated with ``DirectEvaluator`` (exact O(N^2) summation) and
high-order SDC (5 Gauss-Lobatto nodes, 8 sweeps), once with
``dt = store_dt`` and once with ``dt = store_dt / 2``.  The finer run is
stored at every multiple of ``store_dt``; the largest relative max
position difference between the two runs is the self-convergence figure
and must stay below ``SELF_CONVERGENCE_MAX`` or nothing is written.

    python benchmarks/e2e/make_reference.py [KEY ...]

The references are committed; regenerate them only when the pinned
physics changes (the digest in their metadata then changes with it and
``run.py`` refuses the stale files).
"""

from __future__ import annotations

import json
import sys
import time

import config

sys.path.insert(0, str(config.SRC_DIR))

import numpy as np  # noqa: E402

from repro.sdc import SDCStepper  # noqa: E402
from repro.vortex import (  # noqa: E402
    DirectEvaluator,
    SheetConfig,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)

NUM_NODES = 5
SWEEPS = 8
SELF_CONVERGENCE_MAX = 1.0e-6


def rel_max_position_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    return float(np.max(np.abs(u[0] - u_ref[0])) / np.max(np.abs(u_ref[0])))


def integrate(n: int, t_end: float, dt: float, store_every: int) -> np.ndarray:
    """States at every ``store_every``-th step of an SDC run."""
    phys = config.PHYSICS
    cfg = SheetConfig(n=n, radius=phys["radius"],
                      sigma_over_h=phys["sigma_over_h"],
                      placement=phys["placement"])
    sheet = spherical_vortex_sheet(cfg)
    problem = VortexProblem(
        sheet.volumes, DirectEvaluator(get_kernel(phys["kernel"]), cfg.sigma),
        scheme=phys["stretching"],
    )
    stepper = SDCStepper(problem, num_nodes=NUM_NODES, sweeps=SWEEPS)
    stored = []
    step = [0]

    def keep(t: float, u: np.ndarray) -> None:
        if step[0] and step[0] % store_every == 0:
            stored.append(u.copy())
        step[0] += 1

    stepper.run(sheet.state(), 0.0, t_end, dt, callback=keep)
    return np.stack(stored)


def generate(key: str) -> None:
    grid = config.REFERENCES[key]
    n, t_end, store_dt = grid["n"], grid["t_end"], grid["store_dt"]
    t0 = time.perf_counter()
    coarse = integrate(n, t_end, store_dt, 1)
    fine = integrate(n, t_end, store_dt / 2.0, 2)
    self_conv = max(
        rel_max_position_error(a, b) for a, b in zip(coarse, fine)
    )
    if not self_conv <= SELF_CONVERGENCE_MAX:
        raise SystemExit(
            f"reference {key}: self-convergence {self_conv:.3e} exceeds "
            f"{SELF_CONVERGENCE_MAX:.1e}; not written"
        )
    times = store_dt * np.arange(1, fine.shape[0] + 1)
    meta = {
        "digest": config.reference_digest(key),
        "physics": config.PHYSICS,
        "grid": grid,
        "integrator": {"evaluator": "direct", "num_nodes": NUM_NODES,
                       "sweeps": SWEEPS, "dt": store_dt / 2.0},
        "self_convergence_rel": self_conv,
        "numpy": np.__version__,
    }
    config.REFERENCE_DIR.mkdir(exist_ok=True)
    path = config.REFERENCE_DIR / f"sheet_{key}.npz"
    np.savez_compressed(
        path, times=times, states=fine,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                           dtype=np.uint8),
    )
    print(f"{path.name}: {fine.shape[0]} states, self-convergence "
          f"{self_conv:.3e}, {time.perf_counter() - t0:.1f} s")


def main(argv) -> int:
    keys = argv or list(config.REFERENCES)
    for key in keys:
        if key not in config.REFERENCES:
            print(f"unknown reference {key!r}; valid: "
                  f"{', '.join(config.REFERENCES)}", file=sys.stderr)
            return 2
        generate(key)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
