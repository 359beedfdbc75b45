"""The tree RHS's bytes do not depend on the BLAS thread count.

``TreeEvaluator.field`` on the N=2048 start sheet (theta 0.3 and 0.6,
leaf 48), and one ``SDCStepper(num_nodes=3, sweeps=4)`` step of that
sheet over the theta 0.3 tree RHS, run in two subprocesses, under
``OPENBLAS_NUM_THREADS`` 1 and 2, and their digests must be equal.  The golden files use N <= 1000,
below the sizes where OpenBLAS splits a GEMM over threads, so they
cannot see this; here the near pass's GEMMs are the ones at stake (its
contractions keep K <= 48, and a GEMM that small runs on one thread
whatever the setting).  The far pass was byte-equal under both counts
before.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import hashlib
from repro.tree import TreeEvaluator
from repro.vortex import SheetConfig, get_kernel, spherical_vortex_sheet

cfg = SheetConfig(n=2048, sigma_over_h=3.0)
ps = spherical_vortex_sheet(cfg)
for theta in (0.3, 0.6):
    field = TreeEvaluator(
        get_kernel("algebraic6"), cfg.sigma, theta=theta, leaf_size=48
    ).field(ps.positions, ps.charges)
    h = hashlib.blake2b(digest_size=16)
    h.update(field.velocity.tobytes())
    h.update(field.gradient.tobytes())
    print(theta, h.hexdigest())
"""


SDC_STEP = """
import hashlib
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import (
    SheetConfig, VortexProblem, get_kernel, spherical_vortex_sheet,
)

cfg = SheetConfig(n=2048, sigma_over_h=3.0)
ps = spherical_vortex_sheet(cfg)
problem = VortexProblem(ps.volumes, TreeEvaluator(
    get_kernel("algebraic6"), cfg.sigma, theta=0.3, leaf_size=48
))
u_end = SDCStepper(problem, num_nodes=3, sweeps=4).step(0.0, 0.5, ps.state())
print(hashlib.blake2b(u_end.tobytes(), digest_size=16).hexdigest())
"""


def _digests(threads: int, program: str = PROGRAM) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout


def test_field_bytes_do_not_depend_on_blas_threads():
    one = _digests(1)
    assert one.count("\n") == 2
    assert _digests(2) == one


def test_sdc_step_does_not_depend_on_blas_threads():
    one = _digests(1, SDC_STEP)
    assert one.count("\n") == 1
    assert _digests(2, SDC_STEP) == one
