"""repro — a massively space-time parallel N-body solver.

Reproduction of Speck, Ruprecht, Krause, Emmett, Minion, Winkel & Gibbon,
"A massively space-time parallel N-body solver" (SC 2012): the PFASST
parallel-in-time integrator coupled to a Barnes-Hut tree code for a 3D
vortex particle method, with particle-based spatial coarsening via the
multipole acceptance criterion.

Quickstart::

    from repro import (PfasstConfig, SheetConfig, TreeEvaluator,
                       VortexProblem, paper_levels, run_pfasst,
                       spherical_vortex_sheet)

    sheet = SheetConfig(n=2000)
    particles = spherical_vortex_sheet(sheet)
    fine = VortexProblem(particles.volumes,
                         TreeEvaluator("algebraic6", sheet.sigma, theta=0.3))
    coarse = fine.coarsened(theta=0.6)  # MAC coarsening, shared tree
    config = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=2)
    specs = paper_levels(fine, coarse, "gauss-seidel")  # 3x1 / 2x2
    result = run_pfasst(config, specs, particles.state(), p_time=4)

Packages
--------
``repro.vortex``    vortex particle method (kernels, RHS, initial data)
``repro.tree``      Barnes-Hut tree code ("PEPC")
``repro.backends``  the tree engine's near-pass batch seam (serial NumPy)
                    and the e2e probe's thread-pool backend
``repro.sdc``       spectral deferred corrections, the one serial time
                    stepper (2 Lobatto nodes give forward Euler with 1
                    sweep and Heun's RK2 with 2)
``repro.pfasst``    PFASST parallel-in-time method and its speedup theory
``repro.parallel``  deterministic simulated MPI
"""

from repro.vortex import (
    ParticleSystem,
    SheetConfig,
    spherical_vortex_sheet,
    get_kernel,
    DirectEvaluator,
    VortexProblem,
)
from repro.tree import TreeEvaluator, build_octree
from repro.sdc import SDCStepper
from repro.pfasst import LevelSpec, PfasstConfig, paper_levels, run_pfasst

__version__ = "1.0.0"

__all__ = [
    "ParticleSystem",
    "SheetConfig",
    "spherical_vortex_sheet",
    "get_kernel",
    "DirectEvaluator",
    "VortexProblem",
    "TreeEvaluator",
    "build_octree",
    "SDCStepper",
    "LevelSpec",
    "PfasstConfig",
    "paper_levels",
    "run_pfasst",
    "__version__",
]
