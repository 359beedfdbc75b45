"""PFASST: parallel full approximation scheme in space and time."""

from repro.pfasst.level import Level, LevelSpec
from repro.pfasst.transfer import TimeSpaceTransfer
from repro.pfasst.fas import fas_correction
from repro.pfasst.controller import (
    PfasstConfig,
    PfasstResult,
    run_pfasst,
    pfasst_rank_program,
)
from repro.pfasst.checkpoint import (
    RunCheckpoint,
    RunCheckpointer,
    snapshot_levels,
    adopt_levels,
)
from repro.pfasst.theory import (
    PfasstCostModel,
    speedup_two_level,
    efficiency_two_level,
    speedup_bound,
    parareal_speedup,
    alpha_from_measurements,
    measured_cost_ratio,
    multi_level_speedup,
)
from repro.pfasst.analysis import (
    rk_stability,
    sdc_stability,
    sdc_sweep_matrices,
)

__all__ = [
    "Level",
    "LevelSpec",
    "TimeSpaceTransfer",
    "fas_correction",
    "PfasstConfig",
    "PfasstResult",
    "run_pfasst",
    "pfasst_rank_program",
    "RunCheckpoint",
    "RunCheckpointer",
    "snapshot_levels",
    "adopt_levels",
    "PfasstCostModel",
    "speedup_two_level",
    "efficiency_two_level",
    "speedup_bound",
    "parareal_speedup",
    "alpha_from_measurements",
    "measured_cost_ratio",
    "multi_level_speedup",
    "rk_stability",
    "sdc_stability",
    "sdc_sweep_matrices",
]
