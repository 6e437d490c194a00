"""Joint uplink bandwidth/power scheduling under per-cell noise-rise budgets.

The package provides the optimal iterative water-filling solver, the
density-capped greedy schedulers, fixed-power and target-SINR baselines,
and a multi-cell Shannon-capacity simulator with a batch CLI.
"""

from .baselines import (
    CalibrationError,
    calibrate_fixed_power,
    schedule_fixed_power,
    schedule_target_sinr,
)
from .density import (
    RateAdaptation,
    schedule_density,
    schedule_density_capped,
    shannon_rate_adaptation,
)
from .model import (
    LN2,
    Allocation,
    NoiseRiseBudget,
    SolverConfig,
    UserLink,
    budget_watts,
    noise_rise_budget_from_db,
    normalized_interference,
    shannon_rate,
)
from .simnet import (
    ChannelConfig,
    Deployment,
    DeploymentConfig,
    MetricsBundle,
    PathLossParams,
    PFState,
    RunConfig,
    SchemeConfig,
    SimConfig,
    build_deployment,
    cost_hata_pl,
    quantize_allocation,
    run_simulation,
)
from .solver import (
    BandwidthStepResult,
    IterationRecord,
    NoTransmitterError,
    PowerStepResult,
    bandwidth_for_multiplier,
    bandwidth_step,
    kkt_residual,
    lambda2_bounds,
    objective,
    power_step,
    solve_dual,
    solve_joint,
)

__all__ = [
    "LN2",
    "Allocation",
    "BandwidthStepResult",
    "CalibrationError",
    "ChannelConfig",
    "Deployment",
    "DeploymentConfig",
    "IterationRecord",
    "MetricsBundle",
    "NoTransmitterError",
    "NoiseRiseBudget",
    "PFState",
    "PathLossParams",
    "PowerStepResult",
    "RateAdaptation",
    "RunConfig",
    "SchemeConfig",
    "SimConfig",
    "SolverConfig",
    "UserLink",
    "bandwidth_for_multiplier",
    "bandwidth_step",
    "budget_watts",
    "build_deployment",
    "calibrate_fixed_power",
    "cost_hata_pl",
    "kkt_residual",
    "lambda2_bounds",
    "noise_rise_budget_from_db",
    "normalized_interference",
    "objective",
    "power_step",
    "quantize_allocation",
    "run_simulation",
    "schedule_density",
    "schedule_density_capped",
    "schedule_fixed_power",
    "schedule_target_sinr",
    "shannon_rate",
    "shannon_rate_adaptation",
    "solve_dual",
    "solve_joint",
]

__version__ = "0.1.0"
