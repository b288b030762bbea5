"""Simulator and analysis toolkit for time-bin entangled photon-pair sources.

The package splits along the physics into five modules: closed forms, the
two-photon sector probabilities and the counting statistics (`analytic`), a
seeded event-stream Monte Carlo (`montecarlo`), estimators (`fitting`),
experiment description (`params`), and a CLI (`cli`).
"""

__version__ = "0.9.1"

from .analytic import (
    PairStatistics,
    PhasePair,
    car_closed_form,
    estimate_gamma,
    expected_histogram,
    ideal_visibility,
    predicted_visibility,
    pump_power_for_mu,
    sector_probabilities,
)
from .fitting import (
    FringeFit,
    ScalingFit,
    fit_fringe,
    fit_scaling,
    proportional_fit,
)
from .montecarlo import (
    CarCurveRow,
    CarEstimate,
    CoincidenceHistogram,
    InsufficientStatisticsError,
    car_curve,
    estimate_car,
    simulate_car_run,
    simulate_fringe_run,
    simulate_fringe_sweep,
)
from .params import (
    ChannelParams,
    ExperimentConfig,
    SourceParams,
    config_from_dict,
    config_to_dict,
    dark_per_slot,
    default_config,
    effective_alpha,
    validate_config,
)

__all__ = [
    "__version__",
    "PairStatistics",
    "car_closed_form",
    "estimate_gamma",
    "expected_histogram",
    "predicted_visibility",
    "pump_power_for_mu",
    "FringeFit",
    "ScalingFit",
    "fit_fringe",
    "fit_scaling",
    "proportional_fit",
    "CarCurveRow",
    "CarEstimate",
    "CoincidenceHistogram",
    "InsufficientStatisticsError",
    "car_curve",
    "estimate_car",
    "simulate_car_run",
    "simulate_fringe_run",
    "simulate_fringe_sweep",
    "ChannelParams",
    "ExperimentConfig",
    "SourceParams",
    "config_from_dict",
    "config_to_dict",
    "dark_per_slot",
    "default_config",
    "effective_alpha",
    "validate_config",
    "PhasePair",
    "ideal_visibility",
    "sector_probabilities",
]
