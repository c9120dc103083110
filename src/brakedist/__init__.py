"""Per-driver brake response time distribution estimation.

Workflow: fit a population mixed-effects model of log response times on
multi-driver training data (``training.fit``), then, as events arrive
for one driver, predict that driver's coefficient offsets
(``driver.compute_blup``) and read the lognormal distribution of
potential response times at a short reference headway
(``pbrt.estimate_pbrt``). ``simgen`` provides the synthetic stand-in
for the training study and ``cli`` the command-line pipeline.
"""

from .driver import BlupResult, DriverMismatch, DriverState, add_observation, compute_blup
from .model import (
    ModelSpec,
    Observation,
    StimulusRegistry,
    TrainedModel,
    TrainingSet,
    UnknownStimulus,
    build_design,
    feature_row,
)
from .numerics import NotPositiveDefinite
from .pbrt import InvalidQuantile, PbrtEstimate, density_curve, estimate_pbrt, norm_quantile, percentile
from .simgen import SimConfig, default_config, generate
from .training import FitOptions, fit, load_model, log_likelihood, save_model

__version__ = "0.1.0"

__all__ = [
    "BlupResult",
    "DriverMismatch",
    "DriverState",
    "FitOptions",
    "InvalidQuantile",
    "ModelSpec",
    "NotPositiveDefinite",
    "Observation",
    "PbrtEstimate",
    "SimConfig",
    "StimulusRegistry",
    "TrainedModel",
    "TrainingSet",
    "UnknownStimulus",
    "add_observation",
    "build_design",
    "compute_blup",
    "default_config",
    "density_curve",
    "estimate_pbrt",
    "feature_row",
    "fit",
    "generate",
    "load_model",
    "log_likelihood",
    "norm_quantile",
    "percentile",
    "save_model",
]
