"""rulemix: batch regression with evolved interval rules and a
subset-selecting genetic algorithm.

Rules pair an axis-aligned interval condition with a ridge-fitted linear
submodel. An evolution strategy discovers rules one at a time around
high-residual training examples; a genetic algorithm composes a small subset
of the growing rule pool into the global model. Predictions mix the matching
selected rules, weighted by experience over in-sample error.

The public names are the ones a user calls: :func:`fit` and the
:class:`Model` it returns, the configuration and model records, the errors,
and the file functions. Everything else (the rule fitter, the fitness
formulas, the genetic operators) is internal, and its module may change it.
"""

from .composition import CompositionParams
from .discovery import DiscoveryParams
from .fitness import FitnessParams
from .io import (
    ConfigError,
    DataError,
    ModelFormatError,
    config_from_flat,
    config_to_flat,
    load_config,
    load_csv_with_names,
    load_feature_matrix,
    load_model,
    save_model,
)
from .model import Dataset, Rule, SolutionCandidate
from .training import Model, PhaseMetrics, TrainingConfig, fit

__version__ = "0.1.0"

__all__ = [
    "CompositionParams",
    "ConfigError",
    "DataError",
    "Dataset",
    "DiscoveryParams",
    "FitnessParams",
    "Model",
    "ModelFormatError",
    "PhaseMetrics",
    "Rule",
    "SolutionCandidate",
    "TrainingConfig",
    "config_from_flat",
    "config_to_flat",
    "fit",
    "load_config",
    "load_csv_with_names",
    "load_feature_matrix",
    "load_model",
    "save_model",
]
