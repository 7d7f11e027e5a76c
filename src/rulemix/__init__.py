"""rulemix: batch regression with evolved interval rules and a
subset-selecting genetic algorithm.

Rules pair an axis-aligned interval condition with a ridge-fitted linear
submodel. An evolution strategy discovers rules one at a time around
high-residual training examples; a genetic algorithm composes a small subset
of the growing rule pool into the global model. Predictions mix the matching
selected rules, weighted by experience over in-sample error.
"""

from .composition import (
    CompositionParams,
    compose,
    crossover_npoint,
    evaluate_candidate,
    mutate_bits,
    rank_positions,
    tournament_select,
)
from .discovery import (
    DiscoveryParams,
    discover_rule,
    discover_rules,
    initial_condition,
    select_seed_example,
)
from .fitness import FitnessParams, candidate_fitness, combine, pseudo_accuracy, rule_fitness, volume_share
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
from .model import (
    Dataset,
    IntervalCondition,
    LinearSubmodel,
    Pool,
    Rule,
    RuleFitter,
    RulePredictionTable,
    SolutionCandidate,
    fit_rule,
    mixing_weight,
    solution_residuals,
)
from .training import Model, PhaseMetrics, TrainingConfig, fit

__version__ = "0.1.0"

__all__ = [
    "CompositionParams",
    "ConfigError",
    "DataError",
    "Dataset",
    "DiscoveryParams",
    "FitnessParams",
    "IntervalCondition",
    "LinearSubmodel",
    "Model",
    "ModelFormatError",
    "PhaseMetrics",
    "Pool",
    "Rule",
    "RuleFitter",
    "RulePredictionTable",
    "SolutionCandidate",
    "TrainingConfig",
    "candidate_fitness",
    "combine",
    "compose",
    "config_from_flat",
    "config_to_flat",
    "crossover_npoint",
    "discover_rule",
    "discover_rules",
    "evaluate_candidate",
    "fit",
    "fit_rule",
    "initial_condition",
    "load_config",
    "load_csv_with_names",
    "load_feature_matrix",
    "load_model",
    "mixing_weight",
    "mutate_bits",
    "pseudo_accuracy",
    "rank_positions",
    "rule_fitness",
    "save_model",
    "select_seed_example",
    "solution_residuals",
    "tournament_select",
    "volume_share",
]
