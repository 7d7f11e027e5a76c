"""Training loop alternating rule discovery and solution composition, plus
the resulting model with prediction and scoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .composition import CompositionParams, compose
from .discovery import DiscoveryParams, discover_rules
from .fitness import volume_share
from .model import DataError, Dataset, Pool, Rule, RulePredictionTable, SolutionCandidate, solution_residuals

# Optional early stop: quit when the best fitness improves by less than the
# tolerance for this many consecutive phases.
EARLY_STOP_TOLERANCE = 1e-6
EARLY_STOP_PHASES = 2


@dataclass(frozen=True)
class TrainingConfig:
    """All hyperparameters of a training run.

    Discovery and composition share one error-squashing ``beta``, so their
    fitness parameters must agree on it.
    """

    discovery: DiscoveryParams = field(default_factory=DiscoveryParams)
    composition: CompositionParams = field(default_factory=CompositionParams)
    n_phases: int = 8
    rng_seed: int = 0
    early_stop: bool = False

    def __post_init__(self):
        if self.n_phases < 1:
            raise ValueError("n_phases must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.discovery.fitness.beta != self.composition.fitness.beta:
            raise ValueError("discovery and composition fitness must share one beta")


@dataclass(frozen=True)
class PhaseMetrics:
    """Best-candidate statistics recorded at the end of one phase."""

    phase: int
    pool_size: int
    mse: float
    complexity: int
    best_fitness: float


@dataclass(frozen=True, eq=False)
class Model:
    """A trained model: the rule pool, the best rule subset, and the fallback
    prediction for inputs no selected rule matches.

    ``target_column`` and ``feature_names`` are optional metadata recorded
    when training ran from a CSV file.
    """

    pool: Pool
    best: SolutionCandidate
    default_prediction: float
    feature_bounds: np.ndarray
    config: TrainingConfig
    history: tuple[PhaseMetrics, ...]
    target_column: Optional[str] = None
    feature_names: Optional[tuple[str, ...]] = None

    @property
    def n_features(self) -> int:
        return self.feature_bounds.shape[0]

    def selected_rules(self) -> list[tuple[int, Rule]]:
        """The rules the best candidate selects, with their pool indices."""
        return [(int(i), self.pool[int(i)]) for i in np.flatnonzero(self.best.genome)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mixed prediction for each row of ``X``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected matrix with {self.n_features} columns, got shape {X.shape}")
        rules = [rule for _, rule in self.selected_rules()]
        table = RulePredictionTable.build(rules, X)
        return table.mixed(np.ones(len(rules), dtype=bool), self.default_prediction)

    def score(self, data: Dataset) -> dict[str, float]:
        """MSE, R^2, complexity, pool size, and mean selected-rule volume."""
        predictions = self.predict(data.features)
        errors = data.targets - predictions
        sse = float(np.sum(errors**2))
        sst = float(np.sum((data.targets - data.target_mean) ** 2))
        if sst > 0:
            r2 = 1.0 - sse / sst
        else:
            r2 = 1.0 if sse == 0 else 0.0
        volumes = [
            volume_share(rule.condition, self.feature_bounds)
            for _, rule in self.selected_rules()
        ]
        return {
            "mse": float(np.mean(errors**2)),
            "r2": r2,
            "complexity": float(self.best.cached_complexity),
            "pool_size": float(len(self.pool)),
            "mean_rule_volume": float(np.mean(volumes)) if volumes else 0.0,
        }


def _check_fittable(data: Dataset, ridge_lambda: float) -> None:
    """Raise :class:`DataError` for values whose sums a fit takes could
    overflow. Sums of n values stay within the largest float L when every
    magnitude is within L / n; squared n-row totals of deviations (of the
    targets, and of the features in ridge fits) when it is within sqrt(L) / 2n.
    """
    n, largest = data.n_samples, float(np.finfo(float).max)
    squared = np.sqrt(largest) / (2 * n)
    for name, values, limit in [
        ("features", data.feature_bounds, squared if ridge_lambda > 0 else largest / n),
        ("targets", data.targets, squared),
    ]:
        reach = float(np.max(np.abs(values)))
        if reach > limit:
            raise DataError(f"training {name} reach {reach:.3g}; a fit on {n} rows needs at most {limit:.3g}")


def fit(data: Dataset, config: TrainingConfig) -> Model:
    """Train a model by alternating discovery and composition phases.

    Residuals start from the all-default (target mean) prediction; each phase
    appends ``rules_per_phase`` newly discovered rules to the pool, so the
    pool is never empty when composition runs. It then re-composes with a
    warm-started population and refreshes the residuals from the new best
    candidate. With elitism and warm starts the per-phase best fitness is
    non-decreasing. Raises :class:`DataError` for values a fit cannot sum.
    """
    _check_fittable(data, config.discovery.ridge_lambda)
    rng = np.random.default_rng(config.rng_seed)
    pool = Pool()
    residuals = data.targets - data.target_mean

    population: Optional[Sequence[SolutionCandidate]] = None
    history: list[PhaseMetrics] = []
    stalled_phases = 0

    for phase in range(1, config.n_phases + 1):
        pool.extend(discover_rules(data, residuals, config.discovery, rng))
        best, population = compose(pool, data, config.composition, rng, population)
        residuals = solution_residuals(best, pool, data)
        history.append(
            PhaseMetrics(phase, len(pool), best.cached_mse, best.cached_complexity, best.cached_fitness)
        )
        if config.early_stop and len(history) >= 2:
            if history[-1].best_fitness - history[-2].best_fitness < EARLY_STOP_TOLERANCE:
                stalled_phases += 1
            else:
                stalled_phases = 0
            if stalled_phases >= EARLY_STOP_PHASES:
                break

    return Model(pool, best, data.target_mean, data.feature_bounds, config, tuple(history))
