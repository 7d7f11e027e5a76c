"""Training loop alternating rule discovery and solution composition, plus
the resulting model with prediction and scoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .composition import CompositionParams, compose
from .discovery import DiscoveryParams, discover_rules
from .fitness import volume_share
from .model import DataError, Dataset, Rule, RulePredictionTable, SolutionCandidate
from .model import rule_bounds, solution_residuals

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
    when training ran from a CSV file. A model checks the relations between
    its parts when it is built, ``dataclasses.replace`` included, and raises
    ``ValueError`` naming the part that breaks one:

    - ``feature_bounds`` is a non-empty (d x 2) stack of finite ``[min,
      max]`` pairs with min <= max;
    - every pool rule spans d features;
    - no pool rule is degenerate;
    - the best genome has one bit per pool rule;
    - ``target_column`` is ``None`` or a ``str``;
    - ``feature_names`` is ``None`` or a tuple of d strings.

    The model keeps the pool as a tuple and ``feature_bounds`` as a
    read-only array, so none of these relations breaks after it is built.
    """

    pool: tuple[Rule, ...]
    best: SolutionCandidate
    default_prediction: float
    feature_bounds: np.ndarray
    config: TrainingConfig
    history: tuple[PhaseMetrics, ...]
    target_column: Optional[str] = None
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        try:
            bounds = np.array(self.feature_bounds, dtype=float)
        except ValueError:  # rows of unequal length
            bounds = np.empty(0)
        if bounds.ndim != 2 or bounds.shape[1] != 2 or not bounds.size:
            raise ValueError("feature_bounds must be a non-empty (d x 2) stack of [min, max] pairs")
        if not np.isfinite(bounds).all() or (bounds[:, 0] > bounds[:, 1]).any():
            raise ValueError("feature_bounds must hold finite [min, max] pairs with min <= max")
        d = bounds.shape[0]
        pool = tuple(self.pool)
        for k, rule in enumerate(pool):
            if rule.lower.shape != (d,):
                raise ValueError(f"rule {k} vectors must have length {d}")
            if rule.is_degenerate:
                raise ValueError(f"rule {k} is degenerate (experience 0)")
        if self.best.genome.shape != (len(pool),):
            raise ValueError(f"best genome length {self.best.genome.size} does not match pool size {len(pool)}")
        if not isinstance(self.target_column, (str, type(None))):
            raise ValueError(f"target_column must be None or a str, got {self.target_column!r}")
        names = self.feature_names
        if names is not None and not (
            isinstance(names, tuple) and len(names) == d and all(isinstance(name, str) for name in names)
        ):
            raise ValueError(f"feature_names must be None or a tuple of {d} strings, got {names!r}")
        bounds.flags.writeable = False
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "feature_bounds", bounds)

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
        return table.mixed(np.ones((1, len(rules))), self.default_prediction)[0]

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
        rules = [rule for _, rule in self.selected_rules()]
        volumes = volume_share(*rule_bounds(rules, self.n_features), self.feature_bounds)
        return {
            "mse": float(np.mean(errors**2)),
            "r2": r2,
            "complexity": float(self.best.cached_complexity),
            "pool_size": float(len(self.pool)),
            "mean_rule_volume": float(np.mean(volumes)) if rules else 0.0,
        }


def _check_fittable(data: Dataset) -> None:
    """Raise :class:`DataError` for values whose sums a fit takes could
    overflow. Squared n-row totals of deviations of the features and of the
    targets stay within the largest float L when every magnitude is within
    sqrt(L) / 2n.
    """
    n = data.n_samples
    limit = np.sqrt(np.finfo(float).max) / (2 * n)
    for name, values in [("features", data.feature_bounds), ("targets", data.targets)]:
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
    non-decreasing. Raises :class:`DataError` for values a fit cannot sum,
    and when a fitted slope exceeds the float range.
    """
    _check_fittable(data)
    rng = np.random.default_rng(config.rng_seed)
    pool: tuple[Rule, ...] = ()
    residuals = data.targets - data.target_mean

    genomes: Optional[np.ndarray] = None
    history: list[PhaseMetrics] = []
    stalled_phases = 0

    for phase in range(1, config.n_phases + 1):
        pool += tuple(discover_rules(data, residuals, config.discovery, rng))
        best, genomes = compose(pool, data, config.composition, rng, genomes)
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
