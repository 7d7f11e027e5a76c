"""Rule discovery: a (1+lambda) evolution strategy that seeds an interval on
a high-residual training example and grows it until fitness stalls."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .fitness import FitnessParams, rule_fitness
from .model import Dataset, IntervalCondition, Rule, RuleFitter, fit_rule

# Signature of an injectable rule scorer: (fitted rule, iteration index) -> [0, 1].
# Iteration 0 is the seed individual.
FitnessFn = Callable[[Rule, int], float]


@dataclass(frozen=True)
class DiscoveryParams:
    """Evolution-strategy settings for discovering a single rule.

    ``lambda_`` children are generated per iteration; the search stops when
    the elitist from ``delta`` iterations ago still beats every later elitist,
    once the parent covers the whole feature box, or after ``max_iter``
    iterations. Mutation scales are relative to each feature's observed range.

    The default rule-fitness alpha leans toward accuracy (0.2): it keeps
    grown rules from overhanging regions their submodel fits poorly, which
    the mixed prediction cannot repair afterwards.
    """

    lambda_: int = 16
    delta: int = 5
    mutation_sigma: float = 0.05
    sigma_init: float = 0.1
    rules_per_phase: int = 4
    ridge_lambda: float = 0.01
    max_iter: int = 500
    fitness: FitnessParams = field(default_factory=lambda: FitnessParams(alpha=0.2))

    def __post_init__(self):
        if self.lambda_ < 1:
            raise ValueError("lambda_ must be at least 1")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.mutation_sigma <= 0:
            raise ValueError("mutation_sigma must be positive")
        if self.sigma_init <= 0:
            raise ValueError("sigma_init must be positive")
        if self.rules_per_phase < 1:
            raise ValueError("rules_per_phase must be at least 1")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def select_seed_example(data: Dataset, residuals: np.ndarray, rng: np.random.Generator) -> int:
    """Roulette-wheel pick of a training example, weighted by squared residual.

    Falls back to a uniform pick when every residual is zero.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape != (data.n_samples,):
        raise ValueError(f"residuals must have shape ({data.n_samples},), got {residuals.shape}")
    weights = residuals**2
    total = weights.sum()
    if total <= 0.0:
        return int(rng.integers(0, data.n_samples))
    return int(rng.choice(data.n_samples, p=weights / total))


def initial_condition(
    x: np.ndarray, data: Dataset, sigma_init: float, rng: np.random.Generator
) -> IntervalCondition:
    """The point box ``[x, x]`` grown once by ``_grown_bounds`` at scale
    ``sigma_init``. The result always matches ``x``."""
    x = np.asarray(x, dtype=float)
    lowers, uppers = _grown_bounds(x, x, data, sigma_init, rng, 1)
    return IntervalCondition(lowers[0], uppers[0])


def _grown_bounds(
    lower: np.ndarray,
    upper: np.ndarray,
    data: Dataset,
    sigma: float,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of ``count`` growth-only mutations: each bound moves outward by
    an independent halfnormal draw scaled to the feature range, clipped to
    the observed bounds."""
    bounds = data.feature_bounds
    scale = sigma * (bounds[:, 1] - bounds[:, 0])
    extents = np.abs(rng.normal(0.0, scale, size=(count, 2, lower.shape[0])))
    lowers = np.maximum(lower - extents[:, 0, :], bounds[:, 0])
    uppers = np.minimum(upper + extents[:, 1, :], bounds[:, 1])
    return lowers, uppers


def discover_rule(
    data: Dataset,
    residuals: np.ndarray,
    params: DiscoveryParams,
    rng: np.random.Generator,
    fitness_fn: Optional[FitnessFn] = None,
) -> Rule:
    """Evolve one rule and return the elitist the stall window settles on.

    Each iteration fits ``lambda_`` mutated children in one batch, records
    the best as that iteration's elitist, and replaces the parent only when
    strictly improved (plus-selection). The search stops once the elitist
    from ``delta`` iterations ago is strictly fitter than every elitist
    since, returning that elitist; after ``max_iter`` iterations, or once the
    parent spans the whole feature box, the best elitist seen wins.

    ``fitness_fn`` overrides the standard rule fitness; it must map into
    [0, 1] and exists so termination behavior can be exercised directly.
    """
    # An injected scorer may depend on the iteration, so only the standard
    # score lets the search stop at the full feature box.
    stop_at_full_box = fitness_fn is None
    bounds = data.feature_bounds
    if fitness_fn is None:

        def fitness_fn(rule: Rule, iteration: int) -> float:
            return rule_fitness(rule, bounds, params.fitness)

    def scored(rule: Rule, iteration: int) -> Rule:
        return replace(rule, fitness=float(fitness_fn(rule, iteration)))

    # The seed box holds its own row, and children only grow their parent,
    # so every rule this search fits matches at least one example.
    index = select_seed_example(data, residuals, rng)
    condition = initial_condition(data.features[index], data, params.sigma_init, rng)
    parent = scored(fit_rule(condition, data, params.ridge_lambda), 0)

    # Fits all children of an iteration at once.
    fitter = RuleFitter(data, params.ridge_lambda)

    elitists = [parent]
    for iteration in range(1, params.max_iter + 1):
        # A parent spanning the whole feature box breeds only copies of equal
        # fitness: the stall window can never fire and the best elitist is final.
        if (
            stop_at_full_box
            and np.array_equal(parent.condition.lower, bounds[:, 0])
            and np.array_equal(parent.condition.upper, bounds[:, 1])
        ):
            break
        lowers, uppers = _grown_bounds(
            parent.condition.lower,
            parent.condition.upper,
            data,
            params.mutation_sigma,
            rng,
            params.lambda_,
        )
        children = fitter.fit([IntervalCondition(lo, up) for lo, up in zip(lowers, uppers)])
        best_child = max((scored(child, iteration) for child in children), key=lambda rule: rule.fitness)
        elitists.append(best_child)
        if best_child.fitness > parent.fitness:
            parent = best_child
        if iteration >= params.delta:
            stalled = elitists[iteration - params.delta]
            window = elitists[iteration - params.delta + 1 :]
            if all(stalled.fitness > later.fitness for later in window):
                return stalled
    return max(elitists, key=lambda rule: rule.fitness)


def discover_rules(
    data: Dataset,
    residuals: np.ndarray,
    params: DiscoveryParams,
    rng: np.random.Generator,
) -> list[Rule]:
    """Run ``rules_per_phase`` independent discoveries on their own rng
    streams and return all ``rules_per_phase`` rules; each matches its seed
    example."""
    streams = rng.spawn(params.rules_per_phase)
    return [discover_rule(data, residuals, params, stream) for stream in streams]
