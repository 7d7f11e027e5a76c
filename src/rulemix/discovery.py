"""Rule discovery: a (1+lambda) evolution strategy that seeds an interval on
a high-residual training example and grows it until fitness stalls."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitness import FitnessParams, rule_fitness
from .model import Dataset, Rule, RuleFitter


@dataclass(frozen=True)
class DiscoveryParams:
    """Evolution-strategy settings for discovering a single rule.

    ``lambda_`` children are generated per iteration; the search stops when
    the elitist from ``delta`` iterations ago still beats every later elitist,
    once the parent matches every example, or after ``max_iter``
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
        if not 0 < self.mutation_sigma < math.inf:
            raise ValueError("mutation_sigma must be finite and positive")
        if not 0 < self.sigma_init < math.inf:
            raise ValueError("sigma_init must be finite and positive")
        if self.rules_per_phase < 1:
            raise ValueError("rules_per_phase must be at least 1")
        if not 0 <= self.ridge_lambda < math.inf:
            raise ValueError("ridge_lambda must be finite and non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def select_seed_example(data: Dataset, residuals: np.ndarray, rng: np.random.Generator) -> int:
    """Roulette-wheel pick of a training example, weighted by squared residual.

    Falls back to a uniform pick when every residual is zero.
    """
    residuals = np.asarray(residuals, dtype=float)
    weights = residuals**2
    total = weights.sum()
    if total <= 0.0:
        return int(rng.integers(0, data.n_samples))
    return int(rng.choice(data.n_samples, p=weights / total))


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
    the observed bounds, which an infinite scale reaches."""
    bounds = data.feature_bounds
    with np.errstate(over="ignore"):
        scale = sigma * (bounds[:, 1] - bounds[:, 0])
    extents = np.abs(rng.normal(0.0, scale, size=(count, 2, lower.shape[0])))
    lowers = np.maximum(lower - extents[:, 0, :], bounds[:, 0])
    uppers = np.minimum(upper + extents[:, 1, :], bounds[:, 1])
    return lowers, uppers


def fit_rule(fitter: RuleFitter, lowers: np.ndarray, uppers: np.ndarray, params: DiscoveryParams) -> Rule:
    """The fittest box of the (boxes x d) bound stacks as a :class:`Rule`
    (the first of a tie): one ``fitter.fit`` call fits them all and one
    ``rule_fitness`` call scores them."""
    counts, coefficients, intercepts, errors = fitter.fit(lowers, uppers)
    fitnesses = rule_fitness(errors, lowers, uppers, fitter.data.feature_bounds, params.fitness)
    k = int(np.argmax(fitnesses))
    return Rule(lowers[k], uppers[k], coefficients[k], intercepts[k], counts[k], errors[k], fitnesses[k])


def discover_rule(
    data: Dataset,
    residuals: np.ndarray,
    params: DiscoveryParams,
    rng: np.random.Generator,
) -> Rule:
    """Evolve one rule and return the elitist the stall window settles on.

    One :class:`RuleFitter` serves the whole search, and every rule comes
    out of the same fit-and-pick step: the seed as a one-box stack, then
    each iteration's ``lambda_`` mutated children as one stack, of which
    only the fittest (the first of a tie), that iteration's elitist, becomes
    a :class:`Rule`. The parent is replaced only when strictly improved
    (plus-selection). The search stops once the elitist from ``delta``
    iterations ago is strictly fitter than every elitist since, returning
    that elitist; after ``max_iter`` iterations, or once the parent matches
    every example, the best elitist seen wins.
    """
    fitter = RuleFitter(data, params.ridge_lambda)
    # The seed box is the seed row grown once, so it holds that row, and
    # children only grow their parent: every rule this search fits matches
    # at least one example.
    seed = data.features[select_seed_example(data, residuals, rng)]
    parent = fit_rule(fitter, *_grown_bounds(seed, seed, data, params.sigma_init, rng, 1), params)

    elitists = [parent]
    for iteration in range(1, params.max_iter + 1):
        # Growth clips every bound to the feature box, so a parent that
        # matches every example spans it and breeds only copies of equal
        # fitness: the stall window can never fire and the best elitist is final.
        if parent.experience == data.n_samples:
            break
        lowers, uppers = _grown_bounds(parent.lower, parent.upper, data, params.mutation_sigma, rng, params.lambda_)
        best_child = fit_rule(fitter, lowers, uppers, params)
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
