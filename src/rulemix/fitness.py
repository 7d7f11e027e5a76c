"""Two-objective fitness: error squashing, interval volume share, and their
weighted combination for both rules and solution candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitnessParams:
    """``alpha`` weighs accuracy against the second objective, ``beta`` sets
    the slope of the error squashing."""

    alpha: float = 0.5
    beta: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def combine(o1: float, o2: float, alpha: float) -> float:
    """Combine two [0, 1] objectives into (1 + a^2) o1 o2 / (a^2 o1 + o2).

    Reduces to o1 for alpha -> 0 and to o2 for alpha -> inf; equals the
    objectives on the diagonal. Returns 0 when both objectives are 0.
    """
    if not 0.0 <= o1 <= 1.0:
        raise ValueError(f"o1 must lie in [0, 1], got {o1}")
    if not 0.0 <= o2 <= 1.0:
        raise ValueError(f"o2 must lie in [0, 1], got {o2}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a2 = alpha * alpha
    denominator = a2 * o1 + o2
    if denominator == 0.0:
        return 0.0
    return (1.0 + a2) * o1 * o2 / denominator


def pseudo_accuracy(mse: float, beta: float) -> float:
    """Squash a mean squared error into (0, 1] via exp(-mse * beta)."""
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return math.exp(-mse * beta)


def volume_share(lowers: np.ndarray, uppers: np.ndarray, feature_bounds: np.ndarray) -> np.ndarray:
    """Per box of the (boxes x d) bound stacks, the fraction of the observed
    feature box it covers; one box given as two d-vectors gets one share.

    Product over dimensions of (upper - lower) / (max - min); a zero-width
    feature dimension carries no generality information and contributes
    factor 1. Assumes the boxes are already clipped to the bounds.
    """
    feature_bounds = np.asarray(feature_bounds, dtype=float)
    spans = uppers - lowers
    ranges = feature_bounds[:, 1] - feature_bounds[:, 0]
    positive = ranges > 0
    factors = np.where(positive, spans / np.where(positive, ranges, 1.0), 1.0)
    return np.prod(factors, axis=-1)


def rule_fitness(
    errors: np.ndarray, lowers: np.ndarray, uppers: np.ndarray, feature_bounds: np.ndarray, params: FitnessParams
) -> np.ndarray:
    """Per box of the (boxes x d) bound stacks, the combined fitness of its
    in-sample error ``errors[k]`` and its volume share.

    Each box is scored by the scalar :func:`pseudo_accuracy` and
    :func:`combine`, so its bits are those of the one-box formulas
    (``np.exp`` can differ from ``math.exp`` in the last bit). An empty box
    carries infinite error, whose accuracy is 0, so it scores 0.
    """
    accuracies = [pseudo_accuracy(error, params.beta) for error in np.asarray(errors).tolist()]
    volumes = volume_share(lowers, uppers, feature_bounds).tolist()
    return np.array([combine(o1, o2, params.alpha) for o1, o2 in zip(accuracies, volumes)], dtype=float)


def candidate_fitness(mse: float, complexity: int, pool_size: int, params: FitnessParams) -> float:
    """Combined fitness of a solution candidate from its in-sample MSE and
    the number of selected rules, normalized against the current pool size."""
    if pool_size < 1:
        raise ValueError("pool_size must be positive")
    if complexity < 0:
        raise ValueError("complexity must be non-negative")
    if complexity > pool_size:
        raise ValueError(f"complexity {complexity} exceeds pool size {pool_size}")
    o1 = pseudo_accuracy(mse, params.beta)
    o2 = 1.0 - complexity / pool_size
    return combine(o1, o2, params.alpha)
