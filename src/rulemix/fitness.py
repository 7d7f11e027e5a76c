"""Two-objective fitness: error squashing, interval volume share, and their
weighted combination for both rules and solution candidates. Each formula
takes scalars or arrays, and scores an array entry by entry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitnessParams:
    """``alpha`` weighs accuracy against the second objective, ``beta`` sets
    the slope of the error squashing. Both are positive, ``alpha`` has a
    finite square and ``beta`` is finite."""

    alpha: float = 0.5
    beta: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not math.isfinite(self.alpha * self.alpha):  # combine squares it
            limit = math.sqrt(np.finfo(float).max)
            raise ValueError(f"alpha must have a finite square, at most {limit:.4g}; got {self.alpha!r}")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")


def _refuse_first(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` about the first entry of ``values`` where ``bad`` holds."""
    if bad.any():
        raise ValueError(message.format(values[bad][0]))


def combine(o1: float | np.ndarray, o2: float | np.ndarray, alpha: float) -> float | np.ndarray:
    """Combine two [0, 1] objectives into (1 + a^2) o1 o2 / (a^2 o1 + o2),
    entry by entry for arrays of objectives.

    Reduces to o1 for alpha -> 0 and to o2 for alpha -> inf; equals the
    objectives on the diagonal. Gives 0 where both objectives are 0.
    """
    o1, o2 = np.asarray(o1, dtype=float), np.asarray(o2, dtype=float)
    _refuse_first(~((0.0 <= o1) & (o1 <= 1.0)), o1, "o1 must lie in [0, 1], got {}")
    _refuse_first(~((0.0 <= o2) & (o2 <= 1.0)), o2, "o2 must lie in [0, 1], got {}")
    a2 = alpha * alpha
    denominator = a2 * o1 + o2
    out = np.zeros(denominator.shape)
    np.divide((1.0 + a2) * o1 * o2, denominator, out=out, where=denominator != 0.0)
    return out[()]


def pseudo_accuracy(mse: float | np.ndarray, beta: float) -> float | np.ndarray:
    """Squash mean squared errors into [0, 1] via exp(-mse * beta)."""
    mse = np.asarray(mse, dtype=float)
    _refuse_first(mse < 0, mse, "mse must be non-negative")
    # math.exp, entry by entry: np.exp can differ from it in the last bit,
    # and every fitness lands in the model file.
    accuracies = (math.exp(-error * beta) for error in mse.ravel().tolist())
    return np.fromiter(accuracies, float, mse.size).reshape(mse.shape)[()]


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
    in-sample error ``errors[k]`` and its volume share."""
    return combine(pseudo_accuracy(errors, params.beta), volume_share(lowers, uppers, feature_bounds), params.alpha)


def candidate_fitness(
    mse: float | np.ndarray, complexity: int | np.ndarray, pool_size: int, params: FitnessParams
) -> float | np.ndarray:
    """Combined fitness of solution candidates from their in-sample MSE and
    the number of selected rules, normalized against the current pool size."""
    complexity = np.asarray(complexity)
    _refuse_first(complexity < 0, complexity, "complexity must be non-negative")
    _refuse_first(complexity > pool_size, complexity, f"complexity {{}} exceeds pool size {pool_size}")
    o1 = pseudo_accuracy(mse, params.beta)
    o2 = 1.0 - complexity / pool_size
    return combine(o1, o2, params.alpha)
