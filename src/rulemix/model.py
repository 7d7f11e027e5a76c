"""Core domain types: datasets, interval-matched linear rules, solution
candidates, and weighted mixing of rule predictions.

Rule fits, composition and prediction all find the rows a box matches with
one routine, :func:`match_masks`, which tests every box against one feature
column at a time; and all mixing goes through :meth:`RulePredictionTable.mixed`.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

# Added to a rule's in-sample error before inverting it as a mixing weight,
# so perfectly fitted rules do not divide by zero.
MIXING_EPSILON = 1e-6


class DataError(Exception):
    """Raised for missing, malformed, or unusable input data."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable training data with per-feature observed bounds.

    ``feature_bounds[i] = (min, max)`` over the training features. Rule
    conditions are clipped against these bounds and volume shares are
    normalized by them. ``target_mean`` is the fallback prediction for inputs
    no rule matches.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_bounds: np.ndarray = field(init=False)
    target_mean: float = field(init=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one row and one feature, got shape {features.shape}")
        if targets.shape != (n,):
            raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        bounds = np.column_stack([features.min(axis=0), features.max(axis=0)])
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_bounds", bounds)
        object.__setattr__(self, "target_mean", float(targets.mean()))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def match_masks(lowers: np.ndarray, uppers: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(boxes x rows) mask of the rows each box matches: box ``k`` spans
    ``lowers[k]`` to ``uppers[k]``, both (boxes x d) stacks, over the
    feature-major matrix ``columns`` (one row per feature).

    Every bound test reads one contiguous column, and all boxes are tested
    against it at once. The stacks must have one bound per column; that is
    not checked here.
    """
    masks = np.ones((lowers.shape[0], columns.shape[1]), dtype=bool)
    for j, column in enumerate(columns):
        masks &= lowers[:, j, None] <= column
        masks &= column <= uppers[:, j, None]
    return masks


@dataclass(frozen=True, eq=False)
class Rule:
    """A fitted rule: an axis-aligned box from ``lower`` to ``upper``, the
    local linear submodel ``intercept + coefficients . x`` fitted on the rows
    the box matches, and the statistics recorded at fit time. The fields, in
    order, are the keys of a rule in the model file.

    An input matches iff it lies inside the box on every axis, both bounds
    inclusive. ``experience`` is the number of training examples the box
    matched when the submodel was fitted and ``in_sample_error`` the
    submodel's MSE on exactly those examples. A rule with experience 0 is
    degenerate: it carries infinite error, any fitness assigns it 0, and
    a model's pool refuses it.
    """

    lower: np.ndarray
    upper: np.ndarray
    coefficients: np.ndarray
    intercept: float
    experience: int
    in_sample_error: float
    fitness: float = 0.0

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        coefficients = np.asarray(self.coefficients, dtype=float)
        if lower.ndim != 1 or not lower.shape == upper.shape == coefficients.shape:
            raise ValueError(
                "lower, upper and coefficients must be 1-D vectors of one length, "
                f"got shapes {lower.shape}, {upper.shape} and {coefficients.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("interval bounds must be finite")
        if (lower > upper).any():
            raise ValueError("lower bound exceeds upper bound")
        if not (np.isfinite(coefficients).all() and math.isfinite(self.intercept)):
            raise ValueError("submodel parameters must be finite")
        try:
            if isinstance(self.experience, (bool, np.bool_)):
                raise TypeError
            experience = operator.index(self.experience)
        except TypeError:
            raise ValueError(f"experience must be an integer count, got {self.experience!r}") from None
        if experience < 0:
            raise ValueError("experience must be non-negative")
        if not self.in_sample_error >= 0:
            raise ValueError("in_sample_error must be non-negative")
        if not 0.0 <= self.fitness <= 1.0:
            raise ValueError("fitness must lie in [0, 1]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "experience", experience)
        object.__setattr__(self, "in_sample_error", float(self.in_sample_error))
        object.__setattr__(self, "fitness", float(self.fitness))

    @property
    def is_degenerate(self) -> bool:
        return self.experience == 0


# Row products are built in row chunks of at most this many floats (32 MiB),
# so the memory a fit takes stays bounded however many rows the boxes match.
PRODUCT_FLOATS = 1 << 22


class RuleFitter:
    """Fits ridge submodels for many boxes over one dataset at once.

    Boxes come as (boxes x d) stacks of lower and upper bounds, and the fits
    come back as arrays, one row per box. Each box gets the ridge fit of its
    matched rows centered on their own mean, so the intercept is
    unpenalized. The sums behind every box's normal equations come from one
    matrix product of the boxes' match masks with per-row products of ``w =
    [1, x, y]``, taken over the rows some box matches; the boxes are then
    solved as one stack. That product reads two C-ordered operands: the
    (boxes x rows) masks and a (rows x products) scratch the row products
    are written into. BLAS sums a product in an order that depends on its
    operands' memory layout, so this layout is part of the fit's bits.

    With ``ridge_lambda > 0`` a box whose system is singular gets its
    minimum-norm solution; with ``ridge_lambda = 0`` every box does (least
    squares), which handles rank-deficient subsamples. Each box's error
    comes from real residuals of its submodel on its matched rows, never
    from those sums.

    The non-empty boxes of one call must share a matched row, as the
    children of a discovery iteration share their parent's seed row; a call
    whose non-empty boxes share none raises ``ValueError``. ``w`` is
    centered on the mean of the shared rows. A box containing those rows has
    a mean no farther from it than its own spread allows, so removing the
    box mean from the sums loses no more than a factor of
    rows-per-shared-row in precision.
    """

    def __init__(self, data: Dataset, ridge_lambda: float):
        self.data = data
        self.ridge_lambda = float(ridge_lambda)
        # Feature-major copy: each bound test reads one contiguous column.
        self._columns = np.ascontiguousarray(data.features.T)
        self._upper_rows, self._upper_cols = np.triu_indices(data.n_features + 2)
        # Where row i's products w[i] * w[i:] start among the upper triangle's.
        self._row_starts = np.flatnonzero(self._upper_rows == self._upper_cols)
        self._chunk = max(1, PRODUCT_FLOATS // self._upper_rows.size)

    def _chunks(self, n: int) -> Iterator[slice]:
        return (slice(start, start + self._chunk) for start in range(0, n, self._chunk))

    def fit(self, lowers: np.ndarray, uppers: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per box of the (boxes x d) bound stacks: the count of matched rows,
        the submodel's coefficients and intercept, and its mean squared error
        on those rows. An empty box gets count 0, zero coefficients and
        intercept, and infinite error, which every rule fitness scores 0.
        """
        masks = match_masks(lowers, uppers, self._columns)
        counts = masks.sum(axis=1)
        coefficients = np.zeros((counts.shape[0], self.data.n_features))
        intercepts = np.zeros(counts.shape[0])
        errors = np.full(counts.shape[0], np.inf)
        # Boxes that match every row share one fit of their own: BLAS sums a
        # box's row of the product in an order that depends on its batch, and
        # discovery stops at a parent spanning the whole feature box because
        # the copies it would breed score as it does.
        n = self._columns.shape[1]
        full = np.flatnonzero(counts == n)
        for fitted in (np.flatnonzero((counts > 0) & (counts < n)), full[:1]):
            if fitted.size:
                fits = self._fit_masks(masks.take(fitted, axis=0), counts[fitted])
                coefficients[fitted], intercepts[fitted], errors[fitted] = fits
        copies = np.arange(counts.shape[0])
        copies[full] = full[:1]
        return counts, coefficients[copies], intercepts[copies], errors[copies]

    def _fit_masks(self, masks: np.ndarray, matched: np.ndarray) -> tuple[np.ndarray, ...]:
        """Coefficients, intercepts and mean squared errors of the non-empty
        boxes whose match masks are ``masks`` and counts ``matched``."""
        # Only rows some box matches take part in the fits.
        rows = np.flatnonzero(masks.any(axis=0))
        masks = masks.take(rows, axis=1)
        X, y = self._columns[:, rows], self.data.targets[rows]
        coefficients, intercepts = self._ridge(masks, X, y)
        return coefficients, intercepts, self._squared_errors(masks, X, y, coefficients, intercepts) / matched

    def _ridge(self, masks: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ridge fits of non-empty boxes that share a row, given by ``masks``
        over the feature-major rows ``X`` and targets ``y``."""
        shared = masks.all(axis=0)
        if not shared.any():
            raise ValueError("the non-empty boxes of one fit must share a matched row")
        d = X.shape[0]
        w = np.empty((d + 2, X.shape[1]))
        w[0], w[1:-1], w[-1] = 1.0, X, y
        reference = w[:, shared].mean(axis=1)
        reference[0] = 0.0  # the leading row of ones stays ones
        w -= reference[:, None]
        upper = np.zeros((masks.shape[0], self._upper_rows.size))
        # Row-major (rows x products): the matrix product reads it C-ordered.
        scratch = np.empty((min(self._chunk, w.shape[1]), self._upper_rows.size))
        for rows in self._chunks(w.shape[1]):
            block = w[:, rows]
            products = scratch[: block.shape[1]]
            for i, start in enumerate(self._row_starts):
                np.multiply(block[i], block[i:], out=products[:, start : start + d + 2 - i].T)
            upper += masks[:, rows].astype(float) @ products
        sums = np.empty((masks.shape[0], d + 2, d + 2))
        sums[:, self._upper_rows, self._upper_cols] = upper
        sums[:, self._upper_cols, self._upper_rows] = upper
        # Eliminate the intercept explicitly: the scatter of [x, y] about the
        # box's own mean. Left to a pivoting solve, rows far from the
        # reference drown the penalty and the system can turn singular.
        count = sums[:, 0, 0, None, None]
        totals = sums[:, 0, 1:]
        scatter = sums[:, 1:, 1:] - totals[:, :, None] * totals[:, None, :] / count
        gram, rhs = scatter[:, :d, :d], scatter[:, :d, d:]
        if self.ridge_lambda == 0:
            # Minimum-norm solutions outright: a nearly singular Gram need not
            # make solve raise. pinv inverts singular values down to 1e-15 of
            # the largest; scaling each system exactly, by a power of two, to
            # a largest entry near 1 keeps those reciprocals finite next to
            # tiny features. A slope beyond the float range is refused below.
            exponents = -np.frexp(np.abs(gram).max(axis=(1, 2)))[1][:, None, None]
            with np.errstate(over="ignore", invalid="ignore"):
                coefficients = (np.linalg.pinv(np.ldexp(gram, exponents)) @ np.ldexp(rhs, exponents))[:, :, 0]
        else:
            diagonal = np.arange(d)
            gram[:, diagonal, diagonal] += self.ridge_lambda
            try:
                coefficients = np.linalg.solve(gram, rhs)[:, :, 0]
            except np.linalg.LinAlgError:  # the penalty rounded away next to large features
                systems = zip(gram, rhs[:, :, 0])
                coefficients = np.array([_solve_or_minimum_norm(*system) for system in systems])
        if not np.all(np.isfinite(coefficients)):
            raise DataError("a fitted slope exceeds the float range; scale the features or the targets")
        box_means = totals / count[:, :, 0] + reference[1:]
        intercepts = box_means[:, d] - np.einsum("kd,kd->k", coefficients, box_means[:, :d])
        return coefficients, intercepts

    def _squared_errors(
        self, masks: np.ndarray, X: np.ndarray, y: np.ndarray, coefficients: np.ndarray, intercepts: np.ndarray
    ) -> np.ndarray:
        """Per box, the sum of squared residuals over its matched rows."""
        total = np.zeros(masks.shape[0])
        for rows in self._chunks(X.shape[1]):
            residuals = coefficients @ X[:, rows]
            residuals += intercepts[:, None]
            residuals -= y[rows]
            residuals *= masks[:, rows]
            total += np.einsum("kn,kn->k", residuals, residuals)
        return total


def _solve_or_minimum_norm(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One box's solution; the minimum-norm one where its system is singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs


def fit_rule(lower: np.ndarray, upper: np.ndarray, data: Dataset, ridge_lambda: float) -> Rule:
    """Fit a ridge submodel on the subsample the box from ``lower`` to
    ``upper`` matches: the one-box call of :class:`RuleFitter`; fitness is
    left at 0."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    fits = RuleFitter(data, ridge_lambda).fit(lower[None], upper[None])
    (count,), (coefficients,), (intercept,), (error,) = fits
    return Rule(lower, upper, coefficients, intercept, count, error)


@dataclass(frozen=True, eq=False)
class SolutionCandidate:
    """Bit string selecting a subset of the pool, with cached evaluation."""

    genome: np.ndarray
    cached_mse: float
    cached_complexity: int
    cached_fitness: float

    def __post_init__(self):
        genome = np.array(self.genome, dtype=bool)
        if genome.ndim != 1:
            raise ValueError(f"genome must be a 1-D bit string, got shape {genome.shape}")
        if self.cached_complexity != int(genome.sum()):
            raise ValueError("cached_complexity must equal the genome popcount")
        object.__setattr__(self, "genome", genome)
        object.__setattr__(self, "cached_mse", float(self.cached_mse))
        object.__setattr__(self, "cached_complexity", int(self.cached_complexity))
        object.__setattr__(self, "cached_fitness", float(self.cached_fitness))


def rule_bounds(rules: Sequence[Rule], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rules x width) stacks of the rules' lower and upper bounds;
    (0 x d) stacks when there is no rule."""
    bounds = np.array([(rule.lower, rule.upper) for rule in rules] or np.empty((0, 2, d)))
    return bounds[:, 0], bounds[:, 1]


class RulePredictionTable:
    """Pre-weighted per-rule match masks and predictions over a fixed input
    matrix; mixes a whole stack of genomes in one matrix product.

    ``weighted_masks[k]`` is rule ``k``'s mixing weight on the rows it
    matches and 0 elsewhere; ``weighted_predictions[k]`` is that times the
    rule's prediction. Both are built once, so a mix only sums rows, and
    :meth:`mixed` sums them for every genome of a stack at once.
    """

    def __init__(self, weighted_masks: np.ndarray, weighted_predictions: np.ndarray):
        self.weighted_masks = weighted_masks
        self.weighted_predictions = weighted_predictions

    @classmethod
    def build(cls, rules: Sequence[Rule], X: np.ndarray) -> "RulePredictionTable":
        """The table of ``rules`` over the float (rows x d) matrix ``X``,
        whose width the caller has checked against the rules'. A rule's entry
        off its box is 0, also where its prediction overflows there, with no
        warning; a prediction that is not finite inside its box stays and
        raises a ``RuntimeWarning``."""
        masks = match_masks(*rule_bounds(rules, X.shape[1]), np.ascontiguousarray(X.T))
        predictions = np.zeros((len(rules), X.shape[0]), dtype=float)
        experience, errors = np.array([(rule.experience, rule.in_sample_error) for rule in rules]).reshape(-1, 2).T
        weights = experience / (errors + MIXING_EPSILON)
        weighted_masks = weights[:, None] * masks
        with np.errstate(over="ignore", invalid="ignore"):
            for k, rule in enumerate(rules):
                predictions[k] = X @ rule.coefficients + rule.intercept
            predictions *= weighted_masks
        # Off its box an entry is 0 * prediction: a 0 of the prediction's sign, or NaN where it overflowed.
        not_finite = ~np.isfinite(predictions)
        predictions[not_finite & ~masks] = 0.0
        if (not_finite & masks).any():
            warnings.warn("a rule's prediction is not finite on a row inside its box", RuntimeWarning, stacklevel=2)
        return cls(weighted_masks, predictions)

    def mixed(self, selections: np.ndarray, default: float) -> np.ndarray:
        """(genomes x rows) mixed predictions of the (genomes x rules) 0/1
        stack ``selections``; ``default`` where no selected rule matches.

        Every genome's sums come from one matrix product with the stack, and
        a product with a 0/1 factor is exact, so only the summation order
        sets the bits. A lone genome is mixed beside a copy of itself: BLAS
        sends a one-row product down another path whose sums differ in the
        last bits, and a genome's mix must not depend on its batch. The pad
        is a copy rather than zeros so that no 0 meets an infinite
        prediction and warns of an invalid value.
        """
        selections = np.asarray(selections)
        rules = self.weighted_masks.shape[0]
        if selections.ndim != 2 or selections.shape[1] != rules:
            raise ValueError(f"expected a stack of selections over {rules} rules, got shape {selections.shape}")
        m = selections.shape[0]
        stack = np.zeros((max(m, 2), rules))
        stack[:m] = selections
        stack[m:] = stack[0]
        denominator = (stack @ self.weighted_masks)[:m]
        out = (stack @ self.weighted_predictions)[:m]
        unmatched = ~(denominator > 0.0)
        denominator[unmatched] = 1.0
        out /= denominator
        out[unmatched] = default
        return out


def solution_residuals(candidate: SolutionCandidate, pool: tuple[Rule, ...], data: Dataset) -> np.ndarray:
    """Per-example residuals of the candidate's mixed prediction.

    Inputs matched by no selected rule fall back to the training-target mean,
    so an empty candidate leaves residuals centered on that mean.
    """
    table = RulePredictionTable.build(pool, data.features)
    return data.targets - table.mixed(candidate.genome[None], data.target_mean)[0]
