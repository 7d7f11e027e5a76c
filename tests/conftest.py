import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

import rulemix.discovery
import rulemix.model
from rulemix import Dataset, Rule
from rulemix.discovery import _grown_bounds
from rulemix.model import MIXING_EPSILON


def linear_dataset(n=200, seed=0, noise=0.05, slope=2.0, intercept=1.0):
    """y = slope*x + intercept (+ gaussian noise) with x spanning [-1, 1]."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    y = slope * x[:, 0] + intercept
    if noise:
        y = y + rng.normal(0.0, noise, n)
    return Dataset(x, y)


def abs_dataset(n=400):
    """y = |x| with x spanning [-1, 1]; not globally linear."""
    x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    return Dataset(x, np.abs(x[:, 0]))


# Scalar reference formulas: the package scores whole arrays, and its bits
# must be these, entry by entry.


def reference_combine(o1, o2, alpha):
    """(1 + a^2) o1 o2 / (a^2 o1 + o2) of two [0, 1] objectives; 0 when both are 0."""
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


def reference_pseudo_accuracy(mse, beta):
    """exp(-mse * beta) of one mean squared error."""
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return math.exp(-mse * beta)


def reference_candidate_fitness(mse, complexity, pool_size, params):
    """Fitness of one candidate from its MSE and its rule count out of ``pool_size``."""
    if pool_size < 1:
        raise ValueError("pool_size must be positive")
    if complexity < 0:
        raise ValueError("complexity must be non-negative")
    if complexity > pool_size:
        raise ValueError(f"complexity {complexity} exceeds pool size {pool_size}")
    o1 = reference_pseudo_accuracy(mse, params.beta)
    o2 = 1.0 - complexity / pool_size
    return reference_combine(o1, o2, params.alpha)


def reference_mixing_weight(rule):
    """A rule's mixing weight: experience over (in-sample error + epsilon)."""
    return rule.experience / (rule.in_sample_error + MIXING_EPSILON)


def rules_equal(a: Rule, b: Rule) -> bool:
    return all(np.array_equal(getattr(a, field.name), getattr(b, field.name)) for field in fields(Rule))


def grow_condition(box, data, sigma, rng):
    """The ``(lower, upper)`` bounds of one growth-only mutation of ``box``,
    as discovery draws it."""
    lowers, uppers = _grown_bounds(*box, data, sigma, rng, 1)
    return lowers[0], uppers[0]


def stacked(boxes, d):
    """The (boxes x d) lower and upper bound stacks of the ``(lower, upper)``
    pairs ``boxes``."""
    lowers = np.array([lower for lower, _ in boxes], dtype=float).reshape(len(boxes), d)
    uppers = np.array([upper for _, upper in boxes], dtype=float).reshape(len(boxes), d)
    return lowers, uppers


def fit_boxes(fitter, boxes):
    """One rule per ``(lower, upper)`` box from one ``RuleFitter.fit`` call
    over their bound stacks, in order; fitness is left at 0."""
    fits = fitter.fit(*stacked(boxes, fitter.data.n_features))
    return [
        Rule(lower, upper, coefficients, intercept, count, error)
        for (lower, upper), count, coefficients, intercept, error in zip(boxes, *fits)
    ]


def rig_scorer(monkeypatch, score):
    """Make discovery score each box by ``score((lower, upper), iteration)``
    instead of the rule fitness. The iteration is the index of the scorer
    call: 0 for the seed, then one call per iteration for all its children."""
    iterations = itertools.count()

    def rigged(errors, lowers, uppers, feature_bounds, params):
        iteration = next(iterations)
        return np.array([score(box, iteration) for box in zip(lowers, uppers)])

    monkeypatch.setattr(rulemix.discovery, "rule_fitness", rigged)


def match_mask(box, X):
    """Plain-numpy oracle for one ``(lower, upper)`` box: the rows of ``X``
    inside it on every axis, both bounds inclusive."""
    lower, upper = (np.asarray(bound, dtype=float) for bound in box)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != lower.shape[0]:
        raise ValueError(f"expected matrix with {lower.shape[0]} columns, got shape {X.shape}")
    return np.all((lower <= X) & (X <= upper), axis=1)


def matches(box, x):
    """Whether the single input ``x`` lies in the ``(lower, upper)`` box."""
    return bool(match_mask(box, np.atleast_2d(x))[0])


def predict_one(rule, x):
    """Submodel prediction at the single input ``x``, matched or not."""
    return float(rule.intercept + rule.coefficients @ np.asarray(x, dtype=float))


def predict_mixed(candidate, pool, x, default):
    """Scalar oracle for the mixed prediction at one input ``x``: the
    mixing-weighted mean of the selected rules whose box holds ``x``, or
    ``default`` when none does (or their weights sum to zero)."""
    x = np.asarray(x, dtype=float)
    numerator = 0.0
    denominator = 0.0
    for index in np.flatnonzero(candidate.genome):
        rule = pool[index]
        if np.all(rule.lower <= x) and np.all(x <= rule.upper):
            w = reference_mixing_weight(rule)
            numerator += w * predict_one(rule, x)
            denominator += w
    if denominator <= 0.0:
        return float(default)
    return numerator / denominator


def mixed_table_oracle(rules, X, selected, default):
    """Plain-numpy oracle for ``RulePredictionTable.mixed``: the weighted
    masks and weighted predictions of the selected rules, formed per call
    and summed over rules in pool order, so its bits are the reference."""
    X = np.asarray(X, dtype=float)
    selected = np.asarray(selected, dtype=bool)
    masks = np.array([match_mask((rule.lower, rule.upper), X) for rule in rules]).reshape(len(rules), X.shape[0])
    predictions = np.array([X @ rule.coefficients + rule.intercept for rule in rules]).reshape(len(rules), X.shape[0])
    weights = np.array([reference_mixing_weight(rule) for rule in rules], dtype=float)
    weighted_masks = weights[selected, None] * masks[selected]
    denominator = weighted_masks.sum(axis=0)
    numerator = (weighted_masks * predictions[selected]).sum(axis=0)
    out = np.full(X.shape[0], float(default))
    np.divide(numerator, denominator, out=out, where=denominator > 0.0)
    return out


def rule_fit_oracle(data, lowers, uppers, ridge_lambda):
    """Plain-numpy oracle for the bits of ``RuleFitter.fit`` on non-empty
    boxes that share a row, with ``ridge_lambda > 0``. The row products of
    ``w = [1, x, y]`` (centered on the mean of the shared rows) form an
    explicit C-ordered (rows x products) matrix; the C-ordered (boxes x
    rows) masks times it, in row chunks of ``PRODUCT_FLOATS`` floats, give
    every box's sums. BLAS sums a matrix product in an order that depends on
    its operands' memory layout, so these bits pin the layout too. Returns
    (counts, coefficients, intercepts, errors)."""
    X, y = data.features, data.targets
    d = X.shape[1]
    masks = np.array([match_mask(box, X) for box in zip(lowers, uppers)])
    counts = masks.sum(axis=1)
    rows = np.flatnonzero(masks.any(axis=0))
    masks, X, y = np.ascontiguousarray(masks[:, rows]), X[rows], y[rows]
    shared = masks.all(axis=0)
    assert counts.all() and shared.any(), "the oracle fits non-empty boxes with a row in common"
    w = np.column_stack([np.ones(len(rows)), X, y])
    reference = w[shared].mean(axis=0)
    reference[0] = 0.0
    w -= reference
    upper_rows, upper_cols = np.triu_indices(d + 2)
    products = np.empty((len(rows), upper_rows.size))
    for k, (i, j) in enumerate(zip(upper_rows, upper_cols)):
        products[:, k] = w[:, i] * w[:, j]
    chunk = max(1, rulemix.model.PRODUCT_FLOATS // upper_rows.size)
    upper = np.zeros((len(masks), upper_rows.size))
    for start in range(0, len(rows), chunk):
        upper += masks[:, start : start + chunk].astype(float) @ products[start : start + chunk]
    sums = np.empty((len(masks), d + 2, d + 2))
    sums[:, upper_rows, upper_cols] = upper
    sums[:, upper_cols, upper_rows] = upper
    # Intercept eliminated: the scatter of [x, y] about each box's own mean.
    count = sums[:, 0, 0, None, None]
    totals = sums[:, 0, 1:]
    scatter = sums[:, 1:, 1:] - totals[:, :, None] * totals[:, None, :] / count
    gram, rhs = scatter[:, :d, :d], scatter[:, :d, d:]
    gram[:, range(d), range(d)] += ridge_lambda
    coefficients = np.linalg.solve(gram, rhs)[:, :, 0]
    box_means = totals / count[:, :, 0] + reference[1:]
    intercepts = box_means[:, d] - np.einsum("kd,kd->k", coefficients, box_means[:, :d])
    # Errors from real residuals, in the same row chunks; X.T is feature-major.
    errors = np.zeros(len(masks))
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        residuals = (coefficients @ X[part].T + intercepts[:, None] - y[part]) * masks[:, part]
        errors += np.einsum("kn,kn->k", residuals, residuals)
    return counts, coefficients, intercepts, errors / counts


def box_ridge(data, lower, upper, ridge_lambda):
    """Plain-numpy oracle for one box: ridge on the matched rows centered on
    their own mean (least squares when ``ridge_lambda`` is 0), intercept
    unpenalized. Returns (experience, coefficients, intercept, mse); an empty
    box gives (0, zeros, 0.0, inf)."""
    X, y = data.features, data.targets
    mask = np.all((np.asarray(lower) <= X) & (X <= np.asarray(upper)), axis=1)
    if not mask.any():
        return 0, np.zeros(X.shape[1]), 0.0, np.inf
    Xm, ym = X[mask], y[mask]
    x_mean, y_mean = Xm.mean(axis=0), ym.mean()
    Xc, yc = Xm - x_mean, ym - y_mean
    if ridge_lambda > 0:
        coefficients = np.linalg.solve(Xc.T @ Xc + ridge_lambda * np.eye(X.shape[1]), Xc.T @ yc)
    else:
        coefficients = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    intercept = y_mean - coefficients @ x_mean
    mse = np.mean((ym - Xm @ coefficients - intercept) ** 2)
    return int(mask.sum()), coefficients, float(intercept), float(mse)


@pytest.fixture
def square_dataset():
    """2-D features on a grid with a smooth nonlinear target."""
    rng = np.random.default_rng(123)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    y = X[:, 0] ** 2 + 0.5 * X[:, 1] + rng.normal(0.0, 0.02, 60)
    return Dataset(X, y)
