import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulemix.model
from rulemix import Dataset, Model, Rule, SolutionCandidate, TrainingConfig
from rulemix.discovery import _grown_bounds
from rulemix.model import RuleFitter, RulePredictionTable, match_masks, solution_residuals

from conftest import (
    box_ridge,
    fit_boxes,
    fit_rule,
    linear_dataset,
    match_mask,
    matches,
    mixed_table_oracle,
    predict_mixed,
    predict_one,
    rule_fit_oracle,
    stacked,
)


def ridge_oracle(X, y, lam):
    """Normal-equation ridge with an unpenalized intercept via column
    augmentation: solves (Xa' Xa + lam*I~) beta = Xa' y with I~[0,0] = 0."""
    n, d = X.shape
    Xa = np.column_stack([np.ones(n), X])
    penalty = lam * np.eye(d + 1)
    penalty[0, 0] = 0.0
    beta = np.linalg.solve(Xa.T @ Xa + penalty, Xa.T @ y)
    return beta[1:], beta[0]


def make_rule(lower, upper, coef, intercept, experience=10, error=0.0, fitness=0.0):
    return Rule(lower, upper, coef, intercept, experience, error, fitness)


class TestDataset:
    def test_bounds_observed_from_features(self):
        data = Dataset([[0.0, 5.0], [2.0, -1.0], [1.0, 3.0]], [1.0, 2.0, 3.0])
        assert np.array_equal(data.feature_bounds, [[0.0, 2.0], [-1.0, 5.0]])

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([[np.nan], [1.0]], [0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 1)), np.empty(0))


class TestMatches:
    def test_boundary_point_is_matched(self):
        cond = ([0.0, 0.0], [1.0, 1.0])
        assert matches(cond, [1.0, 0.0])

    def test_point_just_outside_upper(self):
        cond = ([0.0], [1.0])
        assert not matches(cond, [1.0000001])

    def test_interior_point(self):
        cond = ([-1.0], [1.0])
        assert matches(cond, [0.0])

    def test_dimension_mismatch(self):
        cond = ([0.0], [1.0])
        with pytest.raises(ValueError):
            matches(cond, [0.0, 0.0])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=4),
        st.data(),
    )
    def test_widening_never_unmatches(self, point, data):
        d = len(point)
        low = [data.draw(st.floats(-10, 10)) for _ in range(d)]
        high = [max(l, data.draw(st.floats(-10, 10))) for l in low]
        cond = (low, high)
        grow_low = [data.draw(st.floats(0, 5)) for _ in range(d)]
        grow_high = [data.draw(st.floats(0, 5)) for _ in range(d)]
        wider = (np.asarray(low) - grow_low, np.asarray(high) + grow_high)
        if matches(cond, point):
            assert matches(wider, point)

    def test_match_mask_agrees_with_matches(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(50, 3))
        lower, upper = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0])
        mask = match_masks(lower[None], upper[None], np.ascontiguousarray(X.T))[0]
        assert mask.tolist() == [matches((lower, upper), row) for row in X]


class TestRule:
    """One constructor checks every field of the flat rule record."""

    def test_fields_are_converted(self):
        rule = Rule([0, 1], [2, 3], [1, -1], 2, np.int64(4), 0, 1)
        for vector in (rule.lower, rule.upper, rule.coefficients):
            assert vector.dtype == float and vector.shape == (2,)
        assert type(rule.intercept) is float and type(rule.experience) is int
        assert type(rule.in_sample_error) is float and type(rule.fitness) is float

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
            make_rule([1.0], [0.0], [0.0], 0.0)

    @pytest.mark.parametrize(
        "lower, upper, coef",
        [
            ([0.0], [1.0], [1.0, 2.0]),  # coefficients wider than the box
            ([0.0, 0.0], [1.0, 1.0], [1.0]),  # coefficients narrower than the box
            ([0.0], [1.0, 1.0], [1.0]),
            ([[0.0]], [[1.0]], [[1.0]]),
            (0.0, 1.0, 1.0),
        ],
    )
    def test_vectors_of_one_length_only(self, lower, upper, coef):
        with pytest.raises(ValueError, match="1-D vectors of one length"):
            make_rule(lower, upper, coef, 0.0)

    @pytest.mark.parametrize(
        "lower, upper, coef, intercept, message",
        [
            ([-np.inf], [1.0], [1.0], 0.0, "bounds must be finite"),
            ([0.0], [np.nan], [1.0], 0.0, "bounds must be finite"),
            ([0.0], [1.0], [np.inf], 0.0, "submodel parameters must be finite"),
            ([0.0], [1.0], [1.0], np.nan, "submodel parameters must be finite"),
        ],
    )
    def test_non_finite_values_rejected(self, lower, upper, coef, intercept, message):
        with pytest.raises(ValueError, match=message):
            make_rule(lower, upper, coef, intercept)

    @pytest.mark.parametrize(
        "statistics, message",
        [
            (dict(experience=-1), "experience"),
            (dict(error=-0.5), "in_sample_error"),
            (dict(error=np.nan), "in_sample_error"),
            (dict(fitness=1.5), "fitness"),
            (dict(fitness=-0.1), "fitness"),
            (dict(fitness=np.nan), "fitness"),
            (dict(experience=2.7), "experience must be an integer count"),
            (dict(experience=True), "experience must be an integer count"),
            (dict(experience=np.True_), "experience must be an integer count"),
            (dict(experience=np.float64(3.0)), "experience must be an integer count"),
            (dict(experience=0), "must be at least 1"),
        ],
    )
    def test_statistics_out_of_range_rejected(self, statistics, message):
        with pytest.raises(ValueError, match=message):
            make_rule([0.0], [1.0], [1.0], 0.0, **statistics)


class TestMatchMasks:
    """The shared (boxes x rows) mask routine against the one-box oracle."""

    @staticmethod
    def check(conditions, X):
        X = np.asarray(X, dtype=float)
        masks = match_masks(*stacked(conditions, X.shape[1]), np.ascontiguousarray(X.T))
        assert masks.shape == (len(conditions), X.shape[0])
        assert masks.dtype == bool
        for mask, condition in zip(masks, conditions):
            np.testing.assert_array_equal(mask, match_mask(condition, X))
        return masks

    def test_bounds_equal_to_data_values_are_inclusive(self):
        X = np.array([[0.0, 1.0], [0.5, 2.0], [1.0, 3.0], [1.5, 4.0]])
        cond = ([0.5, 2.0], [1.0, 3.0])
        masks = self.check([cond], X)
        assert masks[0].tolist() == [False, True, True, False]

    def test_zero_width_boxes(self):
        X = np.array([[0.0, 1.0], [0.5, 2.0], [0.5, 2.5], [1.0, 3.0]])
        conditions = [
            ([0.5, 2.0], [0.5, 2.0]),  # a point on a row
            ([0.5, 2.0], [0.5, 3.0]),  # zero width in one axis
            ([0.25, 2.0], [0.25, 2.0]),  # a point on no row
        ]
        masks = self.check(conditions, X)
        assert masks.sum(axis=1).tolist() == [1, 2, 0]

    def test_one_row_matrix(self):
        X = np.array([[0.3, -0.2, 0.9]])
        conditions = [
            ([0.0, -1.0, 0.0], [1.0, 0.0, 1.0]),
            ([0.4, -1.0, 0.0], [1.0, 0.0, 1.0]),
        ]
        masks = self.check(conditions, X)
        assert masks[:, 0].tolist() == [True, False]

    def test_zero_boxes(self):
        X = np.random.default_rng(1).uniform(-1, 1, size=(7, 3))
        masks = self.check([], X)
        assert masks.shape == (0, 7)

    def test_many_boxes(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(300, 4))
        # Bounds drawn from the data too, so many rows sit exactly on a bound.
        values = np.concatenate([X.ravel(), rng.uniform(-1.2, 1.2, 200)])
        conditions = []
        for _ in range(150):
            low, high = np.sort(rng.choice(values, size=(2, 4)), axis=0)
            conditions.append((low, high))
        masks = self.check(conditions, X)
        assert 0 < masks.sum() < masks.size


class TestFitRule:
    def test_exact_line_through_two_points(self):
        data = Dataset([[0.0], [1.0]], [0.0, 2.0])
        rule = fit_rule([0.0], [1.0], data, 0.0)
        assert rule.experience == 2
        assert rule.coefficients == pytest.approx([2.0], abs=1e-12)
        assert rule.intercept == pytest.approx(0.0, abs=1e-12)
        assert rule.in_sample_error == pytest.approx(0.0, abs=1e-24)

    def test_empty_box_is_refused(self):
        data = Dataset([[0.0], [1.0]], [0.0, 2.0])
        with pytest.raises(ValueError, match="share a matched row"):
            fit_rule([5.0], [6.0], data, 0.0)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        data = Dataset(X, y)
        cond = (data.feature_bounds[:, 0], data.feature_bounds[:, 1])
        rule = fit_rule(*cond, data, 0.1)
        coef, intercept = ridge_oracle(X, y, 0.1)
        assert rule.experience == 20
        np.testing.assert_allclose(rule.coefficients, coef, atol=1e-8)
        assert rule.intercept == pytest.approx(intercept, abs=1e-8)

    def test_zero_lambda_reproduces_ols(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        y = 3 * X[:, 0] - X[:, 1] + rng.normal(size=30)
        data = Dataset(X, y)
        cond = (data.feature_bounds[:, 0], data.feature_bounds[:, 1])
        rule = fit_rule(*cond, data, 0.0)
        coef, intercept = ridge_oracle(X, y, 0.0)
        np.testing.assert_allclose(rule.coefficients, coef, atol=1e-8)
        assert rule.intercept == pytest.approx(intercept, abs=1e-8)

    def test_larger_lambda_never_grows_coefficient_norm(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        data = Dataset(X, y)
        cond = (data.feature_bounds[:, 0], data.feature_bounds[:, 1])
        norms = [
            np.linalg.norm(fit_rule(*cond, data, lam).coefficients)
            for lam in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_experience_counts_matched_examples(self):
        data = linear_dataset(n=50, noise=0.0)
        cond = ([-0.5], [0.5])
        rule = fit_rule(*cond, data, 0.01)
        assert rule.experience == int(match_mask(cond, data.features).sum())


class TestRuleFitter:
    @staticmethod
    def boxes(data, rng, count=12):
        """Random boxes, each spanning two random rows, plus a one-row box and
        the full box."""
        lo, hi = data.feature_bounds[:, 0], data.feature_bounds[:, 1]
        conditions = []
        for _ in range(count):
            a, b = data.features[rng.integers(0, data.n_samples, 2)]
            conditions.append((np.minimum(a, b), np.maximum(a, b)))
        conditions.append((data.features[3], data.features[3]))
        conditions.append((lo, hi))
        return conditions

    @staticmethod
    def nested_boxes(data, rng, count=12):
        """A box around one row and ``count`` boxes grown outward from it,
        the shape of one discovery iteration: every box shares its rows."""
        lo, hi = data.feature_bounds[:, 0], data.feature_bounds[:, 1]
        width = hi - lo
        lower, upper = data.features[3] - 0.1 * width, data.features[3] + 0.1 * width
        conditions = [(np.maximum(lower, lo), np.minimum(upper, hi))]
        for _ in range(count):
            grow = rng.uniform(0.0, 0.5, size=(2, lo.shape[0])) * width
            conditions.append((np.maximum(lower - grow[0], lo), np.minimum(upper + grow[1], hi)))
        return conditions

    @staticmethod
    def fit_each(fitter, conditions):
        """One rule per box, each from its own call: boxes that need not
        share a row cannot share a call."""
        return [rule for condition in conditions for rule in fit_boxes(fitter, [condition])]

    @staticmethod
    def assert_matches_oracle(data, conditions, rules, ridge_lambda):
        for (lower, upper), rule in zip(conditions, rules):
            experience, coefficients, intercept, mse = box_ridge(data, lower, upper, ridge_lambda)
            np.testing.assert_array_equal(rule.lower, lower)
            np.testing.assert_array_equal(rule.upper, upper)
            assert rule.experience == experience
            np.testing.assert_allclose(rule.coefficients, coefficients, rtol=0, atol=1e-8)
            assert abs(rule.intercept - intercept) <= 1e-8
            assert rule.in_sample_error == pytest.approx(mse, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("ridge_lambda", [0.0, 0.01, 10.0])
    def test_batch_matches_per_box_oracle(self, ridge_lambda):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        data = Dataset(X, X @ [1.0, -2.0, 0.5] + rng.normal(0.0, 0.1, 120))
        conditions = self.boxes(data, rng)
        fitter = RuleFitter(data, ridge_lambda)
        rules = self.fit_each(fitter, conditions)
        assert [rule.experience for rule in rules[-2:]] == [1, 120]
        self.assert_matches_oracle(data, conditions, rules, ridge_lambda)
        nested = self.nested_boxes(data, rng)
        self.assert_matches_oracle(data, nested, fit_boxes(fitter, nested), ridge_lambda)
        assert fit_boxes(fitter, []) == []

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([0.0, 0.01, 10.0]),
        st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(st.integers(-8, 8).map(lambda k: k / 4), min_size=d + 1, max_size=d + 1),
                min_size=1,
                max_size=12,
            )
        ),
        st.booleans(),
        st.sampled_from([None, 0.0, 2.5, -1e3]),
        st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=6),
    )
    # Two rows in two features: a singular Gram that rounding leaves
    # invertible, so a stacked solve would not fall back to the minimum norm.
    @example(0.0, [[0.0, -1.0, 0.0], [1.5, 0.25, 0.25]], False, None, [])
    def test_batch_matches_oracle_on_degenerate_data(self, ridge_lambda, table, twice, constant, pairs):
        # Quarter-step values tie, repeat and line up often; with one row,
        # every row twice or a zero-range column, designs are rank-deficient.
        rows = np.array(table)
        if twice:
            rows = np.vstack([rows, rows])
        X, y = rows[:, :-1], rows[:, -1]
        if constant is not None:
            X = np.column_stack([X, np.full(len(X), constant)])
        data = Dataset(X, y)
        pairs = [(i % len(X), j % len(X)) for i, j in pairs]
        conditions = [(np.minimum(X[i], X[j]), np.maximum(X[i], X[j])) for i, j in pairs]
        full = (data.feature_bounds[:, 0], data.feature_bounds[:, 1])
        fitter = RuleFitter(data, ridge_lambda)
        # Every box lies inside the full box: each with it is a nested stack.
        for condition in [full, *conditions]:
            stack = [condition, full]
            self.assert_matches_oracle(data, stack, fit_boxes(fitter, stack), ridge_lambda)

    @pytest.mark.parametrize("shape", ["random", "nested"])
    def test_row_chunks_match_one_pass(self, monkeypatch, shape):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.0, 1.0, size=(97, 2))
        data = Dataset(X, np.abs(X[:, 0]) + X[:, 1])
        conditions = self.boxes(data, rng) if shape == "random" else self.nested_boxes(data, rng)
        fit = self.fit_each if shape == "random" else fit_boxes
        one_pass = fit(RuleFitter(data, 0.01), conditions)
        monkeypatch.setattr(rulemix.model, "PRODUCT_FLOATS", 50)  # 5-row chunks
        chunked = fit(RuleFitter(data, 0.01), conditions)
        for a, b in zip(one_pass, chunked):
            assert a.experience == b.experience
            np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)
            assert a.intercept == pytest.approx(b.intercept, abs=1e-12)
            assert a.in_sample_error == pytest.approx(b.in_sample_error, rel=1e-12)

    def test_features_far_from_their_mean_and_scale(self):
        # Large offsets and scales must neither drown the penalty nor make
        # the stacked systems singular: one-row boxes still fit exactly.
        rng = np.random.default_rng(7)
        X = 1e8 * rng.uniform(4.0, 6.0, size=(80, 3))
        data = Dataset(X, rng.normal(size=80))
        conditions = [(row, row) for row in data.features[:5]]
        hi, width = data.feature_bounds[:, 1], np.ptp(data.features, axis=0)
        conditions += [(hi - share * width, hi) for share in (0.5, 0.8)]
        fitter = RuleFitter(data, 0.01)
        # The one-row boxes share no row, so each gets its own call; the two
        # boxes at the top of the range nest and share one.
        rules = self.fit_each(fitter, conditions[:5]) + fit_boxes(fitter, conditions[5:])
        for (lower, upper), rule in zip(conditions, rules):
            experience, coefficients, intercept, mse = box_ridge(data, lower, upper, 0.01)
            assert rule.experience == experience
            np.testing.assert_allclose(rule.coefficients, coefficients, rtol=1e-8, atol=1e-12)
            assert rule.intercept == pytest.approx(intercept, rel=1e-8, abs=1e-12)
            assert rule.in_sample_error == pytest.approx(mse, rel=1e-8, abs=1e-12)

    def test_narrow_box_at_the_edge_of_a_wide_feature(self):
        # A box a few units wide at the edge of a feature spanning 1e6 lies
        # far from the feature's mean; its scatter must keep every digit.
        rng = np.random.default_rng(8)
        x0 = np.concatenate([rng.uniform(0.0, 1e6, 300), 1e6 - rng.uniform(0.0, 2.0, 20)])
        X = np.column_stack([x0, rng.normal(size=320)])
        data = Dataset(X, 3.0 * (x0 - 1e6) + X[:, 1] + rng.normal(0.0, 0.1, 320))
        lo, hi = data.feature_bounds[:, 0], data.feature_bounds[:, 1]
        parent = ([1e6 - 1.0, lo[1]], hi)
        children = [([1e6 - width, lo[1]], hi) for width in (1.5, 2.0, 3.0)]
        conditions = [parent, *children]
        self.assert_close_to_oracle(data, conditions, fit_boxes(RuleFitter(data, 0.01), conditions))
        self.assert_close_to_oracle(data, [parent], [fit_rule(*parent, data, 0.01)])

    def test_box_constant_in_a_far_offset_column(self):
        # Inside the boxes the first column is constant at 1e6, half its
        # range from its mean: it must get a zero scatter and coefficient.
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.choice([0.0, 1e6], 400), rng.uniform(-1.0, 1.0, 400)])
        data = Dataset(X, X[:, 1] ** 2 + rng.normal(0.0, 0.1, 400))
        conditions = [([1e6, -0.5 - s], [1e6, 0.5 + s]) for s in (0.0, 0.1, 0.3)]
        rules = fit_boxes(RuleFitter(data, 0.01), conditions)
        self.assert_close_to_oracle(data, conditions, rules)
        assert all(rule.coefficients[0] == 0.0 for rule in rules)

    def test_box_with_fewer_rows_than_features_at_large_scale(self):
        # Next to squares near 1e17 the penalty 0.01 rounds away, so a
        # two-row box in two features has a singular system. It gets the
        # minimum-norm fit, which passes through both rows.
        X = np.array([[0.0, 0.0], [3e8, 1e8], [-2e8, 5e8], [1e8, -4e8]])
        data = Dataset(X, [0.0, 1.0, 2.0, 3.0])
        rule = fit_rule([0.0, 0.0], [3e8, 1e8], data, 0.01)
        expected = np.linalg.lstsq(X[:2] - X[:2].mean(axis=0), [-0.5, 0.5], rcond=None)[0]
        np.testing.assert_allclose(rule.coefficients, expected, rtol=1e-12)
        assert rule.experience == 2
        assert rule.in_sample_error < 1e-20

    def test_singular_box_leaves_its_batch_siblings_unchanged(self):
        # Both batches share the same rows (the two of the singular box), so
        # the siblings' sums are the same; only the three-box batch has a
        # singular system, and only that box gets the minimum-norm fit.
        X = 1e8 * np.array([[0, 0], [3, 1], [1, 4], [2.5, 3], [0.5, 2], [6, -2], [8, 0.5], [5, -4]])
        data = Dataset(X, [0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 2.5, -2.0])
        left = ([0.0, 0.0], [3e8, 5e8])
        singular = ([0.0, 0.0], [3e8, 1e8])
        right = ([0.0, -5e8], [9e8, 1e8])
        fitter = RuleFitter(data, 0.01)
        with_singular = fit_boxes(fitter, [left, singular, right])
        without = fit_boxes(fitter, [left, right])
        for alone, batched in zip(without, [with_singular[0], with_singular[2]]):
            assert batched.experience == alone.experience == 5
            np.testing.assert_array_equal(batched.coefficients, alone.coefficients)
            assert batched.intercept == alone.intercept
            assert batched.in_sample_error == alone.in_sample_error
        assert with_singular[1].experience == 2 and with_singular[1].in_sample_error < 1e-20

    @staticmethod
    def assert_close_to_oracle(data, conditions, rules):
        for (lower, upper), rule in zip(conditions, rules):
            experience, coefficients, intercept, mse = box_ridge(data, lower, upper, 0.01)
            assert rule.experience == experience > 0
            np.testing.assert_allclose(rule.coefficients, coefficients, rtol=1e-8, atol=1e-12)
            assert rule.intercept == pytest.approx(intercept, rel=1e-8, abs=1e-12)
            assert rule.in_sample_error == pytest.approx(mse, rel=1e-8, abs=1e-12)

    def test_non_empty_boxes_must_share_a_row(self):
        # Discovery's boxes all hold their seed row. An empty box shares no
        # row with any box, so a stack that holds one is refused too.
        fitter = RuleFitter(linear_dataset(n=20, noise=0.0), 0.01)
        left, right, empty, full = ([-1.0], [-0.5]), ([0.5], [1.0]), ([2.0], [3.0]), ([-1.0], [1.0])
        for boxes in ([left, right], [left, empty, right], [left, empty], [full, empty], [empty], [empty, empty]):
            with pytest.raises(ValueError, match="the boxes of one fit must share a matched row"):
                fitter.fit(*stacked(boxes, 1))


class TestRuleFitterBits:
    """The fit must give the oracle's bits: sums from an explicit C-ordered
    (rows x products) matrix. Another layout of the same products gives
    another summation order, and on some BLAS kernels other model bytes."""

    @staticmethod
    def iteration(d, n, share, seed):
        """Data like the benchmark's and the 16 children of one discovery
        iteration, grown from a parent box holding about ``share`` of the
        rows: nested boxes with the parent's rows in common."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        y = np.abs(X[:, 0]) + 1.5 * np.abs(X[:, -1]) + rng.normal(0.0, 0.05, n)
        data = Dataset(X, y)
        half = share ** (1.0 / d)  # half the span of [-1, 1] per feature
        centre = rng.uniform(half - 1.0, 1.0 - half, d)
        lowers, uppers = _grown_bounds(centre - half, centre + half, data, 0.05, rng, 16)
        return data, lowers, uppers

    @staticmethod
    def check(data, lowers, uppers):
        fits = RuleFitter(data, 0.01).fit(lowers, uppers)
        expected = rule_fit_oracle(data, lowers, uppers, 0.01)
        for got, want in zip(fits, expected):
            assert got.tobytes() == want.tobytes()

    # Parent shares that make the children match about 150 or 4,000 rows.
    @pytest.mark.parametrize(
        "d, n, share, rows",
        [(1, 400, 0.2, 150), (2, 400, 0.2, 150), (6, 400, 0.1, 150)]
        + [(1, 8_000, 0.3, 4_000), (2, 8_000, 0.3, 4_000), (6, 8_000, 0.15, 4_000)],
    )
    def test_matches_oracle(self, d, n, share, rows):
        data, lowers, uppers = self.iteration(d, n, share, seed=10 * d + n)
        matched = match_masks(lowers, uppers, np.ascontiguousarray(data.features.T)).any(axis=0).sum()
        assert 0.8 * rows < matched < 1.3 * rows
        self.check(data, lowers, uppers)

    @pytest.mark.parametrize("d, n", [(1, 400), (6, 8_000)])
    def test_full_box_fit_does_not_depend_on_its_batch(self, d, n):
        # Discovery stops at a parent spanning the feature box because the
        # copies it would breed score as it does: a box matching every row
        # keeps its lone fit's bits beside other boxes and among copies.
        data, lowers, uppers = self.iteration(d, n, 0.2, seed=d)
        full_lower, full_upper = data.feature_bounds[:, 0], data.feature_bounds[:, 1]
        fitter = RuleFitter(data, 0.01)
        alone = fitter.fit(full_lower[None], full_upper[None])
        siblings = fitter.fit(lowers, uppers)
        beside = fitter.fit(np.vstack([lowers, full_lower]), np.vstack([uppers, full_upper]))
        for got, lone, others in zip(beside, alone, siblings):
            assert got[-1].tobytes() == lone[0].tobytes()
            assert got[:-1].tobytes() == others.tobytes()
        for k in (2, 4, 16):
            copies = fitter.fit(np.tile(full_lower, (k, 1)), np.tile(full_upper, (k, 1)))
            for got, lone in zip(copies, alone):
                assert got.tobytes() == np.repeat(lone, k, axis=0).tobytes()

    @pytest.mark.parametrize("d", [1, 6])
    def test_row_chunks_match_oracle(self, monkeypatch, d):
        data, lowers, uppers = self.iteration(d, 2_000, 0.5, seed=d)
        products = (d + 2) * (d + 3) // 2
        monkeypatch.setattr(rulemix.model, "PRODUCT_FLOATS", 300 * products)  # 300-row chunks
        self.check(data, lowers, uppers)


class TestPredictRule:
    """A rule's own prediction ``intercept + coefficients . x`` on a row its
    box matches, as the prediction table forms it."""

    @staticmethod
    def predicted(rule, x):
        table = RulePredictionTable.build([rule], np.atleast_2d(x))
        return table.mixed(np.ones((1, 1)), np.nan)[0, 0]

    def test_constant_submodel(self):
        rule = make_rule([0.0], [1.0], [0.0], 3.25)
        assert self.predicted(rule, [0.7]) == pytest.approx(3.25, rel=1e-15)

    def test_identity(self):
        rule = make_rule([0.0], [4.0], [1.0], 0.0)
        assert self.predicted(rule, [3.5]) == pytest.approx(3.5, rel=1e-15)

    def test_direct_arithmetic(self):
        rule = make_rule([0.0, 0.0], [1.0, 1.0], [2.0, -1.0], 1.0)
        assert self.predicted(rule, [1.0, 1.0]) == pytest.approx(2.0, rel=1e-15)


class TestPredictMixed:
    def _candidate(self, bits):
        genome = np.asarray(bits, dtype=bool)
        return SolutionCandidate(genome, 0.0, int(genome.sum()), 0.0)

    def _mixed(self, bits, pool, x, default):
        """The oracle's mixed prediction at ``x``, checked against the batch
        kernel on a one-row matrix."""
        candidate = self._candidate(bits)
        expected = predict_mixed(candidate, pool, x, default)
        table = RulePredictionTable.build(pool, np.atleast_2d(x))
        assert table.mixed(candidate.genome[None], default)[0, 0] == pytest.approx(expected, abs=1e-12)
        return expected

    def test_single_matching_rule_wins(self):
        rule = make_rule([0.0], [1.0], [2.0], 0.0, experience=5, error=0.1)
        pool = (rule,)
        assert self._mixed([1], pool, [0.5], -9.0) == predict_one(rule, [0.5])

    def test_equal_rules_average(self):
        a = make_rule([0.0], [1.0], [0.0], 1.0, experience=5, error=0.1)
        b = make_rule([0.0], [1.0], [0.0], 3.0, experience=5, error=0.1)
        pool = (a, b)
        assert self._mixed([1, 1], pool, [0.5], -9.0) == pytest.approx(2.0)

    def test_no_match_returns_default(self):
        rule = make_rule([0.0], [1.0], [2.0], 0.0)
        pool = (rule,)
        assert self._mixed([1], pool, [5.0], -9.0) == -9.0

    def test_unselected_rules_ignored(self):
        a = make_rule([0.0], [1.0], [0.0], 1.0)
        b = make_rule([0.0], [1.0], [0.0], 100.0)
        pool = (a, b)
        assert self._mixed([1, 0], pool, [0.5], -9.0) == 1.0

    def test_genome_pool_size_mismatch(self):
        pool = (make_rule([0.0], [1.0], [0.0], 1.0),)
        data = Dataset([[0.5]], [0.0])
        with pytest.raises(ValueError, match="stack of selections over 1 rules"):
            solution_residuals(self._candidate([1, 0]), pool, data)

    def test_mix_is_convex_combination(self):
        rng = np.random.default_rng(11)
        rules = [
            make_rule(
                [-1.0],
                [1.0],
                [rng.normal()],
                rng.normal(),
                experience=int(rng.integers(1, 50)),
                error=float(rng.uniform(0.001, 1.0)),
            )
            for _ in range(5)
        ]
        pool = tuple(rules)
        for x in rng.uniform(-1, 1, size=20):
            predictions = [predict_one(rule, [x]) for rule in rules]
            mixed = self._mixed([1] * 5, pool, [x], 0.0)
            assert min(predictions) - 1e-12 <= mixed <= max(predictions) + 1e-12

    def test_batch_table_agrees_with_per_row(self):
        rng = np.random.default_rng(5)
        rules = []
        for _ in range(6):
            lo, hi = np.sort(rng.uniform(-1, 1, 2))
            rules.append(
                make_rule(
                    [lo],
                    [hi],
                    [rng.normal()],
                    rng.normal(),
                    experience=int(rng.integers(1, 30)),
                    error=float(rng.uniform(0.0, 0.5)),
                )
            )
        pool = tuple(rules)
        X = rng.uniform(-1.5, 1.5, size=(40, 1))
        table = RulePredictionTable.build(pool, X)
        genome = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        candidate = SolutionCandidate(genome, 0.0, 4, 0.0)
        (batch,) = table.mixed(genome[None], 0.25)
        for j, row in enumerate(X):
            assert batch[j] == pytest.approx(predict_mixed(candidate, pool, row, 0.25), abs=1e-12)


# Mixes 64 genomes over a 64- and a 600-rule table and prints, per table, the
# sha256 of the stacked mix and of every genome mixed alone.
THREADED_MIX = """
import hashlib
import numpy as np
from rulemix.model import RulePredictionTable
rng = np.random.default_rng(0)
for count in (64, 600):
    weights = rng.uniform(1.0, 100.0, size=(count, 1))
    weighted_masks = weights * (rng.random((count, 4_000)) < 0.3)
    table = RulePredictionTable(weighted_masks, weighted_masks * rng.normal(size=(count, 4_000)))
    selections = rng.random((64, count)) < 0.5
    print(hashlib.sha256(table.mixed(selections, 0.25).tobytes()).hexdigest())
    lone = b"".join(table.mixed(selected[None], 0.25).tobytes() for selected in selections)
    print(hashlib.sha256(lone).hexdigest())
"""


class TestRulePredictionTableBits:
    """``mixed`` sums pre-weighted rows; each value and the summation order
    must be the per-call oracle's, bit for bit, for pools BLAS sums in one
    block. At any pool size, a genome's mix must not depend on the stack it
    comes in, nor on the BLAS thread count."""

    @staticmethod
    def random_rules(rng, count, d):
        rules = []
        for _ in range(count):
            # Wide boxes: most rows in [-1, 2] hold several rules at once.
            lower = rng.uniform(-1.0, 0.5, d)
            rules.append(
                make_rule(
                    lower,
                    lower + rng.uniform(0.5, 2.0, d),
                    rng.normal(size=d),
                    rng.normal(),
                    experience=int(rng.integers(1, 50)),
                    error=float(rng.uniform(0.0, 0.5)),
                )
            )
        return rules

    @staticmethod
    def check(rules, X, selected, default=0.25):
        table = RulePredictionTable.build(rules, X)
        expected = mixed_table_oracle(rules, X, selected, default)
        assert table.mixed(selected[None], default)[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_selections(self, seed):
        rng = np.random.default_rng(seed)
        rules = self.random_rules(rng, 12, 2)
        # Rows beyond [-1, 2.5] lie outside every box.
        X = rng.uniform(-1.5, 3.0, size=(80, 2))
        for _ in range(5):
            self.check(rules, X, rng.random(len(rules)) < 0.5)

    def test_all_and_no_rules_selected(self):
        rng = np.random.default_rng(7)
        rules = self.random_rules(rng, 6, 3)
        X = rng.uniform(-1.5, 3.0, size=(50, 3))
        self.check(rules, X, np.ones(len(rules), dtype=bool))
        self.check(rules, X, np.zeros(len(rules), dtype=bool))

    def test_one_rule_table(self):
        rng = np.random.default_rng(8)
        (rule,) = self.random_rules(rng, 1, 2)
        X = rng.uniform(-1.5, 3.0, size=(30, 2))
        self.check([rule], X, np.array([True]))
        self.check([rule], X, np.array([False]))

    def test_rows_no_rule_matches(self):
        rules = [make_rule([0.0], [1.0], [2.0], 1.0), make_rule([0.5], [1.0], [-1.0], 0.5, experience=3)]
        X = np.array([[-2.0], [0.25], [0.75], [3.0]])
        self.check(rules, X, np.array([True, True]), default=-7.5)
        self.check(rules, X, np.array([False, True]), default=-7.5)

    def test_negative_zero_weighted_predictions(self):
        # A negative prediction on a row its rule does not match weighs in as
        # -0.0; a -0.0 default fills rows no selected rule matches.
        rules = [
            make_rule([0.0], [1.0], [-1.0], -0.5),
            make_rule([0.5], [2.0], [-2.0], -0.25, experience=4, error=0.1),
            make_rule([0.0], [2.0], [1.0], 0.0, experience=2),
        ]
        X = np.array([[0.25], [0.75], [1.5], [3.0]])
        weighted = RulePredictionTable.build(rules, X).weighted_predictions
        assert (np.signbit(weighted) & (weighted == 0.0)).any()
        for bits in ([1, 0, 0], [1, 1, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]):
            self.check(rules, X, np.array(bits, dtype=bool), default=-0.0)

    @staticmethod
    def selections(rng, count):
        """Six genomes of varied density, among them all and no rules."""
        densities = [rng.random(count) < p for p in (0.5, 0.05, 0.9, 0.3)]
        return np.array([*densities, np.ones(count, dtype=bool), np.zeros(count, dtype=bool)])

    @pytest.mark.parametrize("rows", [2_000, 10_000])
    @pytest.mark.parametrize("count", [16, 64, 384, 400, 600])
    def test_rows_match_lone_and_sub_batch_mixes(self, count, rows):
        rng = np.random.default_rng(count + rows)
        rules = self.random_rules(rng, count, 2)
        X = rng.uniform(-1.5, 3.0, size=(rows, 2))
        table = RulePredictionTable.build(rules, X)
        selections = self.selections(rng, count)
        stacked = table.mixed(selections, 0.25)
        assert stacked.shape == (len(selections), rows)
        for start in range(len(selections)):
            for stop in range(start + 1, len(selections) + 1):
                assert table.mixed(selections[start:stop], 0.25).tobytes() == stacked[start:stop].tobytes()
        if count <= 384:
            for selected, mix in zip(selections, stacked):
                assert mix.tobytes() == mixed_table_oracle(rules, X, selected, 0.25).tobytes()

    def test_same_bits_under_one_and_two_blas_threads(self):
        src = os.path.dirname(os.path.dirname(rulemix.model.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            result = subprocess.run(
                [sys.executable, "-c", THREADED_MIX], capture_output=True, text=True, env=env, check=True
            )
            stacked_64, lone_64, stacked_600, lone_600 = result.stdout.split()
            # Under either thread count, a genome mixed alone matches its stacked row.
            assert (lone_64, lone_600) == (stacked_64, stacked_600)
            outputs.append(stacked_64)
        # Pools BLAS sums in one block give the same bits under both thread
        # counts. Larger pools need not: the K blocks may split differently.
        assert outputs[0] == outputs[1]

    def test_selections_must_be_a_stack_over_the_table(self):
        table = RulePredictionTable(np.ones((3, 4)), np.ones((3, 4)))
        for bad in (np.ones(3, dtype=bool), np.ones((2, 4), dtype=bool)):
            with pytest.raises(ValueError, match="stack of selections over 3 rules"):
                table.mixed(bad, 0.0)


class TestPool:
    """The pool a :class:`Model` holds: a tuple of rules that span the
    model's features."""

    @staticmethod
    def model(pool, d):
        best = SolutionCandidate(np.zeros(len(pool), dtype=bool), 0.0, 0, 0.0)
        return Model(pool, best, 0.0, np.tile([0.0, 1.0], (d, 1)), TrainingConfig(), ())

    def test_rule_of_another_width_rejected(self):
        pool = [make_rule([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.0), make_rule([0.0], [1.0], [1.0], 0.0)]
        with pytest.raises(ValueError, match="rule 1 vectors must have length 2"):
            self.model(pool, 2)

    def test_rules_view_is_tuple(self):
        assert isinstance(self.model([make_rule([0.0], [1.0], [1.0], 0.0)], 1).pool, tuple)


class TestSolutionCandidate:
    def test_complexity_must_match_popcount(self):
        with pytest.raises(ValueError, match="popcount"):
            SolutionCandidate(np.array([True, False]), 0.0, 2, 0.5)

    def test_genome_copied(self):
        bits = np.array([True, False])
        candidate = SolutionCandidate(bits, 0.0, 1, 0.5)
        bits[1] = True
        assert candidate.cached_complexity == 1
        assert not candidate.genome[1]


class TestSolutionResiduals:
    def test_empty_selection_centers_on_target_mean(self):
        data = linear_dataset(n=30, noise=0.0)
        pool = (make_rule([-1.0], [1.0], [2.0], 1.0, experience=30),)
        candidate = SolutionCandidate(np.array([False]), 0.0, 0, 0.0)
        residuals = solution_residuals(candidate, pool, data)
        np.testing.assert_allclose(residuals, data.targets - data.targets.mean())

    def test_perfect_rule_zeroes_residuals(self):
        data = linear_dataset(n=30, noise=0.0)
        rule = fit_rule(data.feature_bounds[:, 0], data.feature_bounds[:, 1], data, 0.0)
        pool = (rule,)
        candidate = SolutionCandidate(np.array([True]), 0.0, 1, 0.0)
        residuals = solution_residuals(candidate, pool, data)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-10)

    def test_residuals_match_per_row_recomputation(self):
        data = linear_dataset(n=40, seed=2, noise=0.3)
        rules = [fit_rule([lo], [lo + width], data, 0.01) for lo, width in [(-1.0, 0.8), (-0.4, 1.0), (0.2, 0.8)]]
        pool = tuple(rules)
        genome = np.array([True, False, True])
        candidate = SolutionCandidate(genome, 0.0, 2, 0.0)
        residuals = solution_residuals(candidate, pool, data)
        default = data.targets.mean()
        expected = [
            y - predict_mixed(candidate, pool, x, default)
            for x, y in zip(data.features, data.targets)
        ]
        np.testing.assert_allclose(residuals, expected, atol=1e-12)


def test_mixed_predictions_empty_rule_list_gives_default():
    X = np.zeros((4, 2))
    table = RulePredictionTable.build([], X)
    np.testing.assert_array_equal(table.mixed(np.ones((1, 0), dtype=bool), 1.5), np.full((1, 4), 1.5))
