import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rulemix.discovery
from rulemix import Dataset, DiscoveryParams, FitnessParams
from rulemix.discovery import _grown_bounds, discover_rule, discover_rules, initial_condition, select_seed_example
from rulemix.fitness import combine, pseudo_accuracy, rule_fitness, volume_share
from rulemix.model import RuleFitter

from conftest import (
    abs_dataset,
    fit_boxes,
    fit_rule,
    grow_condition,
    linear_dataset,
    matches,
    rig_scorer,
    rules_equal,
)


class TestSelectSeedExample:
    def test_single_nonzero_weight_always_wins(self):
        data = linear_dataset(n=3, noise=0.0)
        rng = np.random.default_rng(0)
        picks = {select_seed_example(data, np.array([0.0, 0.0, 5.0]), rng) for _ in range(50)}
        assert picks == {2}

    def test_all_zero_residuals_fall_back_to_uniform(self):
        data = linear_dataset(n=3, noise=0.0)
        rng = np.random.default_rng(1)
        draws = 10_000
        counts = np.bincount(
            [select_seed_example(data, np.zeros(3), rng) for _ in range(draws)], minlength=3
        )
        sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
        for count in counts:
            assert abs(count / draws - 1 / 3) <= 3 * sigma

    def test_squared_residual_weighting(self):
        # exact oracle: P(index 1) = 2^2 / (1^2 + 2^2) = 4/5
        data = linear_dataset(n=2, noise=0.0)
        rng = np.random.default_rng(2)
        draws = 10_000
        expected = 4 / 5
        hits = sum(
            select_seed_example(data, np.array([1.0, 2.0]), rng) == 1 for _ in range(draws)
        )
        sigma = np.sqrt(expected * (1 - expected) / draws)
        assert abs(hits / draws - expected) <= 3 * sigma


class TestInitialCondition:
    def test_always_matches_the_seed(self):
        data = linear_dataset(n=50, seed=4)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = data.features[rng.integers(0, data.n_samples)]
            box = initial_condition(x, data, 0.1, rng)
            assert matches(box, x)

    def test_tiny_sigma_degenerates_to_the_point(self):
        data = linear_dataset(n=20, noise=0.0)
        x = data.features[10]
        lower, upper = initial_condition(x, data, 1e-12, np.random.default_rng(0))
        np.testing.assert_allclose(lower, x, atol=1e-9)
        np.testing.assert_allclose(upper, x, atol=1e-9)

    def test_corner_seed_clips_to_bounds(self):
        data = linear_dataset(n=20, noise=0.0)
        corner = data.feature_bounds[:, 0]
        rng = np.random.default_rng(7)
        for _ in range(20):
            lower, _ = initial_condition(corner, data, 0.5, rng)
            assert lower[0] == data.feature_bounds[0, 0]


class TestMutateCondition:
    def test_growth_only(self):
        data = linear_dataset(n=30, seed=1)
        rng = np.random.default_rng(5)
        parent = np.array([-0.25]), np.array([0.25])
        for _ in range(100):
            lower, upper = grow_condition(parent, data, 0.05, rng)
            assert lower[0] <= parent[0][0]
            assert upper[0] >= parent[1][0]

    def test_full_span_parent_is_a_fixpoint(self):
        data = linear_dataset(n=30, noise=0.0)
        parent = (data.feature_bounds[:, 0], data.feature_bounds[:, 1])
        child = grow_condition(parent, data, 0.2, np.random.default_rng(0))
        np.testing.assert_array_equal(child, parent)

    def test_volume_share_never_decreases_along_chain(self):
        rng = np.random.default_rng(11)
        data = linear_dataset(n=30, seed=3)
        box = np.array([-0.1]), np.array([0.1])
        previous = volume_share(*box, data.feature_bounds)
        for _ in range(50):
            box = grow_condition(box, data, 0.05, rng)
            current = volume_share(*box, data.feature_bounds)
            assert current >= previous
            previous = current


class TestDiscoverRule:
    def test_immediate_stall_with_delta_one(self, monkeypatch):
        # Seed scores highest; every later elitist is strictly worse, so the
        # window fires after one post-seed iteration and returns the seed.
        data = linear_dataset(n=50, seed=0)
        params = DiscoveryParams(lambda_=4, delta=1, max_iter=100)
        calls = []

        def rigged(box, iteration):
            calls.append(iteration)
            return 1.0 / (1.0 + iteration)

        rig_scorer(monkeypatch, rigged)
        rule = discover_rule(data, np.ones(50), params, np.random.default_rng(0))
        assert rule.fitness == 1.0
        assert calls == [0, 1, 1, 1, 1]

    def test_stall_returns_peak_elitist(self, monkeypatch):
        data = linear_dataset(n=50, seed=0)
        peak = 6
        params = DiscoveryParams(lambda_=3, delta=2, max_iter=100)
        calls = []

        def rigged(box, iteration):
            calls.append(iteration)
            return 1.0 / (1.0 + abs(peak - iteration))

        rig_scorer(monkeypatch, rigged)
        rule = discover_rule(data, np.ones(50), params, np.random.default_rng(1))
        assert rule.fitness == 1.0
        # 1 seed call + lambda calls per iteration, through iteration peak+delta
        assert len(calls) == 1 + (peak + 2) * 3
        assert max(calls) == peak + 2

    def test_tied_children_yield_the_first_scored(self, monkeypatch):
        # Every child of iteration 1 ties above the seed and later iterations
        # score lower, so the window returns iteration 1's elitist: the first
        # of the tied children.
        data = linear_dataset(n=50, seed=0)
        params = DiscoveryParams(lambda_=4, delta=1, max_iter=100)
        scored = []

        def rigged(box, iteration):
            scored.append((iteration, box))
            return {0: 0.5, 1: 0.9}.get(iteration, 0.1)

        rig_scorer(monkeypatch, rigged)
        rule = discover_rule(data, np.ones(50), params, np.random.default_rng(0))
        assert [iteration for iteration, _ in scored] == [0, 1, 1, 1, 1, 2, 2, 2, 2]
        first = scored[1][1]
        assert rule.fitness == 0.9
        assert np.array_equal(rule.lower, first[0])
        assert np.array_equal(rule.upper, first[1])
        assert not np.array_equal(scored[4][1][0], first[0])

    def test_max_iter_cap_returns_best_seen(self, monkeypatch):
        data = linear_dataset(n=50, seed=0)
        params = DiscoveryParams(lambda_=2, delta=5, max_iter=7)

        def rigged(box, iteration):
            return iteration / 10.0  # strictly improving, never stalls

        rig_scorer(monkeypatch, rigged)
        rule = discover_rule(data, np.ones(50), params, np.random.default_rng(2))
        assert rule.fitness == pytest.approx(0.7)

    def test_deterministic_for_fixed_seed(self):
        data = linear_dataset(n=80, seed=5)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams(max_iter=60)
        a = discover_rule(data, residuals, params, np.random.default_rng(33))
        b = discover_rule(data, residuals, params, np.random.default_rng(33))
        assert rules_equal(a, b)

    def test_returned_rule_is_never_degenerate(self):
        data = linear_dataset(n=60, seed=6)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams(max_iter=40)
        rng = np.random.default_rng(8)
        for _ in range(5):
            rule = discover_rule(data, residuals, params, rng)
            assert rule.experience >= 1

    def test_linear_data_approaches_full_range_oracle(self):
        # Oracle: ridge fit over all data under the full-range condition.
        data = linear_dataset(n=150, seed=9, noise=0.0, slope=3.0, intercept=-1.0)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams()
        oracle = fit_rule(*data.feature_bounds.T, data, params.ridge_lambda)
        errors, lowers, uppers = np.array([oracle.in_sample_error]), oracle.lower[None], oracle.upper[None]
        (oracle_fitness,) = rule_fitness(errors, lowers, uppers, data.feature_bounds, params.fitness)
        for seed in range(10):
            rule = discover_rule(data, residuals, params, np.random.default_rng(seed))
            assert rule.fitness >= 0.9 * oracle_fitness
            assert rule.in_sample_error <= 1e-3

    def test_full_box_stop_ends_before_max_iter(self, monkeypatch):
        data = linear_dataset(n=200)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams()
        batch_sizes = []
        batch_fit = RuleFitter.fit

        def counting_fit(self, lowers, uppers):
            batch_sizes.append(len(lowers))
            return batch_fit(self, lowers, uppers)

        monkeypatch.setattr(RuleFitter, "fit", counting_fit)
        rule = discover_rule(data, residuals, params, np.random.default_rng(0))
        np.testing.assert_array_equal(rule.lower, data.feature_bounds[:, 0])
        np.testing.assert_array_equal(rule.upper, data.feature_bounds[:, 1])
        # The seed's one-box fit, then one batched kernel call per iteration.
        seed, *iterations = batch_sizes
        assert seed == 1
        assert iterations == [params.lambda_] * len(iterations)
        assert 0 < len(iterations) < params.max_iter


@st.composite
def seeded_searches(draw):
    """A dataset of 1-30 rows and 1-4 features, with repeated rows and
    constant columns, residuals that may all be zero, and a seed."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    values = st.floats(-1e3, 1e3)
    distinct = draw(arrays(float, (draw(st.integers(1, n)), d), elements=values))
    X = distinct[draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))]
    constant = draw(arrays(bool, d))
    X[:, constant] = X[0, constant]
    y = draw(arrays(float, n, elements=values))
    residuals = np.zeros(n) if draw(st.booleans()) else draw(arrays(float, n, elements=values))
    return Dataset(X, y), residuals, draw(st.integers(0, 2**32))


class TestSeedBoxHoldsItsRow:
    @settings(max_examples=150, deadline=None)
    @given(seeded_searches(), st.floats(1e-6, 1.0))
    def test_one_seed_and_the_rule_matches_it(self, search, sigma_init):
        data, residuals, seed = search
        params = DiscoveryParams(lambda_=4, delta=2, max_iter=20, sigma_init=sigma_init)
        picks = []

        def recording(*args):
            picks.append(select_seed_example(*args))
            return picks[-1]

        with mock.patch.object(rulemix.discovery, "select_seed_example", recording):
            rule = discover_rule(data, residuals, params, np.random.default_rng(seed))
        assert len(picks) == 1
        assert rule.experience >= 1
        assert matches((rule.lower, rule.upper), data.features[picks[0]])


def box_volume(rule, feature_bounds):
    """The volume share of one rule's box, computed on its own."""
    ranges = feature_bounds[:, 1] - feature_bounds[:, 0]
    positive = ranges > 0
    spans = rule.upper - rule.lower
    return float(np.prod(np.where(positive, spans / np.where(positive, ranges, 1.0), 1.0)))


def object_discover_rule(data, residuals, params, rng, stop_at_full_box):
    """Oracle for ``discover_rule`` over rule objects: every child of an
    iteration becomes a ``Rule`` scored on its own by the one-box formulas,
    and ``max`` picks the elitist. Without ``stop_at_full_box`` the search
    runs on past a parent spanning the whole feature box, to the stall
    window or ``max_iter``."""
    bounds = data.feature_bounds

    def scored(rule):
        accuracy = pseudo_accuracy(rule.in_sample_error, params.fitness.beta)
        fitness = combine(accuracy, box_volume(rule, bounds), params.fitness.alpha)
        return replace(rule, fitness=fitness)

    index = select_seed_example(data, residuals, rng)
    lower, upper = initial_condition(data.features[index], data, params.sigma_init, rng)
    parent = scored(fit_rule(lower, upper, data, params.ridge_lambda))
    fitter = RuleFitter(data, params.ridge_lambda)
    elitists = [parent]
    for iteration in range(1, params.max_iter + 1):
        full = np.array_equal(parent.lower, bounds[:, 0]) and np.array_equal(parent.upper, bounds[:, 1])
        if stop_at_full_box and full:
            break
        lowers, uppers = _grown_bounds(parent.lower, parent.upper, data, params.mutation_sigma, rng, params.lambda_)
        children = fit_boxes(fitter, list(zip(lowers, uppers)))
        best_child = max((scored(child) for child in children), key=lambda rule: rule.fitness)
        elitists.append(best_child)
        if best_child.fitness > parent.fitness:
            parent = best_child
        if iteration >= params.delta:
            stalled = elitists[iteration - params.delta]
            if all(stalled.fitness > later.fitness for later in elitists[iteration - params.delta + 1 :]):
                return stalled
    return max(elitists, key=lambda rule: rule.fitness)


class TestMatchesObjectOracle:
    """``discover_rule`` returns the oracle's rule bit for bit and leaves its
    rng where the oracle leaves it; the full-box stop returns what running
    on would."""

    @staticmethod
    def check(data, residuals, params, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rule = discover_rule(data, residuals, params, rng)
        assert rules_equal(rule, object_discover_rule(data, residuals, params, oracle_rng, True))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        ran_on = object_discover_rule(data, residuals, params, np.random.default_rng(seed), False)
        assert rules_equal(rule, ran_on)
        return rule

    @pytest.mark.parametrize("seed", [0, 1])
    def test_runs_that_reach_the_full_box(self, seed):
        data = linear_dataset(n=200)
        rule = self.check(data, data.targets - data.targets.mean(), DiscoveryParams(), seed)
        np.testing.assert_array_equal(rule.lower, data.feature_bounds[:, 0])
        np.testing.assert_array_equal(rule.upper, data.feature_bounds[:, 1])

    def test_runs_that_stall(self):
        data = abs_dataset(n=120)
        for seed in range(4):
            rule = self.check(data, data.targets - data.targets.mean(), DiscoveryParams(lambda_=6), seed)
            assert box_volume(rule, data.feature_bounds) < 1.0

    @settings(max_examples=100, deadline=None)
    @given(seeded_searches(), st.floats(1e-6, 1.0), st.sampled_from([0.0, 0.01]))
    # A constant feature: the seed box is the full box, fitted alone, and
    # running on refits it in a batch of copies.
    @example((Dataset(np.zeros((25, 1)), np.array([19.0] + [0.0] * 24)), np.zeros(25), 0), 1.0, 0.0)
    def test_small_datasets(self, search, sigma_init, ridge_lambda):
        data, residuals, seed = search
        params = DiscoveryParams(lambda_=4, delta=2, max_iter=20, sigma_init=sigma_init, ridge_lambda=ridge_lambda)
        self.check(data, residuals, params, seed)


class TestDiscoverRules:
    def test_exact_count_for_one_rule(self):
        data = linear_dataset(n=50, seed=1)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams(rules_per_phase=1, max_iter=30)
        rules = discover_rules(data, residuals, params, np.random.default_rng(0))
        assert len(rules) == 1

    def test_returns_requested_count(self):
        data = linear_dataset(n=50, seed=1)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams(rules_per_phase=3, max_iter=30)
        rules = discover_rules(data, residuals, params, np.random.default_rng(4))
        assert len(rules) == 3

    def test_order_independent_given_pre_split_streams(self):
        data = linear_dataset(n=60, seed=2)
        residuals = data.targets - data.targets.mean()
        params = DiscoveryParams(rules_per_phase=2, max_iter=40)
        combined = discover_rules(data, residuals, params, np.random.default_rng(17))
        streams = np.random.default_rng(17).spawn(2)
        second = discover_rule(data, residuals, params, streams[1])
        first = discover_rule(data, residuals, params, streams[0])
        assert rules_equal(combined[0], first)
        assert rules_equal(combined[1], second)


def test_discovery_params_validation():
    with pytest.raises(ValueError):
        DiscoveryParams(lambda_=0)
    with pytest.raises(ValueError):
        DiscoveryParams(delta=0)
    assert DiscoveryParams().fitness == FitnessParams(alpha=0.2, beta=2.0)
    largest = np.finfo(float).max
    params = DiscoveryParams(mutation_sigma=largest, sigma_init=largest, ridge_lambda=largest)
    assert params.mutation_sigma == params.sigma_init == params.ridge_lambda == largest


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("name", ["mutation_sigma", "sigma_init"])
def test_discovery_params_refuse_a_non_finite_or_non_positive_scale(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
        DiscoveryParams(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
def test_discovery_params_refuse_a_non_finite_or_negative_ridge_lambda(value):
    with pytest.raises(ValueError, match="^ridge_lambda must be finite and non-negative$"):
        DiscoveryParams(ridge_lambda=value)
