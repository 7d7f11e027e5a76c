import warnings

import numpy as np
import pytest
from dataclasses import replace

import rulemix.model
import rulemix.training
from rulemix import (
    CompositionParams,
    DataError,
    Dataset,
    DiscoveryParams,
    Model,
    Rule,
    SolutionCandidate,
    TrainingConfig,
    fit,
    save_model,
)
from rulemix.composition import evaluate_candidate
from rulemix.model import RuleFitter, RulePredictionTable, match_masks, solution_residuals
from rulemix.training import EARLY_STOP_PHASES

from conftest import linear_dataset, predict_mixed


def quick_config(seed=0, **kwargs):
    """Small budgets so training-loop tests stay fast."""
    defaults = dict(
        discovery=DiscoveryParams(lambda_=6, delta=3, rules_per_phase=2, max_iter=40),
        composition=CompositionParams(population_size=16, generations_per_phase=10),
        n_phases=3,
        rng_seed=seed,
    )
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


def exact_cover_model(data: Dataset, slope: float, intercept: float) -> Model:
    """One full-range rule reproducing the generating line exactly."""
    rule = Rule(*data.feature_bounds.T, [slope], intercept, data.n_samples, 0.0, 1.0)
    pool = (rule,)
    best = SolutionCandidate(np.array([True]), 0.0, 1, 0.9)
    return Model(
        pool=pool,
        best=best,
        default_prediction=float(data.targets.mean()),
        feature_bounds=data.feature_bounds,
        config=quick_config(),
        history=(),
    )


class TestFit:
    def test_single_phase_pool_accounting(self):
        data = linear_dataset(n=80, seed=1)
        model = fit(data, quick_config(n_phases=1))
        assert len(model.pool) == model.config.discovery.rules_per_phase
        assert len(model.history) == 1

    def test_identical_seed_gives_identical_model(self):
        data = linear_dataset(n=80, seed=2)
        a = fit(data, quick_config(seed=5))
        b = fit(data, quick_config(seed=5))
        assert np.array_equal(a.best.genome, b.best.genome)
        assert a.best.cached_mse == b.best.cached_mse
        assert a.history == b.history
        for ra, rb in zip(a.pool, b.pool):
            assert np.array_equal(ra.lower, rb.lower)
            assert np.array_equal(ra.upper, rb.upper)
            assert ra.in_sample_error == rb.in_sample_error

    def test_recovers_noiseless_line(self):
        # Oracle: a global ridge fit reaches ~0 MSE, so the composed model
        # must land within 1% of the target variance.
        data = linear_dataset(n=200, seed=3, noise=0.0, slope=2.0, intercept=0.0)
        config = quick_config(
            seed=1,
            n_phases=2,
            discovery=DiscoveryParams(rules_per_phase=8, max_iter=150),
        )
        model = fit(data, config)
        rng = np.random.default_rng(0)
        x_test = rng.uniform(-1, 1, size=(200, 1))
        y_test = 2.0 * x_test[:, 0]
        mse = float(np.mean((model.predict(x_test) - y_test) ** 2))
        assert mse <= 0.01 * np.var(y_test)

    def test_phase_fitness_monotone(self):
        data = linear_dataset(n=100, seed=4)
        model = fit(data, quick_config(seed=2, n_phases=5))
        fitnesses = [entry.best_fitness for entry in model.history]
        assert all(b >= a for a, b in zip(fitnesses, fitnesses[1:]))

    def test_pool_growth_matches_history(self):
        data = linear_dataset(n=80, seed=5)
        model = fit(data, quick_config(seed=3, n_phases=4))
        sizes = [entry.pool_size for entry in model.history]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(model.pool)

    def test_stored_best_reproducible_by_reevaluation(self):
        data = linear_dataset(n=80, seed=6)
        model = fit(data, quick_config(seed=4))
        table = RulePredictionTable.build(model.pool, data.features)
        (mse,), (complexity,), (fitness,) = evaluate_candidate(
            model.best.genome[None], data, model.config.composition, table
        )
        assert mse == model.best.cached_mse
        assert complexity == model.best.cached_complexity
        assert fitness == model.best.cached_fitness

    def test_final_residual_identity(self):
        data = linear_dataset(n=80, seed=7)
        model = fit(data, quick_config(seed=5))
        residuals = solution_residuals(model.best, model.pool, data)
        np.testing.assert_array_equal(residuals, data.targets - model.predict(data.features))

    def test_residual_mse_equals_cached_mse_bitwise(self):
        data = linear_dataset(n=80, seed=13)
        model = fit(data, quick_config(seed=10))
        residuals = solution_residuals(model.best, model.pool, data)
        assert float(np.mean(residuals**2)) == model.best.cached_mse

    def test_discovery_failure_raises(self, monkeypatch):
        # Discovery always returns rules_per_phase rules; were it to return
        # none, composition would refuse the empty pool.
        data = linear_dataset(n=40, seed=8)
        monkeypatch.setattr(rulemix.training, "discover_rules", lambda *args: [])
        with pytest.raises(ValueError, match="empty pool"):
            fit(data, quick_config())

    def test_pool_is_append_only(self, monkeypatch):
        # Each phase composes from the previous phase's rules, the same
        # objects in the same order, followed by rules_per_phase new ones.
        compose = rulemix.training.compose
        pools = []

        def recording_compose(pool, *args):
            pools.append(pool)
            return compose(pool, *args)

        monkeypatch.setattr(rulemix.training, "compose", recording_compose)
        config = quick_config(seed=5, n_phases=3)
        fit(linear_dataset(n=80, seed=10), config)
        assert len(pools) == 3
        for previous, pool in zip([()] + pools, pools):
            assert len(pool) == len(previous) + config.discovery.rules_per_phase
            assert all(kept is rule for kept, rule in zip(previous, pool[: len(previous)], strict=True))

    def test_every_fitted_box_holds_a_row_its_stack_shares(self, monkeypatch):
        # Seed boxes hold their seed row and children only grow their
        # parent, so no fit, the one-box seed fits included, sees an empty
        # box or a stack without a common row.
        fitter_fit = RuleFitter.fit
        stacks = []

        def recording_fit(self, lowers, uppers):
            masks = match_masks(lowers, uppers, np.ascontiguousarray(self.data.features.T))
            stacks.append(masks)
            return fitter_fit(self, lowers, uppers)

        monkeypatch.setattr(rulemix.model.RuleFitter, "fit", recording_fit)
        config = quick_config(seed=2, n_phases=3)
        fit(linear_dataset(n=80, seed=4), config)
        assert sum(len(masks) == 1 for masks in stacks) == 3 * config.discovery.rules_per_phase
        assert any(len(masks) == config.discovery.lambda_ for masks in stacks)
        for masks in stacks:
            assert masks.any(axis=1).all()
            assert masks.all(axis=0).any()

    def test_growth_scale_beyond_the_float_range(self):
        # sigma times a feature's range overflows to an infinite scale, which
        # grows every bound to the observed one; the suite turns a
        # floating-point warning into an error.
        data = linear_dataset(n=40, seed=7)
        discovery = DiscoveryParams(mutation_sigma=1e308, sigma_init=1e308, rules_per_phase=2, max_iter=20)
        model = fit(data, quick_config(discovery=discovery, n_phases=2))
        for rule in model.pool:
            assert rule.lower.tolist() == data.feature_bounds[:, 0].tolist()
            assert rule.upper.tolist() == data.feature_bounds[:, 1].tolist()
        # A small seed box, whose children grow to the observed bounds.
        fit(data, quick_config(discovery=replace(discovery, sigma_init=0.1), n_phases=2))

    def test_early_stop_shortens_history(self, monkeypatch):
        # With the best fitness flat, every phase after the first stalls, so
        # an early-stopped fit quits after 1 + EARLY_STOP_PHASES phases.
        compose = rulemix.training.compose

        def flat_compose(*args):
            best, genomes = compose(*args)
            return replace(best, cached_fitness=0.5), genomes

        monkeypatch.setattr(rulemix.training, "compose", flat_compose)
        data = linear_dataset(n=80, seed=9, noise=0.0)
        full = fit(data, quick_config(seed=6, n_phases=8))
        stopped = fit(data, quick_config(seed=6, n_phases=8, early_stop=True))
        assert len(full.history) == 8
        assert len(stopped.history) == 1 + EARLY_STOP_PHASES
        assert stopped.history == full.history[: len(stopped.history)]

    def test_ridge_lambda_lives_in_discovery(self):
        config = TrainingConfig(discovery=DiscoveryParams(ridge_lambda=0.125))
        assert config.discovery.ridge_lambda == 0.125
        assert not hasattr(config, "ridge_lambda")

    def test_zero_ridge_lambda_on_rank_deficient_data(self, tmp_path):
        # A constant column and every row twice: no matched subsample has a
        # full-rank design, so only least squares can fit it.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 40)
        X = np.tile(np.column_stack([x, np.full(40, 2.5)]), (2, 1))
        data = Dataset(X, np.abs(X[:, 0]))
        discovery = replace(quick_config().discovery, ridge_lambda=0.0)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model = fit(data, quick_config(seed=4, discovery=discovery))
            save_model(model, str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(model.pool) == model.config.n_phases * discovery.rules_per_phase
        for rule in model.pool:
            assert rule.experience >= 1
            assert np.all(np.isfinite(rule.coefficients))
            assert np.isfinite(rule.intercept)
            assert np.isfinite(rule.in_sample_error)

    def test_features_of_order_1e8(self):
        # Seed boxes of one or two rows in features this large have singular
        # ridge systems once the penalty rounds away.
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, (20, 2))
        model = fit(Dataset(1e8 * X, np.abs(X[:, 0]) + X[:, 1]), quick_config())
        assert all(np.all(np.isfinite(rule.coefficients)) for rule in model.pool)


class TestFittable:
    """Fits refuse data whose sums of squares would overflow, and take the
    rest, however small."""

    @staticmethod
    def rows(n=40):
        X = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 2))
        return X, np.abs(X[:, 0]) + X[:, 1]

    @pytest.mark.parametrize("scale", [1e153, 1e300])
    def test_large_targets_rejected(self, scale):
        X, y = self.rows()
        for ridge_lambda in (0.01, 0.0):
            config = quick_config(discovery=DiscoveryParams(ridge_lambda=ridge_lambda))
            with pytest.raises(DataError, match="training targets reach .* a fit on 40 rows needs at most"):
                fit(Dataset(X, scale * y), config)

    @pytest.mark.parametrize("scale", [1e153, 1e307])
    def test_large_features_rejected(self, scale):
        X, y = self.rows()
        for ridge_lambda in (0.01, 0.0):
            config = quick_config(discovery=DiscoveryParams(ridge_lambda=ridge_lambda))
            with pytest.raises(DataError, match="training features reach .* a fit on 40 rows needs at most"):
                fit(Dataset(scale * X, y), config)

    def test_limit_follows_row_count(self):
        # sqrt(largest float) / 2n: about 3.4e152 for 20 rows, 3.4e151 for 200.
        X, y = self.rows(200)
        fit(Dataset(X[:20], 1e152 * y[:20]), quick_config())
        with pytest.raises(DataError, match="a fit on 200 rows"):
            fit(Dataset(X, 1e152 * y), quick_config())

    @pytest.mark.parametrize("ridge_lambda", [0.01, 0.0])
    @pytest.mark.parametrize(
        "x_scale, y_scale",
        [(1e-150, 1.0), (1.0, 1e-120), (1e-155, 1.0), (1e-160, 1e100), (1e-310, 1.0), (1e150, 1e150)],
    )
    def test_small_and_large_values_fit(self, x_scale, y_scale, ridge_lambda):
        # Features whose squares are subnormal still fit. Subnormal features,
        # whose squares underflow to 0, fit flat by least squares.
        X, y = self.rows()
        config = quick_config(discovery=DiscoveryParams(ridge_lambda=ridge_lambda))
        model = fit(Dataset(x_scale * X, y_scale * y), config)
        assert all(np.all(np.isfinite(rule.coefficients)) for rule in model.pool)
        if x_scale < 1e-300 and ridge_lambda == 0:
            assert all(not np.any(rule.coefficients) for rule in model.pool)

    def test_slope_beyond_float_range_rejected(self):
        # Least squares on features of 1e-160 and targets of 1e150 needs a
        # slope of about 1e310, which is not a float.
        X, y = self.rows()
        with pytest.raises(DataError, match="a fitted slope exceeds the float range"):
            fit(Dataset(1e-160 * X, 1e150 * y), quick_config(discovery=DiscoveryParams(ridge_lambda=0.0)))


@pytest.fixture(scope="module")
def abs_model():
    """A fit of y = 3|x| on 200 rows of x in [-1, 1]."""
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(200, 1))
    return fit(Dataset(X, 3.0 * np.abs(X[:, 0])), quick_config())


class TestModelParts:
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda model: dict(feature_names=()), "feature_names must be None or a tuple of 1 strings"),
            (lambda model: dict(target_column=3), "target_column must be None or a str"),
            (lambda model: dict(feature_bounds=model.feature_bounds[:, ::-1]), "feature_bounds must hold"),
            (
                lambda model: dict(feature_bounds=np.tile(model.feature_bounds, (2, 1))),
                "rule 0 vectors must have length 2",
            ),
            (
                lambda model: dict(best=SolutionCandidate(np.zeros(len(model.pool) - 1, dtype=bool), 0.0, 0, 0.0)),
                "best genome length",
            ),
            (lambda model: dict(feature_bounds=np.empty((0, 2))), "feature_bounds must be a non-empty"),
            (lambda model: dict(feature_bounds=np.zeros((1, 3))), "feature_bounds must be a non-empty"),
            (lambda model: dict(feature_bounds=[[0.0, 1.0], [0.0]]), "feature_bounds must be a non-empty"),
            (lambda model: dict(feature_bounds=[[0.0, np.inf]]), "feature_bounds must hold"),
            (lambda model: dict(default_prediction=float("nan")), "default_prediction must be a finite number"),
            (lambda model: dict(default_prediction=-np.inf), "default_prediction must be a finite number"),
            (lambda model: dict(default_prediction="abc"), "default_prediction must be a finite number"),
            (lambda model: dict(default_prediction=True), "default_prediction must be a finite number"),
        ],
        ids=[
            "names-empty",
            "target-int",
            "bounds-reversed",
            "bounds-2-rows",
            "genome-short",
            "bounds-none",
            "bounds-3-wide",
            "bounds-ragged",
            "bounds-inf",
            "default-nan",
            "default-inf",
            "default-str",
            "default-bool",
        ],
    )
    def test_broken_relation_rejected(self, abs_model, change, message):
        with pytest.raises(ValueError, match=message):
            replace(abs_model, **change(abs_model))

    @pytest.mark.parametrize("default", [np.int64(2), 2, np.float32(2.0)])
    def test_default_prediction_kept_as_float(self, abs_model, default):
        model = replace(abs_model, default_prediction=default)
        assert type(model.default_prediction) is float and model.default_prediction == 2.0


class TestPredict:
    def test_far_out_finite_rows_get_the_default_with_no_warning(self, abs_model):
        # Off their boxes the rules' predictions overflow; tier-1 turns any
        # warning into an error. Rows at 5 are unmatched too, and mix the same.
        far = abs_model.predict([[1.7e308], [0.5], [-1.7e308]])
        near = abs_model.predict([[5.0], [0.5], [-5.0]])
        assert far.tobytes() == near.tobytes()
        assert far[0] == far[2] == abs_model.default_prediction
        rules = [rule for _, rule in abs_model.selected_rules()]
        table = RulePredictionTable.build(rules, np.array([[1.7e308], [-1.7e308]]))
        assert not table.weighted_predictions.any()

    def test_prediction_not_finite_inside_its_box_warns(self):
        rule = Rule([0.0], [1e300], [1e10], 0.0, 5, 0.1)
        with pytest.warns(RuntimeWarning, match="not finite on a row inside its box"):
            table = RulePredictionTable.build([rule], np.array([[1e300], [2e300]]))
        assert table.weighted_predictions[0, 0] == np.inf
        assert table.weighted_predictions[0, 1] == 0.0

    def test_prediction_not_finite_inside_its_box_warns_once(self):
        # The one warning is build's. A lone genome is mixed beside a copy of
        # itself, so no 0 * inf in a padding row adds an "invalid value" one.
        rule = Rule([0.0], [1e300], [1e10], 0.0, 5, 0.1)
        best = SolutionCandidate(np.array([True]), 0.0, 1, 0.0)
        model = Model((rule,), best, 0.0, [[0.0, 1e300]], TrainingConfig(), ())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prediction = model.predict([[1e300]])
        assert [str(warning.message) for warning in caught] == [
            "a rule's prediction is not finite on a row inside its box"
        ]
        assert prediction[0] == np.inf

    def test_exact_cover_returns_training_targets(self):
        data = linear_dataset(n=50, noise=0.0, slope=2.0, intercept=1.0)
        model = exact_cover_model(data, 2.0, 1.0)
        np.testing.assert_allclose(model.predict(data.features), data.targets, atol=1e-15)

    def test_unmatched_input_gets_default(self):
        data = linear_dataset(n=50, noise=0.0)
        model = exact_cover_model(data, 2.0, 1.0)
        outside = np.array([[5.0]])
        assert model.predict(outside)[0] == model.default_prediction

    def test_batch_equals_per_row(self):
        data = linear_dataset(n=60, seed=10)
        model = fit(data, quick_config(seed=7))
        X = np.random.default_rng(1).uniform(-1.2, 1.2, size=(30, 1))
        batch = model.predict(X)
        per_row = [
            predict_mixed(model.best, model.pool, x, model.default_prediction) for x in X
        ]
        np.testing.assert_allclose(batch, per_row, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        data = linear_dataset(n=50)
        model = exact_cover_model(data, 2.0, 1.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, abs_model, value):
        # Such a row lies in no box, so it would get the default prediction.
        with pytest.raises(ValueError, match="non-finite"):
            abs_model.predict([[0.5], [value]])


class TestScore:
    def test_perfect_predictions(self):
        data = linear_dataset(n=50, noise=0.0, slope=2.0, intercept=1.0)
        model = exact_cover_model(data, 2.0, 1.0)
        metrics = model.score(data)
        assert metrics["mse"] <= 1e-30
        assert metrics["r2"] == pytest.approx(1.0, abs=1e-15)
        assert metrics["complexity"] == 1
        assert metrics["pool_size"] == 1
        assert metrics["mean_rule_volume"] == pytest.approx(1.0)

    def test_constant_mean_predictor_scores_r2_zero(self):
        data = linear_dataset(n=50, noise=0.0)
        rule = Rule(*data.feature_bounds.T, np.zeros(1), 0.0, data.n_samples, 1.0, 0.5)
        model = Model(
            pool=(rule,),
            best=SolutionCandidate(np.array([False]), 0.0, 0, 0.0),
            default_prediction=float(data.targets.mean()),
            feature_bounds=data.feature_bounds,
            config=quick_config(),
            history=(),
        )
        assert model.score(data)["r2"] == pytest.approx(0.0, abs=1e-12)

    def test_training_metrics_match_stored_history(self):
        data = linear_dataset(n=80, seed=11)
        model = fit(data, quick_config(seed=8))
        metrics = model.score(data)
        assert metrics["mse"] == pytest.approx(model.history[-1].mse, abs=1e-12)
        assert metrics["complexity"] == model.history[-1].complexity
        assert metrics["pool_size"] == model.history[-1].pool_size


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(n_phases=0)
    with pytest.raises(ValueError):
        TrainingConfig(discovery=DiscoveryParams(ridge_lambda=-1.0))
    assert replace(TrainingConfig(), rng_seed=9).rng_seed == 9


def test_negative_rng_seed_rejected():
    with pytest.raises(ValueError, match="rng_seed"):
        TrainingConfig(rng_seed=-5)
