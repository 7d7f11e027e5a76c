"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

import rulemix as rm
from rulemix.composition import compose, evaluate_candidate
from rulemix.discovery import discover_rule, initial_condition
from rulemix.fitness import combine, pseudo_accuracy, volume_share
from rulemix.io.cli import cli
from rulemix.model import RulePredictionTable, fit_rule

from conftest import grow_condition, rig_scorer


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    print(f"[criterion {number:02d}] PASS {name}")


NOISE_SIGMA = 0.05


def line_problem(seed: int):
    """y = 2x + 1 with gaussian noise; train spans [-1, 1] exactly."""
    rng = np.random.default_rng(1000 + seed)
    x_train = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
    y_train = 2 * x_train[:, 0] + 1 + rng.normal(0.0, NOISE_SIGMA, 200)
    x_test = rng.uniform(-1.0, 1.0, size=(200, 1))
    y_test = 2 * x_test[:, 0] + 1 + rng.normal(0.0, NOISE_SIGMA, 200)
    return rm.Dataset(x_train, y_train), x_test, y_test


@pytest.fixture(scope="module")
def line_models():
    """Default-config fits on the criterion-7 problem, one per seed.

    Shared by criteria 7 and 10.
    """
    fits = []
    for seed in range(5):
        train, x_test, y_test = line_problem(seed)
        model = rm.fit(train, rm.TrainingConfig(rng_seed=seed))
        fits.append((seed, model, x_test, y_test))
    return fits


def test_criterion_01_fitness_identities():
    with criterion(1, "fitness combination identities and monotonicity"):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.05, 5.0))
            assert abs(combine(v, v, alpha) - v) <= 1e-12
        for o1 in np.linspace(0.0, 1.0, 11):
            assert combine(float(o1), 0.0, 1.0) == 0.0
        grid = np.linspace(0.0, 1.0, 50)
        for alpha in (0.5, 1.0, 2.0):
            values = np.array([[combine(float(a), float(b), alpha) for b in grid] for a in grid])
            assert np.all(np.diff(values, axis=0) >= 0.0)  # monotone in o1
            assert np.all(np.diff(values, axis=1) >= 0.0)  # monotone in o2


def test_criterion_02_pseudo_accuracy():
    with criterion(2, "error squashing matches closed form and decreases"):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            mse = float(rng.uniform(0.0, 20.0))
            beta = float(rng.uniform(0.1, 5.0))
            assert abs(pseudo_accuracy(mse, beta) - math.exp(-mse * beta)) <= 1e-12
        values = [pseudo_accuracy(m, 2.0) for m in np.linspace(0.0, 8.0, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_criterion_03_volume_monotone_under_growth():
    with criterion(3, "volume share: full range is 1, growth never shrinks it"):
        rng = np.random.default_rng(2)
        chains = 0
        while chains < 1000:
            d = int(rng.integers(1, 5))
            X = rng.uniform(-3.0, 3.0, size=(30, d))
            data = rm.Dataset(X, rng.normal(size=30))
            assert volume_share(*data.feature_bounds.T, data.feature_bounds) == 1.0
            x = X[int(rng.integers(0, 30))]
            cond = initial_condition(x, data, 0.1, rng)
            previous = volume_share(*cond, data.feature_bounds)
            for _ in range(8):
                cond = grow_condition(cond, data, float(rng.uniform(0.01, 0.3)), rng)
                current = volume_share(*cond, data.feature_bounds)
                assert current >= previous
                previous = current
            chains += 1


def test_criterion_04_ridge_normal_equation_oracle():
    with criterion(4, "ridge fits match the normal-equation oracle to 1e-8"):
        rng = np.random.default_rng(3)
        lambdas = [0.0, 0.1, 10.0]
        for case in range(100):
            # n > d + 1 keeps the plain normal equations nonsingular, so the
            # oracle is well defined for ridge_lambda = 0 as well
            d = int(rng.integers(1, 6))
            n = int(rng.integers(max(5, d + 2), 51))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            lam = lambdas[case % 3]
            data = rm.Dataset(X, y)
            rule = fit_rule(*data.feature_bounds.T, data, lam)
            # oracle: augmented design matrix, intercept left unpenalized
            Xa = np.column_stack([np.ones(n), X])
            penalty = lam * np.eye(d + 1)
            penalty[0, 0] = 0.0
            beta = np.linalg.solve(Xa.T @ Xa + penalty, Xa.T @ y)
            assert rule.experience == n
            np.testing.assert_allclose(rule.coefficients, beta[1:], atol=1e-8)
            assert abs(rule.intercept - beta[0]) <= 1e-8


def _ten_rule_pool():
    rng = np.random.default_rng(77)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    y = X[:, 0] ** 2 + 0.5 * X[:, 1] + rng.normal(0.0, 0.05, 60)
    data = rm.Dataset(X, y)
    rules = []
    while len(rules) < 10:
        x = data.features[int(rng.integers(0, data.n_samples))]
        rule = fit_rule(*initial_condition(x, data, 0.4, rng), data, 0.01)
        if not rule.is_degenerate:
            rules.append(rule)
    return tuple(rules), data


def test_criterion_05_ga_matches_brute_force():
    with criterion(5, "composition reaches the enumerated optimum"):
        pool, data = _ten_rule_pool()
        params = rm.CompositionParams(population_size=64, generations_per_phase=200)
        table = RulePredictionTable.build(pool, data.features)
        genomes = np.array(list(itertools.product([False, True], repeat=10)))
        _, _, fitness = evaluate_candidate(genomes, data, params, table)
        optimum = fitness.max()
        near, exact = 0, 0
        for seed in range(10):
            best, _ = compose(pool, data, params, np.random.default_rng(seed))
            if best.cached_fitness >= 0.95 * optimum:
                near += 1
            if best.cached_fitness == optimum:
                exact += 1
        assert near == 10
        assert exact >= 8


def test_criterion_06_stall_window_termination(monkeypatch):
    with criterion(6, "stall window stops at t+delta and returns the peak elitist"):
        data, _, _ = line_problem(0)
        t, delta, lam = 7, 3, 4
        calls = []

        def rigged(box, iteration):
            calls.append(iteration)
            return 1.0 / (1.0 + abs(t - iteration))  # peak 1.0 at iteration t

        rig_scorer(monkeypatch, rigged)
        params = rm.DiscoveryParams(lambda_=lam, delta=delta, max_iter=500)
        returned = discover_rule(data, np.ones(200), params, np.random.default_rng(5))
        assert max(calls) == t + delta  # stopped exactly at iteration t+3
        assert len(calls) == 1 + (t + delta) * lam
        assert returned.fitness == 1.0  # the iteration-t elitist


def test_criterion_07_line_recovery(line_models):
    with criterion(7, "noisy line recovered within 2 sigma^2 by few rules"):
        budget = 2 * NOISE_SIGMA**2
        for seed, model, x_test, y_test in line_models:
            mse = float(np.mean((model.predict(x_test) - y_test) ** 2))
            assert mse <= budget, f"seed {seed}: test mse {mse} > {budget}"
            assert model.best.cached_complexity <= 5, f"seed {seed}: complexity too high"


def test_criterion_08_piecewise_target_beats_global_linear():
    with criterion(8, "mixture of local rules beats any single global line"):
        x_train = np.linspace(-1.0, 1.0, 400).reshape(-1, 1)
        train = rm.Dataset(x_train, np.abs(x_train[:, 0]))
        rng = np.random.default_rng(2024)
        x_test = rng.uniform(-1.0, 1.0, size=(400, 1))
        y_test = np.abs(x_test[:, 0])

        # oracle: the best single global line, fitted by least squares
        Xa = np.column_stack([np.ones(400), x_train])
        beta = np.linalg.lstsq(Xa, train.targets, rcond=None)[0]
        oracle_mse = float(np.mean((beta[0] + beta[1] * x_test[:, 0] - y_test) ** 2))
        assert oracle_mse > 0.05  # ~Var(|x|) = 1/12

        model = rm.fit(train, rm.TrainingConfig(rng_seed=0))
        mse = float(np.mean((model.predict(x_test) - y_test) ** 2))
        assert mse <= 0.01
        assert mse < oracle_mse
        assert model.best.cached_complexity >= 2


def test_criterion_09_cli_fit_determinism(tmp_path):
    with criterion(9, "identical seeds produce byte-identical model files"):
        data, _, _ = line_problem(3)
        csv_path = tmp_path / "train.csv"
        lines = ["x,y"] + [
            f"{format(x, '.17g')},{format(y, '.17g')}"
            for x, y in zip(data.features[:, 0], data.targets)
        ]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "default.conf"
        config.write_text("# defaults\n", encoding="utf-8")
        outputs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            code = cli(
                [
                    "fit",
                    "--data", str(csv_path),
                    "--target", "y",
                    "--config", str(config),
                    "--out", str(out),
                    "--seed", "17",
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_10_monotone_phase_progress(line_models):
    with criterion(10, "per-phase best fitness never decreases"):
        for seed, model, _, _ in line_models:
            assert len(model.history) == 8
            fitnesses = [entry.best_fitness for entry in model.history]
            assert all(
                later >= earlier for earlier, later in zip(fitnesses, fitnesses[1:])
            ), f"seed {seed}: fitness decreased across phases"
