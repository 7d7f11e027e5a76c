import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulemix import (
    FitnessParams,
    candidate_fitness,
    combine,
    pseudo_accuracy,
    rule_fitness,
    volume_share,
)

unit = st.floats(0.0, 1.0, allow_nan=False)
alphas = st.floats(0.01, 10.0, allow_nan=False)


class TestCombine:
    @given(unit, alphas)
    def test_diagonal_identity(self, v, alpha):
        assert combine(v, v, alpha) == pytest.approx(v, abs=1e-12)

    def test_zero_objective_zeroes_result(self):
        assert combine(0.7, 0.0, 1.0) == 0.0
        assert combine(0.0, 0.7, 1.0) == 0.0
        assert combine(0.0, 0.0, 2.0) == 0.0

    def test_alpha_one_harmonic_mean(self):
        assert combine(0.5, 1.0, 1.0) == pytest.approx(2 * 0.5 * 1.0 / 1.5, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combine(1.1, 0.5, 1.0)
        with pytest.raises(ValueError):
            combine(0.5, -0.1, 1.0)
        with pytest.raises(ValueError):
            combine(0.5, 0.5, 0.0)

    @given(
        st.floats(0.001, 1.0),
        st.floats(0.001, 1.0),
        alphas,
    )
    def test_bounded_by_objectives(self, o1, o2, alpha):
        value = combine(o1, o2, alpha)
        assert min(o1, o2) - 1e-12 <= value <= max(o1, o2) + 1e-12

    def test_strictly_increasing_in_each_argument(self):
        grid = np.linspace(0.02, 1.0, 30)
        for alpha in (0.3, 1.0, 3.0):
            for fixed in (0.1, 0.5, 0.9):
                along_o1 = [combine(v, fixed, alpha) for v in grid]
                along_o2 = [combine(fixed, v, alpha) for v in grid]
                assert all(b > a for a, b in zip(along_o1, along_o1[1:]))
                assert all(b > a for a, b in zip(along_o2, along_o2[1:]))

    def test_alpha_shifts_weight_toward_second_objective(self):
        # alpha -> 0 recovers o1, alpha -> inf recovers o2
        assert combine(0.9, 0.1, 1e-6) == pytest.approx(0.9, abs=1e-4)
        assert combine(0.9, 0.1, 1e6) == pytest.approx(0.1, abs=1e-4)


class TestPseudoAccuracy:
    def test_zero_error_gives_one(self):
        assert pseudo_accuracy(0.0, 2.0) == 1.0
        assert pseudo_accuracy(0.0, 17.3) == 1.0

    def test_analytic_half_point(self):
        assert pseudo_accuracy(math.log(2) / 2, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_huge_error_underflows_cleanly(self):
        value = pseudo_accuracy(1e6, 2.0)
        assert value >= 0.0
        assert math.isfinite(value)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            pseudo_accuracy(-1e-9, 2.0)

    def test_strictly_decreasing_in_mse_and_beta(self):
        mses = np.linspace(0.0, 5.0, 50)
        values = [pseudo_accuracy(m, 2.0) for m in mses]
        assert all(b < a for a, b in zip(values, values[1:]))
        betas = np.linspace(0.5, 8.0, 20)
        values = [pseudo_accuracy(1.0, b) for b in betas]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestVolumeShare:
    bounds = np.array([[-1.0, 1.0], [0.0, 4.0]])

    def test_full_range_is_one(self):
        lower, upper = np.array([-1.0, 0.0]), np.array([1.0, 4.0])
        assert volume_share(lower, upper, self.bounds) == 1.0

    def test_half_per_dimension(self):
        lower, upper = np.array([-0.5, 1.0]), np.array([0.5, 3.0])
        assert volume_share(lower, upper, self.bounds) == pytest.approx(0.25, abs=1e-15)

    def test_zero_width_condition_dimension(self):
        lower, upper = np.array([0.0, 1.0]), np.array([0.0, 3.0])
        assert volume_share(lower, upper, self.bounds) == 0.0

    def test_constant_feature_contributes_factor_one(self):
        flat = np.array([[-1.0, 1.0], [2.0, 2.0]])
        lower, upper = np.array([-1.0, 2.0]), np.array([0.0, 2.0])
        assert volume_share(lower, upper, flat) == pytest.approx(0.5, abs=1e-15)


class TestRuleFitness:
    bounds = np.array([[-1.0, 1.0]])

    def _score(self, error, params, lower=-1.0, upper=1.0):
        """The fitness of one box ``[lower, upper]`` with in-sample ``error``."""
        (fitness,) = rule_fitness(np.array([error]), np.array([[lower]]), np.array([[upper]]), self.bounds, params)
        return fitness

    def test_perfect_full_volume_rule(self):
        params = FitnessParams(alpha=0.5, beta=2.0)
        assert self._score(0.0, params) == 1.0

    def test_degenerate_rule_scores_zero(self):
        # An empty box carries infinite error.
        assert self._score(np.inf, FitnessParams()) == 0.0

    def test_analytic_composition(self):
        params = FitnessParams(alpha=1.0, beta=2.0)
        assert self._score(math.log(2) / 2, params, lower=-1.0, upper=0.0) == pytest.approx(0.5, abs=1e-12)

    def test_stack_scores_each_box_as_the_one_box_formulas(self):
        rng = np.random.default_rng(3)
        bounds = np.array([[-1.0, 1.0], [0.0, 4.0], [2.0, 2.0]])
        a, b = rng.uniform(bounds[:, 0], bounds[:, 1], size=(2, 400, 3))
        lowers, uppers = np.minimum(a, b), np.maximum(a, b)
        errors = rng.exponential(0.3, size=400)
        # An empty box, and a zero-volume box whose accuracy underflows to 0.
        errors[:2] = [np.inf, 1e3]
        lowers[1, 0] = uppers[1, 0]
        params = FitnessParams(alpha=0.3, beta=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitness = rule_fitness(errors, lowers, uppers, bounds, params)
        one_box = [
            combine(pseudo_accuracy(error, params.beta), float(volume_share(lower, upper, bounds)), params.alpha)
            for error, lower, upper in zip(errors.tolist(), lowers, uppers)
        ]
        assert fitness.tolist() == one_box
        assert pseudo_accuracy(1e3, params.beta) == 0.0 and volume_share(lowers[1], uppers[1], bounds) == 0.0
        assert fitness[:2].tolist() == [0.0, 0.0]
        assert rule_fitness(np.empty(0), np.empty((0, 3)), np.empty((0, 3)), bounds, params).shape == (0,)


class TestCandidateFitness:
    def test_perfect_empty_candidate(self):
        assert candidate_fitness(0.0, 0, 10, FitnessParams()) == 1.0

    def test_full_complexity_scores_zero(self):
        assert candidate_fitness(0.001, 10, 10, FitnessParams()) == 0.0

    def test_analytic_half_point(self):
        params = FitnessParams(alpha=1.0, beta=2.0)
        assert candidate_fitness(math.log(2) / 2, 5, 10, params) == pytest.approx(0.5, abs=1e-12)

    def test_complexity_above_pool_rejected(self):
        with pytest.raises(ValueError):
            candidate_fitness(0.0, 11, 10, FitnessParams())

    def test_strictly_decreasing_in_complexity(self):
        params = FitnessParams()
        values = [candidate_fitness(0.05, c, 20, params) for c in range(21)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(alpha=0.0)
    with pytest.raises(ValueError):
        FitnessParams(beta=-1.0)
