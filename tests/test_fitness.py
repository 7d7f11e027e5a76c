import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rulemix.fitness
from rulemix import FitnessParams
from rulemix.fitness import candidate_fitness, combine, pseudo_accuracy, rule_fitness, volume_share

from conftest import reference_candidate_fitness, reference_combine, reference_pseudo_accuracy

unit = st.floats(0.0, 1.0, allow_nan=False)
alphas = st.floats(0.01, 10.0, allow_nan=False)
# The largest alpha FitnessParams takes: the next float up has an infinite square.
LARGEST_ALPHA = math.sqrt(sys.float_info.max)


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

    @given(
        st.floats(0.001, 1.0),
        st.floats(0.001, 1.0),
        alphas,
    )
    @example(0.5, 0.25, LARGEST_ALPHA)
    @example(1.0, 1.0, LARGEST_ALPHA)
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
            reference_combine(
                reference_pseudo_accuracy(error, params.beta), float(volume_share(lower, upper, bounds)), params.alpha
            )
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


fitness_params = st.builds(FitnessParams, alphas, st.floats(0.01, 10.0))
# Non-negative errors, infinite ones (an empty box) included.
errors = st.floats(0.0, allow_nan=False)


@st.composite
def box_stacks(draw):
    """(errors, lowers, uppers, feature_bounds) of up to six boxes over up
    to three features; features may have zero range and boxes zero width."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    lows = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    widths = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=d, max_size=d)))
    fraction = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    a, b = (np.array(draw(st.lists(fraction, min_size=k * d, max_size=k * d))).reshape(k, d) for _ in "ab")
    # lows + f * widths is monotone in f, so every box lies in the bounds.
    lowers, uppers = lows + np.minimum(a, b) * widths, lows + np.maximum(a, b) * widths
    stack_errors = np.array(draw(st.lists(errors, min_size=k, max_size=k)), dtype=float)
    return stack_errors, lowers, uppers, np.column_stack([lows, lows + widths])


@st.composite
def candidate_stacks(draw):
    """(mse, complexity, pool_size) of up to eight candidates."""
    pool_size = draw(st.integers(1, 50))
    complexity = draw(st.lists(st.integers(0, pool_size), max_size=8))
    mse = draw(st.lists(errors, min_size=len(complexity), max_size=len(complexity)))
    return mse, complexity, pool_size


class TestStacksMatchTheScalarFormulas:
    """Every entry of a stack has the bits of the scalar reference formulas."""

    @given(box_stacks(), fitness_params)
    @example(
        # Both objectives 0: an infinite error in a zero-volume box.
        (np.array([np.inf, 0.0]), np.array([[0.5], [0.0]]), np.array([[0.5], [1.0]]), np.array([[0.0, 1.0]])),
        FitnessParams(),
    )
    @example(
        # A zero-range feature contributes factor 1.
        (np.array([0.25]), np.array([[2.0, 0.0]]), np.array([[2.0, 0.5]]), np.array([[2.0, 2.0], [0.0, 1.0]])),
        FitnessParams(),
    )
    def test_rule_fitness(self, stack, params):
        errors, lowers, uppers, bounds = stack
        fitness = rule_fitness(errors, lowers, uppers, bounds, params)
        reference = [
            reference_combine(
                reference_pseudo_accuracy(error, params.beta), float(volume_share(lower, upper, bounds)), params.alpha
            )
            for error, lower, upper in zip(errors.tolist(), lowers, uppers)
        ]
        assert fitness.shape == errors.shape
        assert fitness.tobytes() == np.array(reference, dtype=float).tobytes()

    @given(candidate_stacks(), fitness_params)
    # Complexity 0 and pool_size, and both objectives 0.
    @example(([0.0, np.inf, 1.0, 0.5], [0, 4, 2, 4], 4), FitnessParams())
    def test_candidate_fitness(self, stack, params):
        mse, complexity, pool_size = stack
        fitness = candidate_fitness(np.array(mse, dtype=float), np.array(complexity, dtype=int), pool_size, params)
        reference = [reference_candidate_fitness(m, c, pool_size, params) for m, c in zip(mse, complexity)]
        assert fitness.tobytes() == np.array(reference, dtype=float).tobytes()
        for m, c, value in zip(mse, complexity, reference):
            assert candidate_fitness(m, c, pool_size, params) == value


REFERENCE = {
    "combine": reference_combine,
    "pseudo_accuracy": reference_pseudo_accuracy,
    "candidate_fitness": reference_candidate_fitness,
}


@pytest.mark.parametrize(
    "name, stack, scalar",
    [
        ("combine", ([0.5, 1.1, 2.0], [0.5, 0.5, 0.5], 1.0), (1.1, 0.5, 1.0)),
        ("combine", ([0.5, np.nan], [0.5, 0.5], 1.0), (np.nan, 0.5, 1.0)),
        ("combine", ([0.5, 0.5], [0.5, -0.1], 1.0), (0.5, -0.1, 1.0)),
        ("pseudo_accuracy", ([0.1, -1e-9, -2.0], 2.0), (-1e-9, 2.0)),
        ("candidate_fitness", ([0.1, -0.5], [1, 2], 10, FitnessParams()), (-0.5, 2, 10, FitnessParams())),
        ("candidate_fitness", ([0.1, 0.2], [1, -1], 10, FitnessParams()), (0.2, -1, 10, FitnessParams())),
        ("candidate_fitness", ([0.1, 0.2, 0.3], [3, 11, 12], 10, FitnessParams()), (0.2, 11, 10, FitnessParams())),
    ],
)
def test_one_bad_entry_raises_the_scalar_error(name, stack, scalar):
    """A stack with one bad entry fails as the reference's scalar call on
    that entry does, and so does the package's scalar call."""
    with pytest.raises(ValueError) as expected:
        REFERENCE[name](*scalar)
    message = f"^{re.escape(str(expected.value))}$"
    with pytest.raises(ValueError, match=message):
        getattr(rulemix.fitness, name)(*scalar)
    with pytest.raises(ValueError, match=message):
        getattr(rulemix.fitness, name)(*stack)


def test_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(alpha=0.0)
    with pytest.raises(ValueError):
        FitnessParams(beta=-1.0)
    assert FitnessParams(alpha=LARGEST_ALPHA).alpha == LARGEST_ALPHA
    for alpha in (1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must have a finite square"):
            FitnessParams(alpha=alpha)
