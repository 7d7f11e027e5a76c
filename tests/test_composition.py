import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.composition
from rulemix import CompositionParams, Dataset, Rule, SolutionCandidate
from rulemix.composition import (
    compose,
    crossover_npoint,
    evaluate_candidate,
    mutate_bits,
    rank_positions,
    tournament_select,
)
from rulemix.discovery import initial_condition
from rulemix.model import RulePredictionTable, fit_rule

from conftest import linear_dataset, reference_candidate_fitness


def build_pool(data: Dataset, count: int, seed: int = 0, sigma: float = 0.3) -> tuple[Rule, ...]:
    """Synthetic pool: rules grown around random training examples."""
    rng = np.random.default_rng(seed)
    rules = []
    while len(rules) < count:
        x = data.features[rng.integers(0, data.n_samples)]
        rule = fit_rule(*initial_condition(x, data, sigma, rng), data, 0.01)
        if not rule.is_degenerate:
            rules.append(rule)
    return tuple(rules)


def candidates(genomes, scores):
    """One ``SolutionCandidate`` per genome row, from its
    ``evaluate_candidate`` scores."""
    return [SolutionCandidate(genome, *row) for genome, *row in zip(genomes, *scores)]


def evaluate(genome, pool, data, params):
    """``evaluate_candidate`` of one genome, with a table built for this pool
    and dataset."""
    table = RulePredictionTable.build(pool, data.features)
    genomes = np.asarray(genome, dtype=bool)[None]
    return candidates(genomes, evaluate_candidate(genomes, data, params, table))[0]


def padded(genomes, n):
    """The (genomes x rules) rows zero-padded to ``n`` rules."""
    genomes = np.asarray(genomes, dtype=bool)
    return np.hstack([genomes, np.zeros((len(genomes), n - genomes.shape[1]), dtype=bool)])


def enumerate_best(pool, data, params):
    """Brute-force oracle: evaluate every genome over the pool."""
    n = len(pool)
    best = None
    for bits in itertools.product([False, True], repeat=n):
        candidate = evaluate(np.array(bits), pool, data, params)
        if best is None or candidate.cached_fitness > best.cached_fitness:
            best = candidate
    return best


class TestEvaluateCandidate:
    def test_all_zeros_is_the_default_predictor(self, square_dataset):
        pool = build_pool(square_dataset, 4)
        params = CompositionParams()
        candidate = evaluate(np.zeros(4, dtype=bool), pool, square_dataset, params)
        default = square_dataset.targets.mean()
        expected_mse = float(np.mean((square_dataset.targets - default) ** 2))
        assert candidate.cached_complexity == 0
        assert candidate.cached_mse == pytest.approx(expected_mse, abs=1e-12)

    def test_deterministic(self, square_dataset):
        pool = build_pool(square_dataset, 5)
        params = CompositionParams()
        genome = np.array([1, 0, 1, 1, 0], dtype=bool)
        a = evaluate(genome, pool, square_dataset, params)
        b = evaluate(genome, pool, square_dataset, params)
        assert (a.cached_mse, a.cached_complexity, a.cached_fitness) == (
            b.cached_mse,
            b.cached_complexity,
            b.cached_fitness,
        )

    def test_cached_fitness_matches_recomputation(self, square_dataset):
        pool = build_pool(square_dataset, 6)
        params = CompositionParams()
        rng = np.random.default_rng(2)
        for _ in range(20):
            genome = rng.random(6) < 0.5
            candidate = evaluate(genome, pool, square_dataset, params)
            assert candidate.cached_fitness == reference_candidate_fitness(
                candidate.cached_mse, candidate.cached_complexity, len(pool), params.fitness
            )

    def test_length_mismatch_rejected(self, square_dataset):
        pool = build_pool(square_dataset, 3)
        with pytest.raises(ValueError):
            evaluate(np.zeros(4, dtype=bool), pool, square_dataset, CompositionParams())

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_row_chunks_give_the_whole_stack_scores(self, square_dataset, monkeypatch, chunk_rows):
        # Seven genomes in chunks of 3 end in a lone genome; a budget under
        # two rows still takes two genomes at a time.
        pool = build_pool(square_dataset, 6, seed=3)
        params = CompositionParams()
        table = RulePredictionTable.build(pool, square_dataset.features)
        genomes = np.random.default_rng(4).random((7, 6)) < 0.5
        whole = candidates(genomes, evaluate_candidate(genomes, square_dataset, params, table))
        monkeypatch.setattr(rulemix.composition, "PRODUCT_FLOATS", chunk_rows * square_dataset.n_samples)
        batches, mixed = [], table.mixed
        monkeypatch.setattr(table, "mixed", lambda stack, default: batches.append(len(stack)) or mixed(stack, default))
        chunked = candidates(genomes, evaluate_candidate(genomes, square_dataset, params, table))
        assert batches == ([3, 3, 1] if chunk_rows == 3 else [2, 2, 2, 1])
        assert [summary(c) for c in chunked] == [summary(c) for c in whole]
        assert [summary(c) for c in whole] == [summary(evaluate(g, pool, square_dataset, params)) for g in genomes]


class TestTournamentSelect:
    def _population(self, fitnesses, complexities=None):
        population = []
        for i, fitness in enumerate(fitnesses):
            complexity = complexities[i] if complexities else 1
            genome = np.zeros(4, dtype=bool)
            genome[:complexity] = True
            population.append(SolutionCandidate(genome, 0.1, complexity, fitness))
        return population

    @staticmethod
    def ranks(population):
        fitness = np.array([candidate.cached_fitness for candidate in population])
        complexity = np.array([candidate.cached_complexity for candidate in population])
        return rank_positions(fitness, complexity)

    def select(self, population, k, rng):
        return population[tournament_select(self.ranks(population), k, rng)]

    def test_k_one_is_uniform(self):
        population = self._population([0.9, 0.1])
        rng = np.random.default_rng(0)
        draws = 10_000
        hits = sum(self.select(population, 1, rng).cached_fitness == 0.9 for _ in range(draws))
        sigma = np.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) <= 3 * sigma

    def test_pairwise_win_probability(self):
        # Oracle: 4 equally likely draw pairs; the fitter member appears in 3.
        population = self._population([0.9, 0.1])
        rng = np.random.default_rng(1)
        draws = 10_000
        expected = 3 / 4
        hits = sum(self.select(population, 2, rng).cached_fitness == 0.9 for _ in range(draws))
        sigma = np.sqrt(expected * (1 - expected) / draws)
        assert abs(hits / draws - expected) <= 3 * sigma

    def test_ties_prefer_lower_complexity(self):
        population = self._population([0.5, 0.5, 0.5], complexities=[3, 1, 2])
        assert self.ranks(population).tolist() == [2, 0, 1]
        rng = np.random.default_rng(2)
        winner = self.select(population, len(population) * 20, rng)
        assert winner.cached_complexity == 1

    def test_full_ties_prefer_earlier_index(self):
        # Equal fitness and complexity: the lowest drawn population index wins,
        # whatever order the draws came in.
        population = self._population([0.5] * 4, complexities=[2] * 4)
        assert self.ranks(population).tolist() == [0, 1, 2, 3]
        for seed in range(20):
            draws = np.random.default_rng(seed).integers(0, 4, size=3)
            winner = self.select(population, 3, np.random.default_rng(seed))
            assert winner is population[draws.min()]

    def test_positions_follow_fitness_then_complexity_then_index(self):
        population = self._population([0.2, 0.9, 0.5, 0.9, 0.5], complexities=[1, 3, 2, 2, 2])
        # Order: index 3 (0.9, 2), 1 (0.9, 3), 2 (0.5, 2), 4 (0.5, 2), 0 (0.2, 1).
        assert self.ranks(population).tolist() == [4, 1, 2, 0, 3]

    def test_winner_is_the_drawn_member_placed_first(self):
        # Oracle: the explicit (-fitness, complexity, index) minimum over the draws.
        rng = np.random.default_rng(3)
        population = self._population(rng.integers(0, 3, size=9) / 4, complexities=list(rng.integers(0, 4, size=9)))
        positions = self.ranks(population)
        for seed in range(50):
            draws = np.random.default_rng(seed).integers(0, 9, size=4)
            expected = min(
                draws, key=lambda i: (-population[i].cached_fitness, population[i].cached_complexity, int(i))
            )
            assert tournament_select(positions, 4, np.random.default_rng(seed)) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 3)),
        max_size=40,
    )
)
def test_rank_positions_match_the_explicit_sort(members):
    # Oracle: the places of the explicit (-fitness, complexity, index) sort;
    # four fitness values and four complexities give many full ties.
    fitness = np.array([f for f, _ in members], dtype=float)
    complexity = np.array([c for _, c in members], dtype=np.intp)
    order = sorted(range(len(members)), key=lambda i: (-members[i][0], members[i][1], i))
    expected = np.empty(len(members), dtype=np.intp)
    expected[order] = np.arange(len(members))
    assert rank_positions(fitness, complexity).tolist() == expected.tolist()


class TestCrossover:
    def test_zero_probability_copies_parents(self):
        rng = np.random.default_rng(0)
        a = np.array([1, 1, 0, 0, 1], dtype=bool)
        b = np.array([0, 1, 1, 0, 0], dtype=bool)
        c1, c2 = crossover_npoint(a, b, 2, 0.0, rng)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)
        assert c1 is not a and c2 is not b

    def test_identical_parents_unchanged(self):
        rng = np.random.default_rng(1)
        a = np.array([1, 0, 1, 0, 1, 1], dtype=bool)
        for _ in range(10):
            c1, c2 = crossover_npoint(a, a.copy(), 3, 1.0, rng)
            assert np.array_equal(c1, a) and np.array_equal(c2, a)

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(1, 5), st.integers(0, 100))
    def test_children_conserve_parent_bits_positionwise(self, abits, bbits, n_points, seed):
        a = np.array([(abits >> i) & 1 for i in range(12)], dtype=bool)
        b = np.array([(bbits >> i) & 1 for i in range(12)], dtype=bool)
        c1, c2 = crossover_npoint(a, b, n_points, 1.0, np.random.default_rng(seed))
        for i in range(12):
            assert {c1[i], c2[i]} == {a[i], b[i]}

    def test_single_point_swaps_a_suffix(self):
        a = np.ones(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        c1, c2 = crossover_npoint(a, b, 1, 1.0, np.random.default_rng(3))
        flips = np.flatnonzero(c1 != a)
        assert np.array_equal(flips, np.arange(flips[0], 8))
        assert np.array_equal(c1 ^ c2, np.ones(8, dtype=bool))

    @pytest.mark.parametrize("n_points", [3, 4, 7])
    def test_multi_cut_segments_match_loop_oracle(self, n_points):
        # Oracle: replay the cut draws, then alternate segments starting with a.
        a = np.ones(12, dtype=bool)
        b = np.zeros(12, dtype=bool)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rng.random()  # the crossover_prob draw
            cuts = np.sort(rng.choice(np.arange(1, 12), size=n_points, replace=False))
            from_a = np.zeros(12, dtype=bool)
            take, start = True, 0
            for cut in [*cuts.tolist(), 12]:
                from_a[start:cut] = take
                take, start = not take, cut
            c1, c2 = crossover_npoint(a, b, n_points, 1.0, np.random.default_rng(seed))
            assert np.array_equal(c1, from_a) and np.array_equal(c2, ~from_a)


class TestMutateBits:
    def test_rate_zero_is_identity(self):
        genome = np.array([1, 0, 1], dtype=bool)
        assert np.array_equal(mutate_bits(genome, 0.0, np.random.default_rng(0)), genome)

    def test_rate_one_is_complement(self):
        genome = np.array([1, 0, 1], dtype=bool)
        assert np.array_equal(mutate_bits(genome, 1.0, np.random.default_rng(0)), ~genome)

    def test_flip_count_within_three_sigma(self):
        genome = np.zeros(1000, dtype=bool)
        flipped = mutate_bits(genome, 0.5, np.random.default_rng(4)).sum()
        sigma = np.sqrt(1000 * 0.25)
        assert abs(flipped - 500) <= 3 * sigma

    def test_bad_rate_rejected(self):
        # mutate_bits takes its rate only from CompositionParams, which
        # refuses a rate outside [0, 1] before any genome is mutated.
        with pytest.raises(ValueError):
            CompositionParams(mutation_rate=1.5)


class TestCompose:
    def test_single_rule_pool_matches_two_genome_enumeration(self):
        # Oracle: evaluate both possible genomes directly.
        data = linear_dataset(n=60, noise=0.0)
        pool = (fit_rule(*data.feature_bounds.T, data, 0.0),)
        params = CompositionParams(population_size=8, generations_per_phase=10, elitists=1)
        on = evaluate(np.array([True]), pool, data, params)
        off = evaluate(np.array([False]), pool, data, params)
        oracle = on if on.cached_fitness >= off.cached_fitness else off
        best, _ = compose(pool, data, params, np.random.default_rng(0))
        assert best.cached_fitness == oracle.cached_fitness

    def test_small_pool_reaches_brute_force_optimum(self, square_dataset):
        pool = build_pool(square_dataset, 6, seed=3)
        params = CompositionParams(population_size=24, generations_per_phase=40)
        oracle = enumerate_best(pool, square_dataset, params)
        best, _ = compose(pool, square_dataset, params, np.random.default_rng(5))
        assert best.cached_fitness >= 0.95 * oracle.cached_fitness

    def test_population_genomes_track_pool_size(self, square_dataset):
        pool = build_pool(square_dataset, 5, seed=1)
        params = CompositionParams(population_size=12, generations_per_phase=5)
        best, genomes = compose(pool, square_dataset, params, np.random.default_rng(1))
        assert genomes.shape == (12, 5) and genomes.dtype == bool
        assert best.genome.shape == (5,)

    def test_warm_start_never_regresses(self, square_dataset):
        pool = build_pool(square_dataset, 6, seed=2)
        params = CompositionParams(population_size=16, generations_per_phase=8, elitists=2)
        rng = np.random.default_rng(9)
        best1, genomes = compose(pool, square_dataset, params, rng)
        best2, _ = compose(pool, square_dataset, params, rng, warm_genomes=genomes)
        assert best2.cached_fitness >= best1.cached_fitness

    def test_warm_start_pads_for_pool_growth(self, square_dataset):
        pool = build_pool(square_dataset, 4, seed=4)
        params = CompositionParams(population_size=10, generations_per_phase=4)
        rng = np.random.default_rng(3)
        _, genomes = compose(pool, square_dataset, params, rng)
        pool += build_pool(square_dataset, 2, seed=8)
        best, new_genomes = compose(pool, square_dataset, params, rng, genomes)
        assert new_genomes.shape == (10, 6)
        assert best.genome.shape == (6,)

    def test_pool_and_rules_untouched(self, square_dataset):
        pool = build_pool(square_dataset, 5, seed=6)

        def arrays():
            return [(rule.lower.tobytes(), rule.upper.tobytes(), rule.coefficients.tobytes()) for rule in pool]

        before = arrays()
        compose(pool, square_dataset, CompositionParams(generations_per_phase=4), np.random.default_rng(2))
        assert arrays() == before

    def test_best_is_at_least_final_population_max(self, square_dataset):
        pool = build_pool(square_dataset, 6, seed=7)
        params = CompositionParams(population_size=14, generations_per_phase=10)
        best, genomes = compose(pool, square_dataset, params, np.random.default_rng(4))
        table = RulePredictionTable.build(pool, square_dataset.features)
        _, _, fitness = evaluate_candidate(genomes, square_dataset, params, table)
        assert best.cached_fitness >= fitness.max()

    def test_empty_pool_rejected(self, square_dataset):
        with pytest.raises(ValueError):
            compose((), square_dataset, CompositionParams(), np.random.default_rng(0))


class TestComposeMemo:
    """``compose`` scores each distinct genome once per call."""

    @staticmethod
    def spy(monkeypatch):
        """Record the genome bytes ``compose`` scores and the children it breeds."""
        scored, children = [], []

        def counting_evaluate(genomes, *args):
            scored.extend(genome.tobytes() for genome in np.asarray(genomes, dtype=bool))
            return evaluate_candidate(genomes, *args)

        def recording_mutate(genome, rate, rng):
            child = mutate_bits(genome, rate, rng)
            children.append(child.tobytes())
            return child

        monkeypatch.setattr(rulemix.composition, "evaluate_candidate", counting_evaluate)
        monkeypatch.setattr(rulemix.composition, "mutate_bits", recording_mutate)
        return scored, children

    def test_one_evaluation_per_distinct_genome(self, square_dataset, monkeypatch):
        # Three rules admit 8 genomes, far fewer than the 12 + 10 * 10 bred.
        pool = build_pool(square_dataset, 3, seed=5)
        params = CompositionParams(population_size=12, generations_per_phase=10, elitists=2)
        scored, children = self.spy(monkeypatch)
        _, warm = compose(pool, square_dataset, params, np.random.default_rng(3))
        # The initial genomes are the first draws of the same stream.
        replay = np.random.default_rng(3)
        initial = [(replay.random(len(pool)) < 0.5).tobytes() for _ in range(params.population_size)]
        assert len(initial) + len(children) > 2 ** len(pool)
        assert len(scored) == len(set(scored))
        assert set(scored) == set(initial) | set(children)

        # A grown pool is a new table: the warm genomes are scored again.
        pool += build_pool(square_dataset, 2, seed=9)
        scored.clear()
        children.clear()
        compose(pool, square_dataset, params, np.random.default_rng(4), warm)
        assert len(scored) == len(set(scored))
        assert set(scored) == {genome.tobytes() for genome in padded(warm, len(pool))} | set(children)


class TestComposeBest:
    """The best is the first-scored genome placed first by the one order,
    over every genome a call scores."""

    @pytest.mark.parametrize("elitists", [0, 2])
    def test_best_is_the_first_scored_row_placed_first(self, square_dataset, monkeypatch, elitists):
        # Every rule appears twice, so distinct genomes tie on every score.
        rules = build_pool(square_dataset, 3, seed=16)
        pool = (*rules, *rules)
        params = CompositionParams(population_size=10, generations_per_phase=15, elitists=elitists)
        rows = []

        def recording_evaluate(genomes, *args):
            scores = evaluate_candidate(genomes, *args)
            rows.extend(zip((genome.tobytes() for genome in genomes), *(column.tolist() for column in scores)))
            return scores

        monkeypatch.setattr(rulemix.composition, "evaluate_candidate", recording_evaluate)
        best, genomes = compose(pool, square_dataset, params, np.random.default_rng(5))
        first = min(range(len(rows)), key=lambda i: (-rows[i][3], rows[i][2], i))
        assert summary(best) == rows[first]
        if elitists == 0:
            # Without elitists the best can be bred out of the final population.
            assert best.genome.tobytes() not in {genome.tobytes() for genome in genomes}


class TestWarmStart:
    """Warm rows are carried over first, cut to the population size and
    zero-padded to the pool; random rows fill the rest."""

    params = CompositionParams(population_size=6, generations_per_phase=2)

    def test_wider_warm_genomes_rejected(self, square_dataset):
        pool = build_pool(square_dataset, 3, seed=4)
        with pytest.raises(ValueError, match="pools never shrink"):
            compose(pool, square_dataset, self.params, np.random.default_rng(0), np.zeros((2, 4), dtype=bool))

    def test_rows_beyond_the_population_are_dropped(self, square_dataset, monkeypatch):
        # Eight distinct warm rows for six places: the first six are the
        # initial population, and the call runs as if given only those.
        pool = build_pool(square_dataset, 5, seed=4)
        warm = np.array([[(i >> bit) & 1 for bit in range(5)] for i in range(1, 9)], dtype=bool)
        cut_rng, rng = np.random.default_rng(0), np.random.default_rng(0)
        cut_best, cut_genomes = compose(pool, square_dataset, self.params, cut_rng, warm[:6])
        scored, _ = TestComposeMemo.spy(monkeypatch)
        best, genomes = compose(pool, square_dataset, self.params, rng, warm)
        assert scored[:6] == [genome.tobytes() for genome in warm[:6]]
        assert summary(best) == summary(cut_best)
        assert np.array_equal(genomes, cut_genomes)
        assert rng.bit_generator.state == cut_rng.bit_generator.state

    def test_narrower_rows_are_zero_padded(self, square_dataset, monkeypatch):
        pool = build_pool(square_dataset, 5, seed=4)
        warm = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
        scored, _ = TestComposeMemo.spy(monkeypatch)
        compose(pool, square_dataset, self.params, np.random.default_rng(7), warm)
        expected = [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], *(np.random.default_rng(7).random((4, 5)) < 0.5)]
        initial = list(dict.fromkeys(np.array(genome, dtype=bool).tobytes() for genome in expected))
        assert scored[: len(initial)] == initial


def interleaved_compose(pool, data, params, rng, warm_genomes=None):
    """Reference GA loop that scores each child as soon as it is bred and
    picks every winner by explicit comparison: higher fitness, then fewer
    rules, then first seen (the earlier index in a tournament)."""
    table = RulePredictionTable.build(pool, data.features)
    n, size = len(pool), params.population_size

    def better(a, b):
        if b.cached_fitness > a.cached_fitness:
            return b
        if b.cached_fitness == a.cached_fitness and b.cached_complexity < a.cached_complexity:
            return b
        return a

    def tournament(population):
        best_key = winner = None
        for index in rng.integers(0, len(population), size=params.tournament_k):
            key = (-population[index].cached_fitness, population[index].cached_complexity, int(index))
            if best_key is None or key < best_key:
                best_key, winner = key, population[index]
        return winner

    def scored(genome):
        return candidates(genome[None], evaluate_candidate(genome[None], data, params, table))[0]

    genomes = [] if warm_genomes is None else list(padded(warm_genomes, n))[:size]
    while len(genomes) < size:
        genomes.append(rng.random(n) < 0.5)
    population = [scored(genome) for genome in genomes]
    best = population[0]
    for candidate in population[1:]:
        best = better(best, candidate)
    cut_points = min(params.crossover_points, n - 1)
    for _ in range(params.generations_per_phase):
        ranked = sorted(population, key=lambda c: (-c.cached_fitness, c.cached_complexity))
        next_population = ranked[: params.elitists]
        while len(next_population) < size:
            parent1 = tournament(population)
            parent2 = tournament(population)
            if cut_points >= 1:
                pair = crossover_npoint(parent1.genome, parent2.genome, cut_points, params.crossover_prob, rng)
            else:
                pair = (parent1.genome, parent2.genome)
            for genome in pair[: size - len(next_population)]:
                child = mutate_bits(genome, params.mutation_rate, rng)
                child = scored(child)
                next_population.append(child)
                best = better(best, child)
        population = next_population
    return best, population


def summary(candidate):
    return (candidate.genome.tobytes(), candidate.cached_mse, candidate.cached_complexity, candidate.cached_fitness)


class TestComposeDrawOrder:
    """``compose`` breeds a generation in full before scoring it; it must make
    the same draws, keep the same population and find the same best as the
    interleaved reference loop."""

    @staticmethod
    def tied_pool(data, count, seed):
        # Every rule appears twice, so distinct genomes tie on fitness and
        # complexity and each tie-break shows in the result.
        rules = build_pool(data, count, seed=seed)
        return (*rules, *rules)

    def check(self, pool, data, params, seed, warm_genomes=None):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        best, genomes = compose(pool, data, params, rng, warm_genomes)
        expected_best, expected = interleaved_compose(pool, data, params, reference_rng, warm_genomes)
        assert summary(best) == summary(expected_best)
        assert [genome.tobytes() for genome in genomes] == [c.genome.tobytes() for c in expected]
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "params",
        [
            CompositionParams(population_size=12, generations_per_phase=12, elitists=2),
            CompositionParams(population_size=12, generations_per_phase=12, elitists=0),
            CompositionParams(population_size=12, generations_per_phase=12, elitists=3, crossover_points=3),
            CompositionParams(population_size=12, generations_per_phase=12, elitists=2, crossover_prob=0.0),
        ],
        ids=["cold-start", "no-elitists", "odd-children", "no-crossover"],
    )
    def test_matches_interleaved_loop(self, square_dataset, params):
        self.check(self.tied_pool(square_dataset, 4, seed=11), square_dataset, params, seed=6)

    def test_warm_start_with_pool_growth(self, square_dataset):
        pool = self.tied_pool(square_dataset, 3, seed=12)
        params = CompositionParams(population_size=10, generations_per_phase=8, elitists=3)
        _, warm = compose(pool, square_dataset, params, np.random.default_rng(1))
        pool += build_pool(square_dataset, 2, seed=13)
        self.check(pool, square_dataset, params, seed=6, warm_genomes=warm)

    def test_one_child_per_generation(self, square_dataset):
        # Every batch the GA scores is a lone genome, mixed beside a copy of itself.
        params = CompositionParams(population_size=6, generations_per_phase=40, elitists=5)
        self.check(self.tied_pool(square_dataset, 4, seed=14), square_dataset, params, seed=8)

    def test_pool_beyond_one_blas_block(self, square_dataset):
        # 400 rules: more than the 384 a BLAS kernel sums in one block, so a
        # genome's bits hold only if they do not depend on its batch.
        params = CompositionParams(population_size=16, generations_per_phase=6, elitists=2)
        self.check(self.tied_pool(square_dataset, 200, seed=15), square_dataset, params, seed=9)

    def test_single_rule_pool(self):
        data = linear_dataset(n=60)
        pool = (fit_rule(*data.feature_bounds.T, data, 0.01),)
        params = CompositionParams(population_size=9, generations_per_phase=6, elitists=2)
        self.check(pool, data, params, seed=7)


def test_composition_params_validation():
    with pytest.raises(ValueError):
        CompositionParams(elitists=32, population_size=32)
    with pytest.raises(ValueError):
        CompositionParams(tournament_k=33, population_size=32)
    with pytest.raises(ValueError):
        CompositionParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        CompositionParams(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        CompositionParams(population_size=0)
    with pytest.raises(ValueError):
        CompositionParams(tournament_k=0)
    with pytest.raises(ValueError):
        CompositionParams(crossover_points=0)
