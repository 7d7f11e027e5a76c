"""Solution composition: a genetic algorithm over bit strings that selects a
small, accurate subset of the rule pool."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fitness import FitnessParams, candidate_fitness
from .model import PRODUCT_FLOATS, Dataset, Pool, RulePredictionTable, SolutionCandidate


@dataclass(frozen=True)
class CompositionParams:
    """Genetic-algorithm settings for one composition phase."""

    population_size: int = 32
    tournament_k: int = 5
    crossover_points: int = 2
    crossover_prob: float = 0.9
    mutation_rate: float = 0.05
    elitists: int = 4
    generations_per_phase: int = 32
    fitness: FitnessParams = field(default_factory=FitnessParams)

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if not 1 <= self.tournament_k <= self.population_size:
            raise ValueError("tournament_k must lie in [1, population_size]")
        if self.crossover_points < 1:
            raise ValueError("crossover_points must be at least 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not 0 <= self.elitists < self.population_size:
            raise ValueError("elitists must lie in [0, population_size)")
        if self.generations_per_phase < 1:
            raise ValueError("generations_per_phase must be at least 1")


def evaluate_candidate(
    genomes: np.ndarray,
    pool: Pool,
    data: Dataset,
    params: CompositionParams,
    table: RulePredictionTable,
) -> list[SolutionCandidate]:
    """Score each row of the (genomes x rules) stack ``genomes``: in-sample
    MSE of its mixed prediction over the full training set, complexity, and
    the combined candidate fitness.

    ``table`` holds the per-rule masks and predictions of ``pool`` over
    ``data.features``. The stack is mixed ``PRODUCT_FLOATS // n`` genomes
    at a time (never fewer than two), so the scratch stays bounded, and a
    genome's scores do not depend on the stack it comes in.
    """
    genomes = np.asarray(genomes, dtype=bool)
    if genomes.ndim != 2 or genomes.shape[1] != len(pool):
        raise ValueError(f"genome stack {genomes.shape} does not match pool size {len(pool)}")
    step = max(2, PRODUCT_FLOATS // data.n_samples)
    mses = []
    for start in range(0, genomes.shape[0], step):
        errors = table.mixed(genomes[start : start + step], data.target_mean)
        np.subtract(data.targets, errors, out=errors)
        np.square(errors, out=errors)
        mses.extend(np.mean(errors, axis=1).tolist())
    candidates = []
    for genome, mse, complexity in zip(genomes, mses, genomes.sum(axis=1).tolist()):
        fitness = candidate_fitness(mse, complexity, len(pool), params.fitness)
        candidates.append(SolutionCandidate(genome, mse, complexity, fitness))
    return candidates


def _rank(candidate: SolutionCandidate) -> tuple[float, int]:
    """The GA's one order: higher fitness first, then fewer rules. ``min`` and
    the stable ``sorted`` keep the first seen of equals."""
    return (-candidate.cached_fitness, candidate.cached_complexity)


def rank_positions(population: Sequence[SolutionCandidate]) -> np.ndarray:
    """Each member's place in the GA's one order: higher fitness, then fewer
    rules, then the earlier population index. Places are distinct, so
    comparing them settles every tie."""
    order = sorted(range(len(population)), key=lambda index: _rank(population[index]))
    positions = np.empty(len(population), dtype=np.intp)
    positions[order] = np.arange(len(population))
    return positions


def tournament_select(positions: np.ndarray, k: int, rng: np.random.Generator) -> int:
    """Draw ``k`` members uniformly with replacement and return the index of
    the one ranked first, given every member's :func:`rank_positions` place."""
    if len(positions) == 0:
        raise ValueError("population must be non-empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    draws = rng.integers(0, len(positions), size=k)
    return int(draws[positions[draws].argmin()])


def crossover_npoint(
    a: np.ndarray,
    b: np.ndarray,
    n_points: int,
    crossover_prob: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n-point crossover of two boolean bit strings, producing two
    complementary children.

    With probability ``1 - crossover_prob`` the parents are returned as
    copies. Otherwise ``n_points`` distinct cut positions are drawn uniformly
    and segments alternate between the parents, so at every position the
    children jointly hold exactly the two parent bits.
    """
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"parents must be equal-length bit strings, got {a.shape} and {b.shape}")
    length = a.shape[0]
    if not 1 <= n_points < length:
        raise ValueError(f"n_points must lie in [1, {length - 1}], got {n_points}")
    if rng.random() >= crossover_prob:
        return a.copy(), b.copy()
    # Cut positions 1 .. length - 1: the same draws as choosing from that range.
    cuts = rng.choice(length - 1, size=n_points, replace=False) + 1
    # Segments alternate at each cut, starting with ``a``.
    at_cut = np.zeros(length, dtype=bool)
    at_cut[cuts] = True
    from_b = np.logical_xor.accumulate(at_cut)
    return np.where(from_b, b, a), np.where(from_b, a, b)


def mutate_bits(genome: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of the boolean ``genome`` independently with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    return genome ^ (rng.random(genome.shape[0]) < rate)


def pad_genome(genome: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad a genome up to ``size`` so it references a grown pool."""
    genome = np.asarray(genome, dtype=bool)
    if size < genome.shape[0]:
        raise ValueError("pools never shrink; cannot pad to a smaller size")
    padded = np.zeros(size, dtype=bool)
    padded[: genome.shape[0]] = genome
    return padded


def compose(
    pool: Pool,
    data: Dataset,
    params: CompositionParams,
    rng: np.random.Generator,
    warm_population: Optional[Sequence[SolutionCandidate]] = None,
) -> tuple[SolutionCandidate, list[SolutionCandidate]]:
    """Evolve subset selections over the pool and return the best candidate
    ever evaluated plus the final population.

    A warm-start population is carried over by zero-padding each genome to
    the current pool size; random genomes fill any remaining places. Each
    generation is bred in full, then scored: the top ``elitists`` carry over
    unchanged, and tournament selection, crossover and bit-flip mutation
    breed the rest from the previous population. Every pick uses one order:
    higher fitness, then fewer rules, then first seen. The previous
    population is sorted by it once per generation, and tournaments compare
    the resulting places. Rules themselves are never touched.

    Each distinct genome is scored once per call, so once per phase: a
    repeat gets the candidate of its first evaluation, which is exact because
    scoring draws nothing. A generation's genomes not scored before go to
    :func:`evaluate_candidate` as one stack. The memo lives only for this
    call, since the pool grows between phases.
    """
    n = len(pool)
    if n == 0:
        raise ValueError("cannot compose from an empty pool")
    table = RulePredictionTable.build(pool.rules, data.features)
    size = params.population_size
    n_children = size - params.elitists
    scored: dict[bytes, SolutionCandidate] = {}

    def score(genomes: list[np.ndarray]) -> list[SolutionCandidate]:
        keys = [genome.tobytes() for genome in genomes]
        new = {key: genome for key, genome in zip(keys, genomes) if key not in scored}
        if new:
            candidates = evaluate_candidate(np.array(list(new.values())), pool, data, params, table)
            scored.update(zip(new, candidates))
        return [scored[key] for key in keys]

    genomes = [pad_genome(candidate.genome, n) for candidate in warm_population or ()][:size]
    genomes += [rng.random(n) < 0.5 for _ in range(size - len(genomes))]
    population = score(genomes)
    best = min(population, key=_rank)

    # A 1-bit genome admits no cut position; crossover degrades to copying.
    cut_points = min(params.crossover_points, n - 1)

    for _ in range(params.generations_per_phase):
        positions = rank_positions(population)
        genomes = []
        while len(genomes) < n_children:
            parent1 = population[tournament_select(positions, params.tournament_k, rng)].genome
            parent2 = population[tournament_select(positions, params.tournament_k, rng)].genome
            if cut_points >= 1:
                pair = crossover_npoint(parent1, parent2, cut_points, params.crossover_prob, rng)
            else:
                pair = (parent1, parent2)
            # With one place left, the second child is dropped unmutated.
            for genome in pair[: n_children - len(genomes)]:
                genomes.append(mutate_bits(genome, params.mutation_rate, rng))
        children = score(genomes)
        best = min([best, *children], key=_rank)
        elitists = np.argsort(positions)[: params.elitists]
        population = [population[index] for index in elitists] + children
    return best, population
