"""Solution composition: a genetic algorithm over bit strings that selects a
small, accurate subset of the rule pool."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(mse, complexity, fitness)`` arrays of the (genomes x rules)
    stack ``genomes``: each row's in-sample MSE of its mixed prediction over
    the full training set, its rule count, and its :func:`candidate_fitness`,
    one scalar call per row (``np.exp`` would move the last bit).

    ``table`` holds the per-rule masks and predictions of ``pool`` over
    ``data.features``. The stack is mixed ``PRODUCT_FLOATS // n`` genomes
    at a time (never fewer than two), so the scratch stays bounded, and a
    genome's scores do not depend on the stack it comes in.
    """
    genomes = np.asarray(genomes, dtype=bool)
    if genomes.ndim != 2 or genomes.shape[1] != len(pool):
        raise ValueError(f"genome stack {genomes.shape} does not match pool size {len(pool)}")
    step = max(2, PRODUCT_FLOATS // data.n_samples)
    mse = np.empty(genomes.shape[0])
    for start in range(0, genomes.shape[0], step):
        errors = table.mixed(genomes[start : start + step], data.target_mean)
        np.subtract(data.targets, errors, out=errors)
        np.square(errors, out=errors)
        mse[start : start + step] = np.mean(errors, axis=1)
    complexity = genomes.sum(axis=1)
    fitness = [candidate_fitness(m, c, len(pool), params.fitness) for m, c in zip(mse.tolist(), complexity.tolist())]
    return mse, complexity, np.array(fitness)


def rank_positions(fitness: np.ndarray, complexity: np.ndarray) -> np.ndarray:
    """Each member's place in the GA's one order: higher fitness, then fewer
    rules, then the earlier index (the sort is stable). Places are distinct,
    so comparing them settles every tie."""
    order = np.lexsort((complexity, -np.asarray(fitness)))
    positions = np.empty(len(order), dtype=np.intp)
    positions[order] = np.arange(len(order))
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


def compose(
    pool: Pool,
    data: Dataset,
    params: CompositionParams,
    rng: np.random.Generator,
    warm_genomes: Optional[np.ndarray] = None,
) -> tuple[SolutionCandidate, np.ndarray]:
    """Evolve subset selections over the pool and return the best candidate
    ever evaluated plus the final (population x rules) genome array.

    The rows of ``warm_genomes`` (the final genomes of an earlier phase) are
    carried over, zero-padded to the current pool size and cut to
    ``population_size``; random genomes fill any remaining rows. Each
    generation is bred in full, then scored: the top ``elitists`` carry over
    unchanged, and tournament selection, crossover and bit-flip mutation
    breed the rest from the previous population. Every pick uses one order:
    higher fitness, then fewer rules, then first seen. The previous
    population is ranked by it once per generation, and tournaments compare
    the resulting places. Rules themselves are never touched.

    Each distinct genome is scored once per call, so once per phase: a memo
    maps its bytes to its ``(mse, complexity, fitness)``, which is exact
    because scoring draws nothing. A generation's genomes not scored before
    go to :func:`evaluate_candidate` as one stack, and the population's
    scores are gathered from the memo. The memo lives only for this call,
    since the pool grows between phases. It holds every genome scored, in
    first-seen order, so the best is its entry placed first by the one order.
    """
    n = len(pool)
    if n == 0:
        raise ValueError("cannot compose from an empty pool")
    table = RulePredictionTable.build(pool.rules, data.features)
    size = params.population_size
    n_children = size - params.elitists
    scored: dict[bytes, tuple[float, int, float]] = {}

    def score(genomes: np.ndarray) -> list[np.ndarray]:
        keys = [genome.tobytes() for genome in genomes]
        new = {key: row for row, key in enumerate(keys) if key not in scored}
        if new:
            scores = evaluate_candidate(genomes[list(new.values())], pool, data, params, table)
            scored.update(zip(new, zip(*(column.tolist() for column in scores))))
        return [np.array(column) for column in zip(*(scored[key] for key in keys))]

    warm = np.zeros((0, n), dtype=bool) if warm_genomes is None else np.asarray(warm_genomes, dtype=bool)[:size]
    if warm.shape[1] > n:
        raise ValueError(f"warm genomes over {warm.shape[1]} rules do not fit a pool of {n}; pools never shrink")
    genomes = np.zeros((size, n), dtype=bool)
    genomes[: len(warm), : warm.shape[1]] = warm
    genomes[len(warm) :] = rng.random((size - len(warm), n)) < 0.5
    _, complexity, fitness = score(genomes)

    # A 1-bit genome admits no cut position; crossover degrades to copying.
    cut_points = min(params.crossover_points, n - 1)

    for _ in range(params.generations_per_phase):
        positions = rank_positions(fitness, complexity)
        children = []
        while len(children) < n_children:
            parent1 = genomes[tournament_select(positions, params.tournament_k, rng)]
            parent2 = genomes[tournament_select(positions, params.tournament_k, rng)]
            if cut_points >= 1:
                pair = crossover_npoint(parent1, parent2, cut_points, params.crossover_prob, rng)
            else:
                pair = (parent1, parent2)
            # With one place left, the second child is dropped unmutated.
            for genome in pair[: n_children - len(children)]:
                children.append(mutate_bits(genome, params.mutation_rate, rng))
        elitists = np.argsort(positions)[: params.elitists]
        genomes = np.vstack([genomes[elitists], *children])
        _, complexity, fitness = score(genomes)

    _, complexity, fitness = (np.array(column) for column in zip(*scored.values()))
    key = list(scored)[np.argmin(rank_positions(fitness, complexity))]
    return SolutionCandidate(np.frombuffer(key, dtype=bool), *scored[key]), genomes
