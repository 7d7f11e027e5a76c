"""Solution composition: a genetic algorithm over bit strings that selects a
small, accurate subset of the rule pool."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fitness import FitnessParams, candidate_fitness
from .model import PRODUCT_FLOATS, Dataset, Rule, RulePredictionTable, SolutionCandidate


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
    genomes: np.ndarray, data: Dataset, params: CompositionParams, table: RulePredictionTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(mse, complexity, fitness)`` arrays of the (genomes x rules)
    stack ``genomes``: each row's in-sample MSE of its mixed prediction over
    the full training set, its rule count, and its :func:`candidate_fitness`.

    ``table`` holds the per-rule masks and predictions of the pool over
    ``data.features``, and refuses a stack of another width. The stack is
    mixed ``PRODUCT_FLOATS // n`` genomes at a time (never fewer than two),
    so the scratch stays bounded, and a genome's scores do not depend on the
    stack it comes in.
    """
    genomes = np.asarray(genomes, dtype=bool)
    step = max(2, PRODUCT_FLOATS // data.n_samples)
    mse = np.empty(genomes.shape[0])
    for start in range(0, genomes.shape[0], step):
        errors = table.mixed(genomes[start : start + step], data.target_mean)
        np.subtract(data.targets, errors, out=errors)
        np.square(errors, out=errors)
        mse[start : start + step] = np.mean(errors, axis=1)
    complexity = genomes.sum(axis=1)
    pool_size = table.weighted_masks.shape[0]
    return mse, complexity, candidate_fitness(mse, complexity, pool_size, params.fitness)


def rank_positions(fitness: np.ndarray, complexity: np.ndarray) -> np.ndarray:
    """Each member's place in the GA's one order: higher fitness, then fewer
    rules, then the earlier index (the sort is stable). Places are distinct,
    so comparing them settles every tie."""
    order = np.lexsort((complexity, -np.asarray(fitness)))
    positions = np.empty(len(order), dtype=np.intp)
    positions[order] = np.arange(len(order))
    return positions


def tournament_select(positions: np.ndarray, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The indices of ``count`` tournament winners, given every member's
    :func:`rank_positions` place.

    One ``(count, k)`` block of members is drawn uniformly with replacement;
    each row's winner is its member ranked first.
    """
    draws = rng.integers(0, len(positions), size=(count, k))
    return draws[np.arange(count), positions[draws].argmin(axis=1)]


def crossover_npoint(
    a: np.ndarray,
    b: np.ndarray,
    n_points: int,
    crossover_prob: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n-point crossover of the (pairs x bits) boolean stacks ``a`` and ``b``,
    row by row, producing two stacks of complementary children.

    One ``random(pairs)`` draw decides which pairs cross, each with
    probability ``crossover_prob``; a pair that does not is copied. Then one
    ``random((pairs, bits - 1))`` block keys the cut positions 1 .. bits - 1
    of every pair, and a pair cuts at its ``n_points`` smallest keys. Segments
    alternate between the parents starting with ``a``, so at every position
    the children jointly hold exactly the two parent bits.
    """
    pairs, length = a.shape
    cross = rng.random(pairs) < crossover_prob
    keys = rng.random((pairs, length - 1))
    cuts = np.argsort(keys, axis=1, kind="stable")[:, :n_points] + 1
    at_cut = np.zeros((pairs, length), dtype=bool)
    at_cut[np.arange(pairs)[:, None], cuts] = True
    from_b = np.logical_xor.accumulate(at_cut, axis=1) & cross[:, None]
    return np.where(from_b, b, a), np.where(from_b, a, b)


def mutate_bits(genomes: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of the boolean stack ``genomes`` independently with
    probability ``rate``, from one draw of its shape."""
    return genomes ^ (rng.random(genomes.shape) < rate)


def compose(
    pool: tuple[Rule, ...],
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
    unchanged, and the ``n_children`` others are bred from the previous
    population as ``ceil(n_children / 2)`` pairs. The breeding operators each
    run once per generation, over the whole stack, so a generation makes its
    draws in three blocks: :func:`tournament_select` draws every
    tournament's members (pair i takes winners 2i and 2i + 1);
    :func:`crossover_npoint` draws which pairs cross and the keys of their
    cuts (no draw when the pool has one rule, so no cut position); and
    :func:`mutate_bits` draws the flips of the children kept, interleaved
    a0, b0, a1, b1, ... and cut to ``n_children``. Every pick uses one order:
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
    table = RulePredictionTable.build(pool, data.features)
    size = params.population_size
    n_children = size - params.elitists
    scored: dict[bytes, tuple[float, int, float]] = {}

    def score(genomes: np.ndarray) -> list[np.ndarray]:
        keys = [genome.tobytes() for genome in genomes]
        new = {key: row for row, key in enumerate(keys) if key not in scored}
        if new:
            scores = evaluate_candidate(genomes[list(new.values())], data, params, table)
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
    pairs = (n_children + 1) // 2
    for _ in range(params.generations_per_phase):
        positions = rank_positions(fitness, complexity)
        # Rows 2i and 2i + 1 are pair i; an odd count drops the last row unmutated.
        children = genomes[tournament_select(positions, params.tournament_k, 2 * pairs, rng)]
        if cut_points >= 1:
            children[0::2], children[1::2] = crossover_npoint(
                children[0::2], children[1::2], cut_points, params.crossover_prob, rng
            )
        children = mutate_bits(children[:n_children], params.mutation_rate, rng)
        elitists = np.argsort(positions)[: params.elitists]
        genomes = np.concatenate([genomes[elitists], children])
        _, complexity, fitness = score(genomes)

    _, complexity, fitness = (np.array(column) for column in zip(*scored.values()))
    key = list(scored)[np.argmin(rank_positions(fitness, complexity))]
    return SolutionCandidate(np.frombuffer(key, dtype=bool), *scored[key]), genomes
