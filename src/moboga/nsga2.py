"""Elitist NSGA-II over real genomes in the unit cube.

The population is two arrays, genomes (n, d) and scores (n, k); rank and
crowding come from the FrontPartition of the last sort. A generation works on
the whole population at once: n binary tournaments pick n parents, consecutive
parents are crossed in pairs by simulated binary crossover, and polynomial
mutation runs over all n children. Parents and children are then merged and
sorted by non-domination; the n survivors are the first n by ascending rank,
then descending crowding distance, then ascending index, so equal seeds replay
bit for bit. score_fn scores one population per call, (m, d) -> (m, k), and
draws nothing from the GA's generator. That generator is seeded by the seed
argument of nsga2_run; GaConfig holds only the population, generation and
operator settings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .pareto import FrontPartition, fast_nondominated_sort
from .space import SearchSpace

ScoreFn = Callable[[np.ndarray], np.ndarray]  # genomes (m, d) -> scores (m, k)


@dataclass
class GaConfig:
    population_size: int = 60
    generations: int = 30
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # None -> 1 / encoded_dim
    sbx_eta: float = 15.0
    pm_eta: float = 20.0

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be an even integer >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if p is not None and not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (0 < self.sbx_eta < np.inf and 0 < self.pm_eta < np.inf):
            raise ValueError("distribution indices must be positive and finite")


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, i: np.ndarray, j: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Winners of the binary tournaments i[t] against j[t]: lower rank wins,
    equal rank prefers larger crowding, and a full tie takes the tournament's coin."""
    coin = rng.random(len(i)) < 0.5
    ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
    i_wins = (ri < rj) | ((ri == rj) & ((ci > cj) | ((ci == cj) & coin)))
    return np.where(i_wins, i, j)


def sbx_crossover(
    p1: np.ndarray, p2: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the pairs (p1[r], p2[r]), two (pairs, d)
    arrays. Each pair is crossed with probability crossover_prob; an uncrossed
    pair takes beta = 1, which copies both parents."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.ndim != 2 or p1.shape != p2.shape:
        raise ValueError("parents must be two (pairs, d) arrays of one shape")
    crossed = rng.random((len(p1), 1)) < cfg.crossover_prob
    u = rng.random(p1.shape)
    exponent = 1.0 / (cfg.sbx_eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (0.5 / (1.0 - u)) ** exponent)
    beta = np.where(crossed, beta, 1.0)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def polynomial_mutation(
    g: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> np.ndarray:
    """Bounded polynomial mutation on [0, 1] genes, each hit with mutation_prob
    (default 1 / d for genomes of length d)."""
    g = np.asarray(g, dtype=float)
    prob = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / g.shape[-1]
    mask = rng.random(g.shape) < prob
    u = rng.random(g.shape)
    eta = cfg.pm_eta
    exponent = 1.0 / (eta + 1.0)
    d_lo = g            # distance to the lower bound, already normalized
    d_hi = 1.0 - g
    delta = np.where(
        u <= 0.5,
        (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta + 1.0)) ** exponent - 1.0,
        1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta + 1.0)) ** exponent,
    )
    out = np.where(mask, g + delta, g)
    return np.clip(out, 0.0, 1.0)


def _score(genomes: np.ndarray, score_fn: ScoreFn) -> np.ndarray:
    scores = np.asarray(score_fn(genomes), dtype=float)
    if scores.ndim != 2 or len(scores) != len(genomes):
        raise ValueError(f"score_fn returned shape {scores.shape} for {len(genomes)} genomes")
    if not np.isfinite(scores).all():
        i = int(np.argmin(np.isfinite(scores).all(axis=1)))  # the first bad row
        raise ValueError(f"score_fn returned non-finite scores {scores[i]} for genome {genomes[i]}")
    return scores


def _survival(scores: np.ndarray, n: int) -> tuple[np.ndarray, FrontPartition]:
    """Indices of the n survivors of the merged population, and its partition:
    ascending rank, then descending crowding, then ascending index."""
    part = fast_nondominated_sort(scores)
    return np.lexsort((-part.crowding, part.rank))[:n], part


def _variation(
    genomes: np.ndarray, rank: np.ndarray, crowding: np.ndarray, cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """n children: n tournament winners, crossed in consecutive pairs, then mutated."""
    n = len(genomes)
    i, j = rng.integers(n, size=(2, n))
    parents = genomes[tournament_select(rank, crowding, i, j, rng)]
    children = np.empty_like(parents)
    children[0::2], children[1::2] = sbx_crossover(parents[0::2], parents[1::2], cfg, rng)
    return polynomial_mutation(children, cfg, rng)


def nsga2_run(
    score_fn: ScoreFn,
    cfg: GaConfig,
    space: SearchSpace,
    seed: int,
    initial_genomes: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, FrontPartition]:
    """Run the configured number of generations; returns the final parents'
    genomes (n, d), their scores (n, k) and their front partition.
    Deterministic given seed."""
    rng = np.random.default_rng(seed)
    n = cfg.population_size
    genomes = rng.random((n, space.encoded_dim))
    if initial_genomes is not None:
        for i, g in enumerate(list(initial_genomes)[:n]):
            genomes[i] = np.clip(np.asarray(g, dtype=float), 0.0, 1.0)
    scores = _score(genomes, score_fn)
    keep, part = np.arange(n), fast_nondominated_sort(scores)
    for _ in range(cfg.generations):
        children = _variation(genomes, part.rank[keep], part.crowding[keep], cfg, rng)
        merged = np.vstack([genomes, children])
        merged_scores = np.vstack([scores, _score(children, score_fn)])
        keep, part = _survival(merged_scores, n)
        genomes, scores = merged[keep], merged_scores[keep]
    return genomes, scores, fast_nondominated_sort(scores)
