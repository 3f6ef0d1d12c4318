"""Elitist NSGA-II over real genomes in the unit cube.

The population is two arrays, genomes (n, d) and scores (n, k); rank and
crowding come from the FrontPartition of the last sort. Each generation merges
parents and offspring, sorts the combined population by non-domination, fills
the next parent set front by front, and truncates the last partially fitting
front by descending crowding distance (ties keep the lower index, so equal
seeds replay bit for bit). Variation is binary tournament selection, simulated
binary crossover, and polynomial mutation. score_fn scores one population per
call, (m, d) -> (m, k), and draws nothing from the GA's generator.
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
    population_size: int = 100
    generations: int = 50
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # None -> 1 / encoded_dim
    sbx_eta: float = 15.0
    pm_eta: float = 20.0
    seed: int = 0

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
    rank: np.ndarray, crowding: np.ndarray, i: int, j: int, rng: np.random.Generator
) -> int:
    """Lower rank wins; equal rank prefers larger crowding; full tie flips a coin."""
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i if rng.random() < 0.5 else j


def sbx_crossover(
    p1: np.ndarray, p2: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover, applied per pair with probability crossover_prob."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parent genomes must share a length")
    if rng.random() >= cfg.crossover_prob:
        return p1.copy(), p2.copy()
    u = rng.random(p1.shape)
    exponent = 1.0 / (cfg.sbx_eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (0.5 / (1.0 - u)) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def polynomial_mutation(
    g: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> np.ndarray:
    """Bounded polynomial mutation on [0, 1] genes, each hit with mutation_prob."""
    g = np.asarray(g, dtype=float)
    prob = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / len(g)
    mask = rng.random(g.shape) < prob
    u = rng.random(g.shape)
    if not mask.any():
        return g.copy()
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
    """Indices of the n survivors of the merged population, and its partition."""
    part = fast_nondominated_sort(scores)
    survivors: list[int] = []
    for front in part.fronts:
        if len(survivors) + len(front) <= n:
            survivors.extend(front)
        else:
            order = np.argsort(-part.crowding[front], kind="stable")
            survivors.extend(front[j] for j in order[: n - len(survivors)])
            break
    return np.array(survivors), part


def _variation(
    genomes: np.ndarray, rank: np.ndarray, crowding: np.ndarray, cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    n = len(genomes)
    children: list[np.ndarray] = []
    while len(children) < n:
        pair = []
        for _ in range(2):
            i, j = rng.integers(n), rng.integers(n)
            pair.append(genomes[tournament_select(rank, crowding, int(i), int(j), rng)])
        for g in sbx_crossover(pair[0], pair[1], cfg, rng):  # n is even
            children.append(polynomial_mutation(g, cfg, rng))
    return np.array(children)


def nsga2_run(
    score_fn: ScoreFn,
    cfg: GaConfig,
    space: SearchSpace,
    initial_genomes: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, FrontPartition]:
    """Run the configured number of generations; returns the final parents'
    genomes (n, d), their scores (n, k) and their front partition.
    Deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
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
