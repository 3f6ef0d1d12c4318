"""Pareto domination, fast non-dominated sorting, crowding, front extraction.

Everything here minimizes. Callers with larger-is-better quantities negate at
their own boundary. Domination is strict-component: equal vectors never
dominate each other, so duplicates all stay on the front.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dominates(v, w) -> bool:
    """True iff v Pareto-dominates w: v <= w everywhere and < somewhere."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError(f"score vectors must share one length, got {v.shape} vs {w.shape}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
        raise ValueError("score vectors must be finite")
    return bool(np.all(v <= w) and np.any(v < w))


@dataclass
class FrontPartition:
    fronts: list[list[int]]   # F_1, F_2, ... as index lists
    rank: np.ndarray          # per-member front number, 1-based
    crowding: np.ndarray      # per-member crowding distance (inf at boundaries)


def _as_score_matrix(pop) -> np.ndarray:
    scores = np.asarray(pop, dtype=float)
    if scores.ndim != 2 or scores.shape[0] < 1:
        raise ValueError("population must be a non-empty list of equal-length score vectors")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def _domination_matrix(scores: np.ndarray) -> np.ndarray:
    """dom[i, j] is True iff member i dominates member j.

    One (N, N) comparison per objective: AND of the <=, OR of the <.
    """
    n = len(scores)
    le, lt = np.ones((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for v in scores.T:
        le &= v[:, None] <= v
        lt |= v[:, None] < v
    return le & lt


def fast_nondominated_sort(pop) -> FrontPartition:
    """Peel fronts from the domination matrix.

    counts[q] is the number of members dominating q. The members with no
    dominator left and no rank yet form the next front; removing that front
    subtracts its rows of the matrix from the counts to reveal the one after.
    """
    scores = _as_score_matrix(pop)
    dom = _domination_matrix(scores)
    counts = dom.sum(axis=0)
    rank = np.zeros(len(scores), dtype=int)
    fronts: list[list[int]] = []
    front = np.flatnonzero(counts == 0)
    while front.size:
        fronts.append(front.tolist())
        rank[front] = len(fronts)
        counts -= dom[front].sum(axis=0)
        front = np.flatnonzero((counts == 0) & (rank == 0))
    return FrontPartition(fronts, rank, _crowding(scores, rank))


def crowding_distance(front_scores) -> np.ndarray:
    """NSGA-II crowding of the members of one front."""
    scores = _as_score_matrix(front_scores)
    return _crowding(scores, np.ones(len(scores), dtype=int))


def _crowding(scores: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """NSGA-II crowding of every member within its front (members of equal rank).

    Per objective, one stable sort by (rank, value) lays the fronts end to end.
    Each front's two ends get inf; an interior member accumulates the gap
    between its neighbours over the front's span, when the span is positive.
    """
    dist = np.zeros(len(scores))
    for vals in scores.T:
        order = np.lexsort((vals, rank))
        r, v = rank[order], vals[order]
        cut = np.r_[True, r[1:] != r[:-1], True]  # cut[p]: p starts a front, or p == len(v)
        first, last = cut[:-1], cut[1:]
        span = (v[last] - v[first])[np.cumsum(first) - 1]
        inner = ~(first | last) & (span > 0)
        gap = np.roll(v, -1) - np.roll(v, 1)  # next minus previous value
        dist[order[inner]] += gap[inner] / span[inner]
        dist[order[first | last]] = np.inf
    return dist


def pareto_front(pop) -> list[int]:
    """Indices of the members dominated by no other member (F_1)."""
    scores = _as_score_matrix(pop)
    dom = _domination_matrix(scores)
    return np.flatnonzero(~dom.any(axis=0)).tolist()


def generational_distance(front, reference) -> float:
    """Mean Euclidean distance from each front point to its nearest reference point."""
    front = _as_score_matrix(front)
    reference = _as_score_matrix(reference)
    sq = np.zeros((len(front), len(reference)))
    for f, r in zip(front.T, reference.T):
        sq += (f[:, None] - r) ** 2
    return float(np.sqrt(sq.min(axis=1)).mean())


def objective_diagonal(front) -> float:
    """Length of the bounding-box diagonal of a point set in objective space."""
    front = _as_score_matrix(front)
    return float(np.linalg.norm(front.max(axis=0) - front.min(axis=0)))
