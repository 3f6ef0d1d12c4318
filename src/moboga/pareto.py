"""Pareto domination, fast non-dominated sorting, crowding, front extraction.

Everything here minimizes. Callers with larger-is-better quantities negate at
their own boundary. Domination is strict-component: equal vectors never
dominate each other, so duplicates all stay on the front.

The non-dominated sort has two rank paths, chosen by the number of objectives
k. With k = 2, Jensen's sweep (IEEE TEC 7(5), 2003) sorts the members once by
(f1, f2) and bisects a list of front tails per distinct point: O(N log N),
with no domination matrix. Equal vectors are swept as one point and share its
rank, which is right because neither dominates the other and both are
dominated by exactly the same members. Every other k peels fronts from the
(N, N) domination matrix (Deb et al., IEEE TEC 6(2), 2002). Both give the same
ranks, and the fronts and crowding are then built from the ranks alone.
"""
from __future__ import annotations

from bisect import bisect_right
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


def fast_nondominated_sort(pop) -> FrontPartition:
    """Partition the population into fronts F_1, F_2, ... with their crowding."""
    scores = _as_score_matrix(pop)
    return _partition(scores, _rank(scores))


def _rank(scores: np.ndarray) -> np.ndarray:
    """Front numbers, 1-based: the sweep for two objectives, else the peel."""
    return _sweep_rank(scores) if scores.shape[1] == 2 else _peel_rank(scores)


def _peel_rank(scores: np.ndarray) -> np.ndarray:
    """Front numbers by peeling fronts from the domination matrix.

    dom[i, j] is True iff member i dominates member j: one (N, N) comparison
    per objective, AND of the <=, OR of the <. counts[q] is the number of
    members dominating q. The members with no dominator left and no rank yet
    form the next front; removing that front subtracts its rows of the matrix
    from the counts to reveal the one after.
    """
    n = len(scores)
    le, lt = np.ones((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for v in scores.T:
        le &= v[:, None] <= v
        lt |= v[:, None] < v
    dom = le & lt
    counts = dom.sum(axis=0)
    rank = np.zeros(len(scores), dtype=int)
    front = np.flatnonzero(counts == 0)
    r = 0
    while front.size:
        r += 1
        rank[front] = r
        counts -= dom[front].sum(axis=0)
        front = np.flatnonzero((counts == 0) & (rank == 0))
    return rank


def _sweep_rank(scores: np.ndarray) -> np.ndarray:
    """Front numbers of a two-objective population by Jensen's sweep.

    In (f1, f2) order every earlier distinct point p has f1_p <= f1_q, so p
    dominates q exactly when f2_p <= f2_q. tails[r] is the smallest f2 seen
    in front r + 1; tails only grow with r, because a member of a later front
    has a dominator with no larger f2 in the front before. q therefore joins
    the first front whose tail exceeds f2_q, found by bisection. Runs of equal
    vectors are swept once and share their rank.
    """
    order = np.lexsort((scores[:, 1], scores[:, 0]))
    s = scores[order]
    starts = np.ones(len(s), dtype=bool)  # starts[p]: s[p] differs from s[p - 1]
    starts[1:] = (s[1:] != s[:-1]).any(axis=1)
    tails: list[float] = []
    distinct_rank = []
    for f2 in s[starts, 1].tolist():
        r = bisect_right(tails, f2)
        if r == len(tails):
            tails.append(f2)
        else:
            tails[r] = f2
        distinct_rank.append(r + 1)
    rank = np.empty(len(s), dtype=int)
    rank[order] = np.asarray(distinct_rank)[np.cumsum(starts) - 1]
    return rank


def _partition(scores: np.ndarray, rank: np.ndarray) -> FrontPartition:
    """The fronts of a 1-based rank, each in ascending index order, and the crowding."""
    by_rank = np.argsort(rank, kind="stable").tolist()
    ends = np.cumsum(np.bincount(rank)[1:]).tolist()
    fronts = [by_rank[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return FrontPartition(fronts, rank, _crowding(scores, rank))


def crowding_distance(front_scores) -> np.ndarray:
    """NSGA-II crowding of the members of one front."""
    scores = _as_score_matrix(front_scores)
    return _crowding(scores, np.ones(len(scores), dtype=int))


def _crowding(scores: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """NSGA-II crowding of every member within its front (members of equal rank).

    Per objective, one stable sort by (rank, value) lays the fronts end to end,
    so the positions where each front starts and ends are the same for every
    objective. Each front's two ends get inf; an interior member accumulates
    the gap between its neighbours over the front's span, when the span is
    positive.
    """
    n = len(scores)
    r = np.sort(rank)
    first = np.ones(n, dtype=bool)  # first[p]: position p starts a front
    first[1:] = r[1:] != r[:-1]
    last = np.ones(n, dtype=bool)   # last[p]: position p ends a front
    last[:-1] = first[1:]
    ends = first | last
    mid = np.flatnonzero(~ends)     # interior positions, all in 1 .. n - 2
    front_of_mid = (np.cumsum(first) - 1)[mid]
    dist = np.zeros(n)
    for vals in scores.T:
        order = np.lexsort((vals, rank))
        v = vals[order]
        span = (v[last] - v[first])[front_of_mid]
        gap = (v[2:] - v[:-2])[mid - 1]  # next minus previous value
        wide = span > 0
        dist[order[mid[wide]]] += gap[wide] / span[wide]
        dist[order[ends]] = np.inf
    return dist


def pareto_front(pop) -> list[int]:
    """Indices of the members dominated by no other member (F_1)."""
    return np.flatnonzero(_rank(_as_score_matrix(pop)) == 1).tolist()


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
