"""TOPSIS ranking: closeness to the ideal point relative to the anti-ideal.

Columns are vector-normalized, weighted, and compared against the per-column
best/worst under each criterion's direction; alternatives are scored by
d_worst / (d_best + d_worst) and ranked descending, ties to the lower index.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

COST = "cost"
BENEFIT = "benefit"


class TopsisError(ValueError):
    """The decision matrix cannot be ranked (e.g. an all-zero criterion column)."""


def check_weights(weights, n: int) -> np.ndarray:
    """The weights as floats, if they are one finite, positive real number per
    criterion (a bool is not a number here); TopsisError otherwise."""
    real = isinstance(weights, (list, tuple, np.ndarray)) and all(
        isinstance(w, numbers.Real) and not isinstance(w, bool) for w in weights
    )
    w = np.asarray(weights, dtype=float) if real else None
    if w is None or len(w) != n or not np.all(np.isfinite(w) & (w > 0)):
        raise TopsisError(
            f"weights {weights!r}: need one finite positive number per criterion ({n})"
        )
    return w


@dataclass(frozen=True)
class DecisionMatrix:
    x: np.ndarray                 # (m alternatives, n criteria)
    weights: np.ndarray           # positive, normalized to sum 1 on construction
    directions: tuple[str, ...]   # COST or BENEFIT per criterion

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.size == 0 or not np.all(np.isfinite(x)):
            raise TopsisError("matrix must be non-empty and finite")
        w = check_weights(self.weights, x.shape[1])
        directions = tuple(self.directions)
        if len(directions) != x.shape[1] or any(d not in (COST, BENEFIT) for d in directions):
            raise TopsisError(f"directions must be {COST!r} or {BENEFIT!r}, one per criterion")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "directions", directions)


@dataclass(frozen=True)
class TopsisResult:
    closeness: np.ndarray  # in [0, 1], one per alternative
    ranking: np.ndarray    # alternative indices, best first
    degenerate: bool = False  # every alternative equidistant from ideal and anti-ideal


def topsis_rank(dm: DecisionMatrix) -> TopsisResult:
    x = dm.x
    m, n = x.shape

    # All rows identical: everything is simultaneously ideal and anti-ideal.
    if np.all(x == x[0]):
        return TopsisResult(np.full(m, 0.5), np.arange(m), degenerate=True)

    norms = np.sqrt((x**2).sum(axis=0))
    zero_cols = np.nonzero(norms == 0.0)[0]
    if zero_cols.size:
        raise TopsisError(f"criterion {int(zero_cols[0])} is all-zero and cannot be normalized")
    v = (x / norms) * dm.weights

    best = np.empty(n)
    worst = np.empty(n)
    for j, direction in enumerate(dm.directions):
        col = v[:, j]
        if direction == COST:
            best[j], worst[j] = col.min(), col.max()
        else:
            best[j], worst[j] = col.max(), col.min()

    d_best = np.linalg.norm(v - best, axis=1)
    d_worst = np.linalg.norm(v - worst, axis=1)
    total = d_best + d_worst
    closeness = np.where(total > 0, np.divide(d_worst, np.where(total > 0, total, 1.0)), 0.5)
    ranking = np.argsort(-closeness, kind="stable")
    return TopsisResult(closeness, ranking)
