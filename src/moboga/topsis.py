"""TOPSIS ranking: closeness to the ideal point relative to the anti-ideal.

Columns are scaled by a power of two, vector-normalized, weighted, and
compared against the per-column best/worst under each criterion's direction;
alternatives are scored by d_worst / (d_best + d_worst) and ranked descending,
ties to the lower index.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

COST = "cost"
BENEFIT = "benefit"


class TopsisError(ValueError):
    """The matrix, its directions or its weights cannot be ranked."""


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
class TopsisResult:
    closeness: np.ndarray  # in [0, 1], one per alternative
    ranking: np.ndarray    # alternative indices, best first


def topsis_rank(x, directions, weights=None) -> TopsisResult:
    """Rank the rows of x (alternatives by criteria) best first.

    ``directions`` holds COST or BENEFIT per criterion; ``weights``, checked
    against every criterion, default to equal. A criterion that is zero on every
    row cannot be normalized and tells no row apart: it is dropped with its
    weight. Each kept column is scaled by the power of two that brings its
    largest |x| into [0.5, 1), which changes no closeness but keeps its squares
    from underflowing or overflowing. Rows that no kept criterion tells apart
    all score 0.5, in index order."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise TopsisError("matrix must be non-empty and finite")
    n = x.shape[1]
    directions = tuple(directions)
    if len(directions) != n or any(d not in (COST, BENEFIT) for d in directions):
        raise TopsisError(f"directions must be {COST!r} or {BENEFIT!r}, one per criterion")
    w = np.ones(n) if weights is None else check_weights(weights, n)

    keep = np.any(x != 0.0, axis=0)
    x, w = x[:, keep], w[keep]
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=0))[1])
    v = (x / np.sqrt((x**2).sum(axis=0))) * (w / w.sum())
    benefit = np.array([d == BENEFIT for d in directions])[keep]
    best = np.where(benefit, v.max(axis=0), v.min(axis=0))
    worst = np.where(benefit, v.min(axis=0), v.max(axis=0))

    d_best = np.linalg.norm(v - best, axis=1)
    d_worst = np.linalg.norm(v - worst, axis=1)
    total = d_best + d_worst
    closeness = np.where(total > 0, np.divide(d_worst, np.where(total > 0, total, 1.0)), 0.5)
    ranking = np.argsort(-closeness, kind="stable")
    return TopsisResult(closeness, ranking)
