"""Constraint-aware expected improvement over a batch of candidates.

The improvement integral under a Gaussian predictive marginal has the usual
closed form, so the quadrature lives only in the test suite as an oracle. Its
normal CDF is ``ndtr(z) = erfc(-z / sqrt(2)) / 2`` from ``math.erfc``
(Abramowitz & Stegun 7.1.2), which cancels in neither tail: its only error
beyond erfc's own is the rounding of ``z / sqrt(2)``, about z^2 / 2 ulps in
the lower tail.
Constraint factors multiply the result: indicator (0/1) for hard constraints,
beta in [0, 1) for violated soft ones. ``ca_ei`` scores encoded rows, such as a
GA population: one snap of the rows gives the constraints their columns (and,
only for unbatched ones, candidates), and the rows left above 0 their encoding;
the factors multiply in declaration order, and each objective takes one
posterior over those rows.
"""
from __future__ import annotations

import math

import numpy as np

from .objectives import Batch, ConstraintSpec, soft_factor
from .space import SearchSpace, _candidates, _columns, _encode_columns, _snapped
from .space import encode  # noqa: F401  bound for perfbench's space.encode trace hook
from .surrogate import GpModel, gp_posterior

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def ndtr(z) -> np.ndarray:
    """Standard normal CDF, elementwise: erfc(-z / sqrt(2)) / 2 from math.erfc."""
    t = -_SQRT_HALF * np.asarray(z, dtype=float)
    return 0.5 * np.fromiter(map(math.erfc, t.flat), float, t.size).reshape(t.shape)


def expected_improvement(mu, sigma, y_best):
    """EI for minimization, elementwise: E[max(y_best - Y, 0)] with Y ~ N(mu, sigma^2)."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    gap = y_best - np.asarray(mu, dtype=float)
    z = gap / np.where(sigma > 0, sigma, 1.0)
    ei = gap * ndtr(z) + sigma * _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return np.maximum(np.where(sigma > 0, ei, gap), 0.0)


def ca_ei(
    models: list[GpModel], y_best: np.ndarray, constraints: tuple[ConstraintSpec, ...],
    space: SearchSpace, genomes: np.ndarray,
) -> np.ndarray:
    """EI of each encoded row of genomes (rows) under each objective (columns),
    scaled by the product of the constraint factors of the row's candidate;
    (m, k). Each row is scored at its decoded candidate.

    y_best[j] is objective j's incumbent: the best (minimum) observed target
    among feasible observations when any exist, else the global best.
    """
    snapped = _snapped(space, genomes)
    rows = Batch(len(genomes), lambda: _columns(space, snapped),
                 lambda: _candidates(space, snapped))
    factor = np.ones(len(genomes))
    for c in constraints:  # rows at factor 0 call no later unbatched callable
        at = np.flatnonzero(factor)
        factor[at] *= soft_factor(c, rows, at)
    out = np.zeros((len(genomes), len(models)))
    live = np.flatnonzero(factor)
    if live.size:
        X = _encode_columns(space, [col[live] for col in snapped])
        for j, model in enumerate(models):
            mu, sigma = gp_posterior(model, X)
            out[live, j] = expected_improvement(mu, sigma, y_best[j]) * factor[live]
    return out
