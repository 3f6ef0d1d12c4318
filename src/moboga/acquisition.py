"""Constraint-aware expected improvement over a batch of candidates.

The improvement integral under a Gaussian predictive marginal has the usual
closed form, so the quadrature lives only in the test suite as an oracle.
Constraint factors multiply the result: indicator (0/1) for hard constraints,
beta in [0, 1) for violated soft ones. Their product runs once per candidate;
each objective then takes one posterior over the candidates it leaves above 0.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .objectives import ConstraintSpec, soft_factor
from .space import Candidate, SearchSpace, encode
from .surrogate import GpModel, gp_posterior

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
    space: SearchSpace, candidates: list[Candidate],
) -> np.ndarray:
    """EI of each candidate (rows) under each objective (columns), scaled by
    the candidate's product of constraint factors; (m, k).

    y_best[j] is objective j's incumbent: the best (minimum) observed target
    among feasible observations when any exist, else the global best.
    """
    factor = np.ones(len(candidates))
    for i, x in enumerate(candidates):
        for c in constraints:
            factor[i] *= soft_factor(c, x)
            if factor[i] == 0.0:
                break
    out = np.zeros((len(candidates), len(models)))
    live = np.flatnonzero(factor)
    if live.size:
        X = np.array([encode(space, candidates[i]) for i in live])
        for j, model in enumerate(models):
            mu, sigma = gp_posterior(model, X)
            out[live, j] = expected_improvement(mu, sigma, y_best[j]) * factor[live]
    return out
