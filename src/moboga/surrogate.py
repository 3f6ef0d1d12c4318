"""Exact Gaussian-process regression over the normalized encoding.

One model per objective. Kernel is squared-exponential with per-dimension
length scales; targets are centered and scaled before fitting and predictions
are mapped back on output, so fixed hyperparameters refer to the standardized
target scale. Hyperparameters are chosen by maximizing the log marginal
likelihood with a seeded multi-start coordinate pattern search (archive sizes
stay small enough that exact solves are cheap). The posterior is taken over a
matrix of test inputs at once (GPML Alg. 2.1): one kernel block and one
triangular solve serve every row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

JITTER_FLOOR = 1e-10
JITTER_CEIL = 1e-4
DEFAULT_NOISE = 1e-8

_LS_LOG_RANGE = (math.log(0.05), math.log(2.0))
_SV_LOG_RANGE = (math.log(0.1), math.log(10.0))
_N_STARTS = 16
_SEARCH_BUDGET = 200


class GpNumericalError(RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class GpHyperParams:
    length_scales: np.ndarray  # one per encoded dimension, > 0
    signal_variance: float
    noise_variance: float = DEFAULT_NOISE

    def __post_init__(self) -> None:
        ls = np.asarray(self.length_scales, dtype=float).reshape(-1)
        object.__setattr__(self, "length_scales", ls)
        if not (np.all(np.isfinite(ls)) and np.all(ls > 0)):
            raise ValueError("length scales must be finite and positive")
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ValueError("signal variance must be finite and positive")
        if not (np.isfinite(self.noise_variance) and self.noise_variance >= JITTER_FLOOR):
            raise ValueError(f"noise variance must be >= {JITTER_FLOOR}")


@dataclass(frozen=True)
class GpModel:
    train_inputs: np.ndarray   # (n, d), encoded
    train_targets: np.ndarray  # (n,), raw scale
    hyper: GpHyperParams
    chol: np.ndarray           # lower Cholesky factor of K + noise*I (standardized)
    alpha: np.ndarray          # (K + noise*I)^-1 y_standardized
    y_mean: float
    y_scale: float
    log_evidence: float

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def _kernel(a: np.ndarray, b: np.ndarray, hyper: GpHyperParams) -> np.ndarray:
    """SE-ARD cross-covariance between rows of a (m, d) and b (n, d)."""
    sa = a / hyper.length_scales
    sb = b / hyper.length_scales
    sq = (
        np.sum(sa**2, axis=1)[:, None]
        + np.sum(sb**2, axis=1)[None, :]
        - 2.0 * (sa @ sb.T)
    )
    return hyper.signal_variance * np.exp(-0.5 * np.maximum(sq, 0.0))


def _chol_with_jitter(gram: np.ndarray, noise: float) -> tuple[np.ndarray, float]:
    n = gram.shape[0]
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(gram + (noise + jitter) * np.eye(n))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_FLOOR if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CEIL:
                cond = float(np.linalg.cond(gram + noise * np.eye(n)))
                raise GpNumericalError(
                    f"Cholesky failed after jitter escalation to {JITTER_CEIL} "
                    f"(n={n}, condition number ~{cond:.3e})"
                ) from None


def _log_evidence(X: np.ndarray, y_std: np.ndarray, hyper: GpHyperParams) -> float:
    n = X.shape[0]
    gram = _kernel(X, X, hyper)
    try:
        L = np.linalg.cholesky(gram + hyper.noise_variance * np.eye(n))
    except np.linalg.LinAlgError:
        return -np.inf
    a = cho_solve((L, True), y_std, check_finite=False)
    return float(
        -0.5 * y_std @ a - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2.0 * math.pi)
    )


def _maximize_evidence(
    X: np.ndarray, y_std: np.ndarray, noise: float, seed: int
) -> GpHyperParams:
    d = X.shape[1]
    rng = np.random.default_rng(seed)

    def hyper_of(theta: np.ndarray) -> GpHyperParams:
        return GpHyperParams(np.exp(theta[:d]), float(np.exp(theta[d])), noise)

    def objective(theta: np.ndarray) -> float:
        return _log_evidence(X, y_std, hyper_of(theta))

    starts = np.column_stack(
        [rng.uniform(*_LS_LOG_RANGE, size=_N_STARTS) for _ in range(d)]
        + [rng.uniform(*_SV_LOG_RANGE, size=_N_STARTS)]
    )
    values = [objective(theta) for theta in starts]
    best = int(np.argmax(values))
    theta, best_val = starts[best].copy(), values[best]

    # Greedy coordinate pattern search with step halving, fixed evaluation budget.
    step = 0.5
    budget = _SEARCH_BUDGET
    while budget > 0 and step > 1e-3:
        improved = False
        for i in range(d + 1):
            for sign in (1.0, -1.0):
                if budget <= 0:
                    break
                trial = theta.copy()
                trial[i] += sign * step
                val = objective(trial)
                budget -= 1
                if val > best_val + 1e-12:
                    theta, best_val = trial, val
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return hyper_of(theta)


def gp_fit(
    X: np.ndarray,
    y: np.ndarray,
    hyper: GpHyperParams | None = None,
    *,
    noise_variance: float = DEFAULT_NOISE,
    seed: int = 0,
) -> GpModel:
    """Fit a GP; hyper=None maximizes the evidence, otherwise hyper is fixed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")

    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    y_std = (y - y_mean) / y_scale

    if hyper is None:
        hyper = _maximize_evidence(X, y_std, noise_variance, seed)

    gram = _kernel(X, X, hyper)
    L, jitter = _chol_with_jitter(gram, hyper.noise_variance)
    if jitter > 0.0:
        hyper = GpHyperParams(
            hyper.length_scales, hyper.signal_variance, hyper.noise_variance + jitter
        )
    alpha = cho_solve((L, True), y_std, check_finite=False)
    ev = float(
        -0.5 * y_std @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * len(y) * math.log(2.0 * math.pi)
    )
    return GpModel(X, y, hyper, L, alpha, y_mean, y_scale, ev)


def gp_posterior(m: GpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and standard deviation of the latent function at each
    row of X: (q, d) -> (mu (q,), sigma (q,)); a 1-D X is one row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != m.train_inputs.shape[1]:
        raise ValueError(
            f"query dimension {X.shape[1]} != trained dimension {m.train_inputs.shape[1]}"
        )
    k = _kernel(m.train_inputs, X, m.hyper)  # (n, q)
    mu_std = k.T @ m.alpha
    v = solve_triangular(m.chol, k, lower=True, check_finite=False)
    var = m.hyper.signal_variance - np.sum(v**2, axis=0)
    var = np.maximum(var, 0.0)
    mu = m.y_mean + m.y_scale * mu_std
    sigma = m.y_scale * np.sqrt(var)
    return mu, sigma
