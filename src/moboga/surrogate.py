"""Exact Gaussian-process regression over the normalized encoding.

One model per objective. Kernel is squared-exponential with per-dimension
length scales; targets are centered and scaled before fitting and predictions
are mapped back on output, so fixed hyperparameters refer to the standardized
target scale. A kernel block comes from ``D``, the squared differences of its
two sets of points, laid out C-contiguous as (d, m, n): one multiply by the
weights -1/(2 l_i^2) and one sum over the first axis. On that layout numpy adds
the d slices into each entry in order 0..d-1 (on a strided ``D`` it would sum
pairwise), so each entry is the same dimension-by-dimension sum whichever other
rows share the call.

Hyperparameters theta = (log l_1 .. log l_d, log sv) maximize the log marginal
likelihood plus log-normal priors of variance 3, centred at sqrt(2) + log(d) / 2
on each log l_i (Hvarfner, Hellsten & Nardi, ICML 2024) and at 0 on log sv, the
targets being standardized; the priors keep theta finite where the evidence
alone keeps rising. A fit builds ``D`` of the training inputs and one bordered
matrix ``[[K + s2 I, y], [y^T, c]]`` once, a search also one workspace the size
of ``D``; each evaluation weights ``D`` into the workspace, copies the kernel
into the leading block and takes the evidence from one Cholesky factor (GPML
§2.2, Alg. 2.1). The factor's leading block is the factor ``L`` of ``K + s2 I``
and its last row is ``z = L^-1 y``, so ``y^T (K + s2 I)^-1 y = z.z`` needs no
triangular solve. The search scores seeded draws of theta (with ``start``, the
hyperparameters of an earlier fit, among them) and climbs from the best by BFGS
with backtracking, until no step of 1e-3 in any coordinate ascends; a trial
whose ``exp`` overflows or whose factor fails scores -inf. The gradient is GPML
eq. 5.9 from ``K^-1 = L^-T L^-1``, with ``L^-1`` from a blocked triangular
inverse. The fitted model's ``log_evidence``, from the same helper, is the
evidence without the prior. A fit given fixed ``hyper`` runs no search: it
forms the kernel once and takes one factor, escalating jitter only if it fails.

A fit given ``keep``, an earlier model, keeps its length scales and signal
variance at the default noise; the engine fits this way between
hyperparameter searches. When that model had no jitter and the archive is its
inputs plus one row, the fit borders the model's factor by that row in O(n^2)
instead of refactoring in O(n^3) (the sequential update of GPML §2.2): with
``k`` the new row's kernel column, ``l = L^-1 k``, the new pivot is
``sqrt(sv + s2 - l.l)`` and the new row of ``L^-1`` is ``-(L^-T l)^T /
pivot``; ``z`` is recomputed, as the target standardization moves with every
point. Otherwise, or when the new pivot^2 falls below s2 / 2 (in exact
arithmetic the Schur complement of ``K + s2 I`` is at least s2), it takes the
full factor.

The model keeps ``L`` and ``L^-1``, formed once per fit or bordered from the
earlier model's, so the posterior over a matrix of test inputs (GPML Alg. 2.1)
is one kernel block and one matrix product ``v = L^-1 k`` for every row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JITTER_FLOOR = 1e-10
JITTER_CEIL = 1e-4
DEFAULT_NOISE = 1e-8

_LS_LOG_RANGE = (math.log(0.05), math.log(2.0))
_SV_LOG_RANGE = (math.log(0.1), math.log(10.0))
_N_STARTS = 16
_N_WARM_DRAWS = 3
_STEP_TOL = 1e-3      # the ascent stops once no log hyperparameter moves this far
_MAX_ASCENT_STEPS = 100
_INV_BLOCK = 32
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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
    chol: np.ndarray           # L, the lower Cholesky factor of K + noise*I (standardized)
    chol_inv: np.ndarray       # L^-1
    alpha: np.ndarray          # (K + noise*I)^-1 y_standardized
    y_mean: float
    y_scale: float
    log_evidence: float


def _sq_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-contiguous squared differences (d, m, n) between rows of a (m, d) and b (n, d)."""
    D = np.subtract(a.T[:, :, None], b.T[:, None, :], order="C")
    return np.square(D, out=D)


def _se(
    D: np.ndarray, length_scales: np.ndarray, signal_variance: float, buf: np.ndarray | None = None
) -> np.ndarray:
    """SE-ARD kernel sv * exp(-1/2 sum_i D_i / l_i^2); ``buf``, shaped like D, holds the terms."""
    s = np.add.reduce(np.multiply(D, (-0.5 / length_scales**2)[:, None, None], out=buf), axis=0)
    np.exp(s, out=s)
    s *= signal_variance
    return s


def _bordered(y_std: np.ndarray) -> np.ndarray:
    """The (n + 1, n + 1) matrix [[K, y], [y^T, c]] whose leading block
    _bordered_factor fills with K + noise I.

    Every noise variance is at least JITTER_FLOOR and K + noise I >= noise I,
    so z = L^-1 y has z.z <= y.y / JITTER_FLOOR. Then c = 2 y.y / JITTER_FLOOR
    + 1 keeps the bordered matrix positive definite whenever its leading block
    is; c enters only the last pivot.
    """
    n = len(y_std)
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, n] = bordered[n, :n] = y_std
    bordered[n, n] = 2.0 * (y_std @ y_std) / JITTER_FLOOR + 1.0
    return bordered


def _bordered_factor(
    bordered: np.ndarray, gram: np.ndarray, noise: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Copy gram + noise I into the leading block of ``bordered`` and factor
    it with one Cholesky; raises LinAlgError on failure.

    Returns L, the factor of gram + noise I (the factor's leading block),
    z = L^-1 y (its last row) and the log marginal likelihood of y.
    """
    n = len(gram)
    bordered[:n, :n] = gram
    bordered.reshape(-1)[: n * (n + 2) : n + 2] += noise
    F = np.linalg.cholesky(bordered)
    L, z = F[:n, :n], F[n, :n]
    return L, z, _log_evidence(L, z)


def _log_evidence(L: np.ndarray, z: np.ndarray) -> float:
    """log N(y | 0, L L^T) from the factor L and z = L^-1 y."""
    return float(-0.5 * (z @ z) - np.log(L.diagonal()).sum() - len(z) * _HALF_LOG_2PI)


def _chol_with_jitter(
    bordered: np.ndarray, gram: np.ndarray, noise: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """_bordered_factor at noise + jitter, escalating jitter from 0; returns
    L, z, the log evidence and the jitter."""
    jitter = 0.0
    while True:
        try:
            return *_bordered_factor(bordered, gram, noise + jitter), jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_FLOOR if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CEIL:
                n = len(gram)
                gram.reshape(-1)[:: n + 1] += noise
                cond = float(np.linalg.cond(gram))
                raise GpNumericalError(
                    f"Cholesky failed after jitter escalation to {JITTER_CEIL} "
                    f"(n={n}, condition number ~{cond:.3e})"
                ) from None


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L, exactly lower-triangular: by halves,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], down to blocks of at
    most _INV_BLOCK rows, each inverted as gp_fit inverts L (exactly lower)."""
    n = len(L)
    if n <= _INV_BLOCK:
        return np.linalg.inv(L.T).T
    h = n // 2
    Li = np.zeros_like(L)
    Ai = Li[:h, :h] = _tril_inv(L[:h, :h])
    Ci = Li[h:, h:] = _tril_inv(L[h:, h:])
    Li[h:, :h] = -(Ci @ (L[h:, :h] @ Ai))
    return Li


def _prior_offset(theta: np.ndarray) -> np.ndarray:
    """theta minus its prior means: sqrt(2) + log(d) / 2 on each log l_i, 0 on log sv."""
    off = theta.copy()
    off[:-1] -= math.sqrt(2.0) + 0.5 * math.log(len(theta) - 1)
    return off


def _evidence_objective(
    theta: np.ndarray, D: np.ndarray, bordered: np.ndarray, buf: np.ndarray
) -> tuple[float, tuple]:
    """Log evidence plus log prior at theta, and the kernel, L and z its
    gradient needs; -inf where exp overflows or the factor fails."""
    d = len(D)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            gram = _se(D, np.exp(theta[:d]), float(np.exp(theta[d])), buf)
        L, z, ev = _bordered_factor(bordered, gram, DEFAULT_NOISE)
    except (FloatingPointError, np.linalg.LinAlgError):
        return -np.inf, ()
    return ev - (_prior_offset(theta) ** 2).sum() / 6.0, (gram, L, z)


def _evidence_gradient(
    theta: np.ndarray, D: np.ndarray, gram: np.ndarray, L: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """The objective's gradient: GPML eq. 5.9 with W = (alpha alpha^T - K^-1)
    o K, dK/dlog l_i = K o D_i / l_i^2 and dK/dlog sv = K."""
    d = len(D)
    Li = _tril_inv(L)
    alpha = Li.T @ z
    W = np.outer(alpha, alpha)
    W -= Li.T @ Li
    W *= gram
    ls_part = (D.reshape(d, -1) @ W.ravel()) * np.exp(-2.0 * theta[:d])
    return 0.5 * np.append(ls_part, W.sum()) - _prior_offset(theta) / 3.0


def _maximize_evidence(
    bordered: np.ndarray,
    D: np.ndarray,
    start: GpHyperParams | None,
) -> GpHyperParams:
    d = D.shape[0]
    rng = np.random.default_rng(0)
    buf = np.empty_like(D)
    n_draws = _N_STARTS if start is None else _N_WARM_DRAWS
    starts = np.column_stack(
        [rng.uniform(*_LS_LOG_RANGE, size=n_draws) for _ in range(d)]
        + [rng.uniform(*_SV_LOG_RANGE, size=n_draws)]
    )
    if start is not None:
        # the earlier fit's noise may carry its jitter: only the kernel carries over
        theta0 = np.append(np.log(start.length_scales), math.log(start.signal_variance))
        starts = np.vstack([theta0, starts])
    # the first best start; max over a generator keeps only its kernel and factor
    scored = ((*_evidence_objective(theta, D, bordered, buf), theta) for theta in starts)
    value, parts, theta = max(scored, key=lambda s: s[0])
    if not parts:  # no start could be factored: leave it to gp_fit's jitter
        return GpHyperParams(np.exp(theta[:d]), float(np.exp(theta[d])))

    # BFGS (Nocedal & Wright, Alg. 6.1), H the inverse Hessian of -objective: a step
    # moves at most one e-fold and halves until it gains 1e-4 of what its slope promises
    g, H, eye = _evidence_gradient(theta, D, *parts), None, np.eye(d + 1)
    for _ in range(_MAX_ASCENT_STEPS):
        step = g if H is None else H @ g
        if not step @ g > 0.0:  # H lost its curvature: restart along the gradient
            H, step = None, g
        step = step / max(1.0, np.abs(step).max())
        while np.abs(step).max() >= _STEP_TOL:
            trial, parts = _evidence_objective(theta + step, D, bordered, buf)
            if trial >= value + 1e-4 * (step @ g):
                break
            step *= 0.5
        else:
            break  # no step above the tolerance ascends: converged
        theta, value = theta + step, trial
        g, g_old = _evidence_gradient(theta, D, *parts), g
        y = g_old - g  # the change in the gradient of -objective
        sy = step @ y
        if sy > 0.0:
            H = eye * (sy / (y @ y)) if H is None else H
            V = eye - np.outer(step, y) / sy
            H = V @ H @ V.T + np.outer(step, step) / sy
    return GpHyperParams(np.exp(theta[:d]), float(np.exp(theta[d])))


def _extended_factor(keep: GpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """L and L^-1 of the kernel on X, bordered from keep's by X's last row.

    None when keep had jitter, when X is not keep's inputs plus one row, or
    when the new pivot^2, the Schur complement of K + s2 I (at least s2 in
    exact arithmetic), falls below s2 / 2, where rounding has taken over. Each
    product with L^-1 or L^-T gets one step of refinement against L, which
    holds the error near that of a fresh factor on ill-conditioned kernels.
    """
    L, Li, h = keep.chol, keep.chol_inv, keep.hyper
    n = len(L)
    if h.noise_variance != DEFAULT_NOISE or X.shape[0] != n + 1:
        return None
    if not np.array_equal(X[:n], keep.train_inputs):
        return None
    k = _se(_sq_diffs(keep.train_inputs, X[n:]), h.length_scales, h.signal_variance)[:, 0]
    l = Li @ k
    l += Li @ (k - L @ l)
    pivot2 = h.signal_variance + h.noise_variance - l @ l
    if not pivot2 >= 0.5 * h.noise_variance:
        return None
    pivot = math.sqrt(pivot2)
    w = Li.T @ l  # L^-T l
    w += Li.T @ (l - L.T @ w)
    L1 = np.zeros((n + 1, n + 1))
    L1[:n, :n] = L
    L1[n, :n] = l
    L1[n, n] = pivot
    Li1 = np.zeros((n + 1, n + 1))
    Li1[:n, :n] = Li
    Li1[n, :n] = -w / pivot
    Li1[n, n] = 1.0 / pivot
    return L1, Li1


def gp_fit(
    X: np.ndarray,
    y: np.ndarray,
    hyper: GpHyperParams | None = None,
    *,
    start: GpHyperParams | None = None,
    keep: GpModel | None = None,
) -> GpModel:
    """Fit a GP; hyper=None maximizes the evidence, otherwise hyper is fixed.

    ``start`` warm-starts the evidence search from an earlier fit's length
    scales and signal variance (its noise is not carried over). ``keep`` fixes
    an earlier model's length scales and signal variance at the default
    noise: when that model had no jitter and X is its inputs plus one row, its
    factor is extended by that row in O(n^2) instead of refactored. At most
    one of ``hyper``, ``start`` and ``keep`` may be given.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    kept = None if keep is None else keep.hyper
    named = (("fixed hyper", hyper), ("warm start", start), ("kept model", kept))
    given = [(name, h) for name, h in named if h is not None]
    if len(given) > 1:
        raise ValueError(f"pass either {given[0][0]} or {given[1][0]}, not both")
    for name, h in given:
        if h.length_scales.shape != (X.shape[1],):
            raise ValueError(
                f"{name} has {h.length_scales.size} length scales for {X.shape[1]} dimensions"
            )

    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    y_std = (y - y_mean) / y_scale

    factor = None if keep is None else _extended_factor(keep, X)
    if factor is not None:
        L, chol_inv = factor
        z = chol_inv @ y_std  # the standardization moves with every point
        return GpModel(
            X, y, keep.hyper, L, chol_inv, chol_inv.T @ z, y_mean, y_scale, _log_evidence(L, z)
        )
    if keep is not None:
        hyper = GpHyperParams(keep.hyper.length_scales, keep.hyper.signal_variance)

    D = _sq_diffs(X, X)
    bordered = _bordered(y_std)
    if hyper is None:
        hyper = _maximize_evidence(bordered, D, start)

    gram = _se(D, hyper.length_scales, hyper.signal_variance, D)  # D's last use: weight in place
    L, z, ev, jitter = _chol_with_jitter(bordered, gram, hyper.noise_variance)
    if jitter > 0.0:
        hyper = GpHyperParams(
            hyper.length_scales, hyper.signal_variance, hyper.noise_variance + jitter
        )
    # L^T is upper-triangular, so its LU needs no row exchange and the solve
    # against the identity is a triangular one: L^-1 comes out exactly lower
    chol_inv = np.linalg.inv(L.T).T
    return GpModel(X, y, hyper, L, chol_inv, chol_inv.T @ z, y_mean, y_scale, ev)


def gp_posterior(m: GpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and standard deviation of the latent function at each
    row of X: (q, d) -> (mu (q,), sigma (q,)); a 1-D X is one row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != m.train_inputs.shape[1]:
        raise ValueError(
            f"query dimension {X.shape[1]} != trained dimension {m.train_inputs.shape[1]}"
        )
    # the SE-ARD cross-covariance, (n, q)
    k = _se(_sq_diffs(m.train_inputs, X), m.hyper.length_scales, m.hyper.signal_variance)
    mu_std = k.T @ m.alpha
    v = m.chol_inv @ k
    var = m.hyper.signal_variance - np.sum(v**2, axis=0)
    var = np.maximum(var, 0.0)
    mu = m.y_mean + m.y_scale * mu_std
    sigma = m.y_scale * np.sqrt(var)
    return mu, sigma
