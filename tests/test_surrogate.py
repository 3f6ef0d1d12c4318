import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from moboga import surrogate
from moboga.problems import constr_ex
from moboga.surrogate import (
    DEFAULT_NOISE,
    GpHyperParams,
    GpModel,
    GpNumericalError,
    _bordered,
    _bordered_factor,
    _chol_with_jitter,
    _evidence_gradient,
    _evidence_objective,
    _se,
    _sq_diffs,
    _tril_inv,
    gp_fit,
    gp_posterior,
)


def _kernel(a, b, hyper):
    """SE-ARD cross-covariance between rows of a (m, d) and b (n, d)."""
    return _se(_sq_diffs(a, b), hyper.length_scales, hyper.signal_variance)


def oracle_posterior(X, y, hyper, x_star):
    """Dense-solve reference: explicit (K + noise I)^-1, same standardization."""
    X = np.atleast_2d(np.asarray(X, float))
    y = np.asarray(y, float)
    y_mean = y.mean()
    y_scale = y.std() if y.std() >= 1e-12 else 1.0
    y_n = (y - y_mean) / y_scale

    def k(a, b):
        diff = (a - b) / hyper.length_scales
        return hyper.signal_variance * np.exp(-0.5 * np.sum(diff**2))

    n = X.shape[0]
    K = np.array([[k(X[i], X[j]) for j in range(n)] for i in range(n)])
    K_inv = np.linalg.inv(K + hyper.noise_variance * np.eye(n))
    ks = np.array([k(X[i], np.asarray(x_star, float)) for i in range(n)])
    mu_n = ks @ K_inv @ y_n
    var_n = hyper.signal_variance - ks @ K_inv @ ks
    return y_mean + y_scale * mu_n, y_scale * np.sqrt(max(var_n, 0.0))


def fixed(ls, sv=1.0, noise=1e-8):
    return GpHyperParams(np.asarray(ls, float), sv, noise)


class TestFit:
    def test_single_point_interpolates(self):
        m = gp_fit([[0.5]], [2.0], fixed([0.3], noise=1e-6))
        mu, sigma = gp_posterior(m, [[0.5]])
        assert mu.shape == sigma.shape == (1,)
        assert mu[0] == pytest.approx(2.0, abs=1e-4)

    def test_constant_targets_reproduced_everywhere(self):
        X = np.linspace(0, 1, 6)[:, None]
        m = gp_fit(X, np.full(6, 3.0), fixed([0.3]))
        mus, _ = gp_posterior(m, X)
        for mu in mus:
            assert mu == pytest.approx(3.0, abs=1e-6)

    def test_sine_training_inputs_recovered_within_noise(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = np.sin(6 * X[:, 0])
        m = gp_fit(X, y)  # evidence-maximized
        mus, _ = gp_posterior(m, X)
        for mu, yi in zip(mus, y):
            assert mu == pytest.approx(yi, abs=1e-3)

    def test_evidence_mode_is_deterministic(self):
        rng = np.random.default_rng(0)
        X = rng.random((12, 2))
        y = np.sin(X[:, 0] * 4) + X[:, 1]
        a = gp_fit(X, y)
        b = gp_fit(X, y)
        assert np.array_equal(a.hyper.length_scales, b.hyper.length_scales)
        assert a.hyper.signal_variance == b.hyper.signal_variance

    def test_log_evidence_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.random((9, 3))
        y = rng.normal(size=9)
        hyper = fixed([0.3, 0.5, 0.8], sv=1.7, noise=1e-4)
        m = gp_fit(X, y, hyper)
        y_n = (y - y.mean()) / y.std()
        diff = (X[:, None, :] - X[None, :, :]) / hyper.length_scales
        K = hyper.signal_variance * np.exp(-0.5 * np.sum(diff**2, axis=2))
        K += hyper.noise_variance * np.eye(9)
        _, logdet = np.linalg.slogdet(K)
        oracle = -0.5 * y_n @ np.linalg.solve(K, y_n) - 0.5 * logdet - 4.5 * np.log(2 * np.pi)
        assert m.log_evidence == pytest.approx(oracle, rel=1e-10)

    def test_searched_evidence_is_the_fixed_fit_evidence(self):
        # the search and the final model share one evidence helper
        rng = np.random.default_rng(6)
        X = rng.random((15, 2))
        y = np.cos(5 * X[:, 0]) * X[:, 1]
        m = gp_fit(X, y)
        assert gp_fit(X, y, m.hyper).log_evidence == m.log_evidence

    def test_duplicate_rows_survive_via_noise_floor(self):
        X = np.array([[0.2], [0.2], [0.8]])
        m = gp_fit(X, [1.0, 1.0, 2.0], fixed([0.5]))
        assert isinstance(m, GpModel)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(np.zeros((3, 1)), np.zeros(2))


def warm_data(seed=7, n=14, d=2):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    return X, np.sin(4 * X[:, 0]) + X[:, 1] ** 2


def searched_objective(m):
    """Log evidence plus the log-normal priors' log density (up to a constant):
    N(sqrt(2) + log(d) / 2, 3) on each log length scale, N(0, 3) on log sv."""
    d = len(m.hyper.length_scales)
    log_ls = np.log(m.hyper.length_scales) - (math.sqrt(2.0) + 0.5 * math.log(d))
    log_sv = math.log(m.hyper.signal_variance)
    return m.log_evidence - ((log_ls**2).sum() + log_sv**2) / 6.0


class TestWarmStart:
    def test_warm_fit_never_ends_below_its_start(self):
        X, y = warm_data()
        for ls, sv in (([0.1, 0.1], 0.5), ([1.5, 0.3], 3.0), ([0.6, 0.6], 1.0)):
            start = fixed(ls, sv)
            at_start = gp_fit(X, y, start).log_evidence
            assert gp_fit(X, y, start=start).log_evidence >= at_start

    def test_warm_fit_from_cold_optimum_is_no_worse(self):
        X, y = warm_data()
        cold = gp_fit(X, y)
        assert searched_objective(gp_fit(X, y, start=cold.hyper)) >= searched_objective(cold)

    def test_warm_fit_is_deterministic(self):
        X, y = warm_data()
        start = gp_fit(X[:-1], y[:-1]).hyper
        a = gp_fit(X, y, start=start)
        b = gp_fit(X, y, start=start)
        assert np.array_equal(a.hyper.length_scales, b.hyper.length_scales)
        assert a.hyper.signal_variance == b.hyper.signal_variance
        assert a.log_evidence == b.log_evidence

    def test_fixed_hyper_and_start_together_rejected(self):
        X, y = warm_data()
        with pytest.raises(ValueError, match="not both"):
            gp_fit(X, y, fixed([0.3, 0.3]), start=fixed([0.3, 0.3]))

    def test_start_of_another_dimension_rejected(self):
        X, y = warm_data()
        with pytest.raises(ValueError, match="length scales"):
            gp_fit(X, y, start=fixed([0.3, 0.3, 0.3]))

    @pytest.mark.parametrize("ls", [[0.5], [0.5, 0.5]])
    def test_fixed_hyper_of_another_dimension_rejected(self, ls):
        # one length scale would broadcast into an isotropic kernel, two would not broadcast
        X, y = warm_data(d=3)
        with pytest.raises(ValueError, match=f"{len(ls)} length scales for 3 dimensions"):
            gp_fit(X, y, fixed(ls))

    def test_kept_model_of_another_dimension_rejected(self):
        X, y = warm_data()
        kept = gp_fit(X[:, :1], y, fixed([0.3]))
        with pytest.raises(ValueError, match="1 length scales for 2 dimensions"):
            gp_fit(X, y, keep=kept)

    def test_kept_model_with_fixed_hyper_or_start_rejected(self):
        X, y = warm_data()
        kept = gp_fit(X[:-1], y[:-1], fixed([0.3, 0.3]))
        with pytest.raises(ValueError, match="not both"):
            gp_fit(X, y, fixed([0.3, 0.3]), keep=kept)
        with pytest.raises(ValueError, match="not both"):
            gp_fit(X, y, start=fixed([0.3, 0.3]), keep=kept)

    def test_start_noise_is_not_carried_over(self):
        # an earlier fit's noise may hold jitter; the warm fit uses its own
        X, y = warm_data()
        start = fixed([0.4, 0.4], sv=1.0, noise=1e-5)
        m = gp_fit(X, y, start=start)
        assert m.hyper.noise_variance == DEFAULT_NOISE
        assert m.log_evidence == gp_fit(X, y, start=fixed([0.4, 0.4])).log_evidence


class TestEvidenceAscent:
    @pytest.mark.parametrize("d", [1, 2, 12])
    def test_gradient_matches_central_differences(self, d):
        rng = np.random.default_rng(0)
        X = rng.random((8, d))
        y = np.sin(5 * X).sum(axis=1)
        D, bordered = _sq_diffs(X, X), _bordered((y - y.mean()) / y.std())
        buf = np.empty_like(D)
        theta = np.append(math.log(0.1 * math.sqrt(d)) + rng.normal(0.0, 0.3, d), 0.3)
        value, parts = _evidence_objective(theta, D, bordered, buf)
        g = _evidence_gradient(theta, D, *parts)
        h = 1e-5
        central = [
            (_evidence_objective(theta + h * e, D, bordered, buf)[0]
             - _evidence_objective(theta - h * e, D, bordered, buf)[0]) / (2 * h)
            for e in np.eye(d + 1)
        ]
        assert math.isfinite(value)
        np.testing.assert_allclose(g, central, rtol=0, atol=1e-6 * np.abs(g).max())

    @pytest.mark.parametrize("n, d", [(1, 1), (6, 1), (30, 2), (12, 12)])
    def test_constant_targets_give_finite_hyperparameters_without_a_warning(self, n, d):
        # the evidence rises without bound as sv falls and the length scales grow;
        # the priors stop both, and a trial step that overflows exp scores -inf
        X = np.random.default_rng(n).random((n, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = gp_fit(X, np.full(n, 3.0))
            mus, _ = gp_posterior(m, X)
        assert np.all(np.isfinite(m.hyper.length_scales))
        assert math.isfinite(m.hyper.signal_variance) and math.isfinite(m.log_evidence)
        np.testing.assert_allclose(mus, 3.0, rtol=1e-12)

    def test_an_overflowing_or_unfactorable_theta_scores_minus_infinity(self):
        X = np.random.default_rng(1).random((6, 2))
        D, bordered = _sq_diffs(X, X), _bordered(np.linspace(-1.0, 1.0, 6))
        buf = np.empty_like(D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in ([800.0, 0.0, 0.0], [-400.0, 0.0, 0.0], [0.0, 0.0, 800.0]):
                assert _evidence_objective(np.array(theta), D, bordered, buf) == (-np.inf, ())

    @pytest.mark.parametrize("n", [1, 32, 33, 100, 151])
    def test_blocked_inverse_is_exactly_lower_and_matches_the_unblocked_one(self, n):
        # a lower-triangular M-matrix: its inverse is nonnegative, so every entry
        # sums terms of one sign and each method holds it to a few ulps
        rng = np.random.default_rng(n)
        L = np.diag(rng.uniform(0.5, 2.0, n)) - np.tril(rng.random((n, n)), -1) / n
        Li = _tril_inv(L)
        assert np.array_equal(np.tril(Li), Li)
        np.testing.assert_allclose(Li, np.linalg.inv(L.T).T, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed, n", [(7, 10), (7, 20), (7, 40), (1, 20), (2, 40)])
    def test_search_ends_where_the_gradient_nearly_vanishes(self, seed, n):
        # at a step tolerance of 1e-1 instead of 1e-3 these gradients read 0.6-13
        X, y = warm_data(seed=seed, n=n)
        m = gp_fit(X, y)
        theta = np.append(np.log(m.hyper.length_scales), math.log(m.hyper.signal_variance))
        D, bordered = _sq_diffs(X, X), _bordered((y - m.y_mean) / m.y_scale)
        _, parts = _evidence_objective(theta, D, bordered, np.empty_like(D))
        assert np.abs(_evidence_gradient(theta, D, *parts)).max() < 0.5


class TestPosterior:
    def test_training_point_interpolation_with_tiny_noise(self):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, -1.0, 0.5])
        m = gp_fit(X, y, fixed([0.3], noise=1e-8))
        mus, sigmas = gp_posterior(m, X)
        for mu, sigma, yi in zip(mus, sigmas, y):
            assert mu == pytest.approx(yi, abs=1e-4)
            assert sigma <= 1e-3

    def test_far_field_reverts_to_prior(self):
        # targets have unit std, so the standardized-space prior applies as-is
        X = np.array([[0.0], [0.02]])
        y = np.array([2.0, 4.0])  # mean 3, std 1
        hyper = fixed([0.05], sv=2.0)
        m = gp_fit(X, y, hyper)
        (mu,), (sigma,) = gp_posterior(m, [[1.0]])  # 20 length scales away
        assert mu == pytest.approx(3.0, abs=1e-3)
        assert sigma == pytest.approx(np.sqrt(2.0), abs=1e-3)

    def test_matches_dense_solve_oracle_on_three_points(self):
        X = np.array([[0.1, 0.2], [0.4, 0.9], [0.8, 0.3]])
        y = np.array([0.3, -1.2, 2.5])
        hyper = fixed([0.4, 0.6], sv=1.5, noise=1e-6)
        m = gp_fit(X, y, hyper)
        queries = [[0.0, 0.0], [0.5, 0.5], [0.3, 0.8]]
        mus, sigmas = gp_posterior(m, queries)
        for x_star, mu, sigma in zip(queries, mus, sigmas):
            o_mu, o_sigma = oracle_posterior(X, y, hyper, x_star)
            assert mu == pytest.approx(o_mu, abs=1e-10)
            assert sigma == pytest.approx(o_sigma, abs=1e-10)

    def test_batch_posterior_agrees_with_single(self):
        rng = np.random.default_rng(1)
        X = rng.random((8, 2))
        y = rng.random(8)
        m = gp_fit(X, y, fixed([0.3, 0.3]))
        Q = rng.random((5, 2))
        mus, sigmas = gp_posterior(m, Q)
        for i, q in enumerate(Q):
            (mu,), (sigma,) = gp_posterior(m, q[None, :])
            assert mu == pytest.approx(mus[i], rel=1e-12, abs=1e-13)
            assert sigma == pytest.approx(sigmas[i], rel=1e-12, abs=1e-13)

    def test_kernel_entries_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(8)
        A = rng.random((10, 5))
        B = rng.random((40, 5))
        hyper = fixed(rng.uniform(0.1, 1.0, 5), sv=1.3)
        K = _kernel(A, B, hyper)
        for i in range(len(B)):
            assert np.array_equal(K[:, i], _kernel(A, B[i : i + 1], hyper)[:, 0])

    def test_dimension_mismatch_rejected(self):
        m = gp_fit([[0.5, 0.5]], [1.0], fixed([0.3, 0.3]))
        with pytest.raises(ValueError):
            gp_posterior(m, [0.5])


def _se_by_dimension(D, length_scales, signal_variance, buf=None):
    """The kernel summed one dimension at a time, in order: the bit-level reference."""
    w = -0.5 / length_scales**2
    s = D[0] * w[0]
    for Di, wi in zip(D[1:], w[1:]):
        s += Di * wi
    np.exp(s, out=s)
    s *= signal_variance
    return s


class TestKernelLayout:
    @pytest.mark.parametrize("m, n", [(1, 1), (7, 1), (13, 13), (13, 40), (150, 150)])
    def test_squared_differences_are_c_contiguous_and_exact(self, m, n):
        rng = np.random.default_rng(m * n)
        a, b = rng.random((m, 12)), rng.random((n, 12))
        D = _sq_diffs(a, b)
        assert D.flags.c_contiguous
        assert D.shape == (12, m, n)
        assert np.array_equal(D, (a.T[:, :, None] - b.T[:, None, :]) ** 2)

    @pytest.mark.parametrize("d", [1, 2, 12])
    @pytest.mark.parametrize("q", [None, 1, 40])
    def test_kernel_equals_the_dimension_by_dimension_sum_bit_for_bit(self, d, q):
        # q None is the square training block of a fit; q rows are a posterior block
        rng = np.random.default_rng(10 * d + (q or 0))
        X = rng.random((13, d))
        D = _sq_diffs(X, X if q is None else rng.random((q, d)))
        for log_ls in (np.full(d, -4.0), np.full(d, 4.0), rng.uniform(-4, 4, d)):
            ls, sv = np.exp(log_ls), float(np.exp(rng.uniform(-2, 2)))
            want = _se_by_dimension(D, ls, sv)
            assert np.array_equal(_se(D, ls, sv), want)
            assert np.array_equal(_se(D, ls, sv, np.empty_like(D)), want)

    @pytest.mark.parametrize("d", [2, 12])
    def test_fit_matches_the_dimension_by_dimension_kernel_bit_for_bit(self, d, monkeypatch):
        X, y = warm_data(seed=d, n=13, d=d)
        cold = gp_fit(X[:-1], y[:-1])
        fits = [cold, gp_fit(X, y, start=cold.hyper)]
        monkeypatch.setattr(surrogate, "_se", _se_by_dimension)
        refs = [gp_fit(X[:-1], y[:-1]), gp_fit(X, y, start=cold.hyper)]
        for fit, ref in zip(fits, refs):
            assert np.array_equal(fit.hyper.length_scales, ref.hyper.length_scales)
            assert fit.hyper.signal_variance == ref.hyper.signal_variance
            assert fit.log_evidence == ref.log_evidence

    def test_failed_escalation_reports_the_condition_of_gram_plus_noise(self, monkeypatch):
        def never(bordered, gram, noise):
            raise np.linalg.LinAlgError

        X = np.random.default_rng(3).random((6, 2))
        gram = _kernel(X, X, fixed([0.3, 0.4]))
        cond = np.linalg.cond(gram + 1e-3 * np.eye(6))
        monkeypatch.setattr(surrogate, "_bordered_factor", never)
        with pytest.raises(GpNumericalError, match=re.escape(f"condition number ~{cond:.3e}")):
            _chol_with_jitter(_bordered(np.zeros(6)), gram, 1e-3)


# the drifted theta of a seed-7, 58-evaluation binh-korn explore
DRIFTED = dict(ls=[20.0, 32.7], sv=2.4e5, noise=1e-8)


def binh_korn_data(rng, n):
    """n uniform points of the unit cube and Binh-Korn's f1 over them, standardized."""
    X = rng.random((n, 2))
    y = 4 * (5 * X[:, 0]) ** 2 + 4 * (3 * X[:, 1]) ** 2
    return X, (y - y.mean()) / (y.std() if n > 1 else 1.0)


class TestBorderedFactor:
    @pytest.mark.parametrize("n", [1, 8, 160])
    def test_z_and_evidence_match_triangular_solve_and_slogdet(self, n):
        rng = np.random.default_rng(n)
        X, y = rng.random((n, 2)), rng.normal(size=n)
        hyper = fixed([0.3, 0.5], sv=1.7, noise=1e-4)
        K = _kernel(X, X, hyper) + hyper.noise_variance * np.eye(n)
        L, z, ev = _bordered_factor(_bordered(y), _kernel(X, X, hyper), hyper.noise_variance)
        assert np.array_equal(np.tril(L), L)
        np.testing.assert_allclose(L @ L.T, K, rtol=0, atol=1e-13 * hyper.signal_variance)
        np.testing.assert_allclose(z, solve_triangular(L, y, lower=True), rtol=1e-10, atol=1e-12)
        _, logdet = np.linalg.slogdet(K)
        oracle = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)
        assert ev == pytest.approx(oracle, rel=1e-10)

    def test_never_fails_where_the_plain_factor_succeeds_at_the_drifted_theta(self):
        hyper = fixed(**DRIFTED)
        rng = np.random.default_rng(58)
        factored = 0
        for n in (2, 5, 8, 13, 21, 34, 45, 58) * 5:
            X, y = binh_korn_data(rng, n)
            try:
                np.linalg.cholesky(_kernel(X, X, hyper) + hyper.noise_variance * np.eye(n))
            except np.linalg.LinAlgError:
                continue
            factored += 1
            _, z, ev = _bordered_factor(_bordered(y), _kernel(X, X, hyper), hyper.noise_variance)
            assert np.all(np.isfinite(z)) and math.isfinite(ev)
        assert factored > 0


class TestCachedInverse:
    def test_posterior_matches_a_triangular_solve_reference_and_the_dense_oracle(self):
        # the two paths round differently: the mean by up to n ulps of the sum
        # |k|.|alpha|, the variance by n ulps of sv times cond(L), the error
        # factor of an explicit triangular inverse
        eps = np.finfo(float).eps
        rng = np.random.default_rng(9)
        for n in (1, 8, 60):
            X, y = rng.random((n, 2)), rng.normal(size=n)
            hyper = fixed([0.3, 0.5], sv=1.3, noise=1e-6)
            m = gp_fit(X, y, hyper)
            assert np.array_equal(np.tril(m.chol_inv), m.chol_inv)
            Q = rng.random((30, 2))
            mus, sigmas = gp_posterior(m, Q)
            L = np.linalg.cholesky(_kernel(X, X, hyper) + hyper.noise_variance * np.eye(n))
            y_std = (y - m.y_mean) / m.y_scale
            alpha = solve_triangular(L.T, solve_triangular(L, y_std, lower=True), lower=False)
            k = _kernel(X, Q, hyper)
            v = solve_triangular(L, k, lower=True)
            mu_tol = n * eps * m.y_scale * (np.abs(k).T @ np.abs(alpha))
            assert np.all(np.abs(mus - (m.y_mean + m.y_scale * (k.T @ alpha))) <= mu_tol)
            var = (sigmas / m.y_scale) ** 2
            ref_var = np.maximum(hyper.signal_variance - np.sum(v**2, axis=0), 0.0)
            var_tol = n * eps * hyper.signal_variance * np.linalg.cond(L)
            assert np.all(np.abs(var - ref_var) <= var_tol)
            for x_star, mu, sigma in zip(Q[:5], mus, sigmas):
                o_mu, o_sigma = oracle_posterior(X, y, hyper, x_star)
                assert mu == pytest.approx(o_mu, abs=1e-8)
                assert sigma == pytest.approx(o_sigma, abs=1e-6)

    def test_sigma_nonnegative_at_the_drifted_theta(self):
        rng = np.random.default_rng(7)
        X, y = binh_korn_data(rng, 40)
        m = gp_fit(X, y, fixed(**DRIFTED))
        mus, sigmas = gp_posterior(m, np.vstack([X, rng.random((60, 2))]))
        assert np.all(np.isfinite(mus)) and np.all(np.isfinite(sigmas))
        assert np.all(sigmas >= 0.0)


class TestInvariants:
    def test_variance_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d = int(rng.integers(1, 20)), int(rng.integers(1, 4))
            X = rng.random((n, d))
            y = rng.normal(size=n)
            m = gp_fit(X, y, fixed(rng.uniform(0.05, 1.0, d), sv=rng.uniform(0.2, 4.0)))
            _, sigmas = gp_posterior(m, rng.random((30, d)))
            assert np.all(sigmas >= 0.0)

    def test_adding_a_point_never_inflates_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 3))
            hyper = fixed(rng.uniform(0.1, 1.0, d), sv=1.0, noise=1e-6)
            X = rng.random((n, d))
            y = rng.normal(size=n)
            extra_x, extra_y = rng.random(d), rng.normal()
            x_star = rng.random(d)
            _, (s_before,) = gp_posterior(gp_fit(X, y, hyper), x_star[None, :])
            grown = gp_fit(np.vstack([X, extra_x]), np.append(y, extra_y), hyper)
            # compare latent variances on the standardized scale to factor out
            # the target-rescaling that the new point induces
            s_before_n = s_before / gp_fit(X, y, hyper).y_scale
            s_after_n = gp_posterior(grown, x_star[None, :])[1][0] / grown.y_scale
            assert s_after_n <= s_before_n + 1e-8

    def test_permuting_training_rows_leaves_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        hyper = fixed([0.4, 0.4])
        perm = rng.permutation(10)
        a = gp_fit(X, y, hyper)
        b = gp_fit(X[perm], y[perm], hyper)
        queries = rng.random((8, 2))
        mus_a, sigmas_a = gp_posterior(a, queries)
        mus_b, sigmas_b = gp_posterior(b, queries)
        for mu_a, s_a, mu_b, s_b in zip(mus_a, sigmas_a, mus_b, sigmas_b):
            assert mu_a == pytest.approx(mu_b, abs=1e-10)
            assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_hyper_params_validated(self):
        with pytest.raises(ValueError):
            GpHyperParams(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            GpHyperParams(np.array([1.0]), -1.0)
        with pytest.raises(ValueError):
            GpHyperParams(np.array([1.0]), 1.0, noise_variance=0.0)


def ld_cholesky(A):
    """Lower Cholesky factor of A, row by row in A's dtype (np.linalg has no longdouble)."""
    L = np.zeros_like(A)
    for j in range(len(A)):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def ld_forward(L, B):
    """L^-1 B by forward substitution in L's dtype."""
    B = B.copy()
    for i in range(len(L)):
        B[i] = (B[i] - L[i, :i] @ B[:i]) / L[i, i]
    return B


def ld_posterior(X, y, hyper, Q):
    """mu, sigma and the target scale of the GP on (X, y), all in np.longdouble."""
    ld = np.longdouble
    X, y, Q = X.astype(ld), y.astype(ld), Q.astype(ld)
    ls, sv = hyper.length_scales.astype(ld), ld(hyper.signal_variance)

    def k(a, b):
        return sv * np.exp(-0.5 * (((a[:, None, :] - b[None, :, :]) / ls) ** 2).sum(axis=-1))

    y_mean, y_scale = y.mean(), y.std()
    L = ld_cholesky(k(X, X) + ld(hyper.noise_variance) * np.eye(len(X), dtype=ld))
    z = ld_forward(L, (y - y_mean) / y_scale)
    v = ld_forward(L, k(X, Q))
    var = np.maximum(sv - (v * v).sum(axis=0), 0)
    return y_mean + y_scale * (v.T @ z), y_scale * np.sqrt(var), y_scale


def same_hyper(a, b):
    return np.array_equal(a.length_scales, b.length_scales) and (
        a.signal_variance, a.noise_variance) == (b.signal_variance, b.noise_variance)


def same_fit(a, b):
    return (
        same_hyper(a.hyper, b.hyper)
        and all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("chol", "chol_inv", "alpha", "train_inputs", "train_targets"))
        and (a.y_mean, a.y_scale, a.log_evidence) == (b.y_mean, b.y_scale, b.log_evidence)
    )


class TestExtend:
    """gp_fit(X, y, keep=m) borders m's factor by X's one new row."""

    def test_extension_equals_the_full_fit_on_well_conditioned_data(self):
        rng = np.random.default_rng(11)
        X = rng.random((25, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1]
        hyper = fixed([0.2, 0.2], sv=1.3)
        m = gp_fit(X[:20], y[:20], hyper)
        Q = rng.random((40, 2))
        for n in range(21, 26):
            m = gp_fit(X[:n], y[:n], keep=m)
            full = gp_fit(X[:n], y[:n], hyper)
            assert same_hyper(m.hyper, full.hyper) and m.chol.shape == (n, n)
            assert not np.array_equal(m.chol, full.chol)  # extended, not refactored
            for got, want in zip(gp_posterior(m, Q), gp_posterior(full, Q)):
                np.testing.assert_allclose(got, want, rtol=1e-9)
            np.testing.assert_allclose(m.alpha, full.alpha, rtol=1e-9)
            assert m.log_evidence == pytest.approx(full.log_evidence, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_on_a_deep_archive_stays_within_twice_the_full_fits_error(self, seed):
        # constr-ex behind 150 uniform points, theta from a cold search: log evidence
        # above 700, where products with L^-1 and L^-T that skip the refinement
        # against L lose up to 60x accuracy
        rng = np.random.default_rng(seed)
        U = rng.random((160, 2))
        T = np.column_stack(constr_ex(0.1 + 0.9 * U[:, 0], 5.0 * U[:, 1]))
        Q = np.vstack([rng.random((30, 2)), U[:150:5] + 1e-3 * rng.normal(size=(30, 2))])
        for j in range(2):
            m = gp_fit(U[:150], T[:150, j])
            hyper = m.hyper
            assert hyper.noise_variance == DEFAULT_NOISE and m.log_evidence > 700
            err_ext, err_full = np.zeros(2), np.zeros(2)
            for n in range(151, 161):
                m = gp_fit(U[:n], T[:n, j], keep=m)
                assert m.chol.shape == (n, n) and same_hyper(m.hyper, hyper)
                ref_mu, ref_sigma, scale = ld_posterior(U[:n], T[:n, j], hyper, Q)
                for err, fit in ((err_ext, m), (err_full, gp_fit(U[:n], T[:n, j], hyper))):
                    mu, sigma = gp_posterior(fit, Q)
                    err[:] = np.maximum(err, [np.abs(mu - ref_mu).max() / scale,
                                              np.abs(sigma - ref_sigma).max() / scale])
            assert np.all(err_ext <= 2.0 * err_full), (j, err_ext, err_full)

    def test_jittered_kept_model_is_refitted_at_the_default_noise(self):
        rng = np.random.default_rng(0)
        X = rng.random((13, 1))
        y = X[:, 0] ** 2
        kept = gp_fit(X[:12], y[:12], fixed([3.0], sv=1e8))
        assert kept.hyper.noise_variance > DEFAULT_NOISE
        assert same_fit(gp_fit(X, y, keep=kept), gp_fit(X, y, fixed([3.0], sv=1e8)))

    def test_two_new_rows_or_a_changed_prefix_are_refactored(self):
        X, y = warm_data(n=16)
        hyper = fixed([0.4, 0.6], sv=1.5)
        kept = gp_fit(X[:14], y[:14], hyper)
        assert same_fit(gp_fit(X, y, keep=kept), gp_fit(X, y, hyper))
        moved = X[:15].copy()
        moved[3, 0] += 1e-9
        assert same_fit(gp_fit(moved, y[:15], keep=kept), gp_fit(moved, y[:15], hyper))

    @pytest.mark.parametrize("share, extended", [(0.25, False), (1.0, True)])
    def test_a_pivot_below_half_the_noise_is_refactored(self, share, extended):
        # scaling the kept factor by c scales l = L^-1 k by 1/c, so c sets the new
        # pivot^2 to share * noise; the new row repeats a training row
        X, y = warm_data(n=15)
        X[14] = X[5]
        hyper = fixed([0.4, 0.6], sv=1.5)
        kept = gp_fit(X[:14], y[:14], hyper)
        ll = hyper.signal_variance + DEFAULT_NOISE - gp_fit(X, y, keep=kept).chol[-1, -1] ** 2
        c = math.sqrt(ll / (hyper.signal_variance + (1.0 - share) * DEFAULT_NOISE))
        forced = dataclasses.replace(kept, chol=kept.chol * c, chol_inv=kept.chol_inv / c)
        m = gp_fit(X, y, keep=forced)
        assert same_fit(m, gp_fit(X, y, hyper)) != extended
        if extended:
            assert m.chol[-1, -1] ** 2 == pytest.approx(share * DEFAULT_NOISE, rel=1e-3)

    def test_factor_and_inverse_stay_exactly_lower_triangular(self):
        X, y = warm_data(n=20)
        m = gp_fit(X[:12], y[:12], fixed([0.4, 0.6]))
        for n in range(13, 21):
            m = gp_fit(X[:n], y[:n], keep=m)
            assert np.array_equal(np.tril(m.chol), m.chol)
            assert np.array_equal(np.tril(m.chol_inv), m.chol_inv)
        np.testing.assert_allclose(m.chol @ m.chol_inv, np.eye(20), atol=1e-9)
