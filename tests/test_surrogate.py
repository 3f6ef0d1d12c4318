import numpy as np
import pytest

from moboga.surrogate import (
    GpHyperParams,
    GpModel,
    gp_fit,
    gp_posterior,
)


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
        a = gp_fit(X, y, seed=3)
        b = gp_fit(X, y, seed=3)
        assert np.array_equal(a.hyper.length_scales, b.hyper.length_scales)
        assert a.hyper.signal_variance == b.hyper.signal_variance

    def test_duplicate_rows_survive_via_noise_floor(self):
        X = np.array([[0.2], [0.2], [0.8]])
        m = gp_fit(X, [1.0, 1.0, 2.0], fixed([0.5]))
        assert isinstance(m, GpModel)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(np.zeros((3, 1)), np.zeros(2))


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

    def test_dimension_mismatch_rejected(self):
        m = gp_fit([[0.5, 0.5]], [1.0], fixed([0.3, 0.3]))
        with pytest.raises(ValueError):
            gp_posterior(m, [0.5])


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
