import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from moboga.acquisition import ca_ei, expected_improvement
from moboga.objectives import ConstraintSpec, all_satisfied
from moboga.space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    encode,
    sample_uniform,
)
from moboga.surrogate import GpHyperParams, gp_fit, gp_posterior


def quadrature_ei(mu, sigma, y_best):
    """Adaptive quadrature of E[max(y_best - Y, 0)] with Y ~ N(mu, sigma^2).

    Integrates over mu +/- 12 sigma (all the density mass) with a breakpoint
    at the kink y = y_best so the subdivision finds the needle even for tiny
    sigma.
    """
    if sigma == 0:
        return max(y_best - mu, 0.0)
    lo, hi = mu - 12.0 * sigma, mu + 12.0 * sigma

    def integrand(y):
        return max(y_best - y, 0.0) * norm.pdf(y, loc=mu, scale=sigma)

    points = [y_best] if lo < y_best < hi else None
    val, _ = quad(integrand, lo, hi, points=points, epsabs=1e-10, limit=200)
    return val


class TestExpectedImprovement:
    def test_no_uncertainty_no_improvement(self):
        assert expected_improvement(1.0, 0.0, 1.0) == 0.0

    def test_no_uncertainty_certain_improvement(self):
        assert expected_improvement(0.0, 0.0, 1.0) == 1.0

    def test_classic_unit_case_matches_quadrature(self):
        got = expected_improvement(0.0, 1.0, 1.0)
        # closed form: 1 * Phi(1) + phi(1) ~ 1.08332
        assert got == pytest.approx(1.0833154705876864, abs=1e-9)
        assert got == pytest.approx(quadrature_ei(0.0, 1.0, 1.0), abs=1e-8)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1.0, 0.0)

    def test_matches_quadrature_on_grid(self):
        mus = np.linspace(-3.0, 3.0, 10)
        sigmas = np.linspace(1e-3, 5.0, 10)
        y_bests = np.linspace(-2.0, 2.0, 5)
        worst = 0.0
        for mu in mus:
            for sigma in sigmas:
                for yb in y_bests:
                    closed = expected_improvement(mu, sigma, yb)
                    reference = quadrature_ei(mu, sigma, yb)
                    worst = max(worst, abs(closed - reference))
        assert worst <= 1e-6

    def test_monotone_in_sigma_when_mu_above_incumbent(self):
        for mu in (0.5, 1.0, 3.0):
            values = [expected_improvement(mu, s, 0.0) for s in np.linspace(0.01, 5, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu, sigma, yb = rng.normal(), abs(rng.normal()), rng.normal()
            assert expected_improvement(mu, sigma, yb) >= 0.0


SPACE_1D = SearchSpace((ContinuousParam("x", 0.0, 1.0),))


def make_model():
    X = np.array([[0.1], [0.5], [0.9]])
    y = np.array([2.0, 1.0, 3.0])
    return gp_fit(X, y, GpHyperParams(np.array([0.3]), 1.0, 1e-6))


def score_1d(xs, constraints=()):
    """ca_ei at each x of xs under the fixed one-objective model (y_best = 1)."""
    cands = [Candidate({"x": float(x)}) for x in np.atleast_1d(xs)]
    out = ca_ei([make_model()], [1.0], tuple(constraints), SPACE_1D, cands)
    assert out.shape == (len(cands), 1)
    return out[:, 0]


class TestExpectedImprovementArrays:
    def test_elementwise_matches_scalar_calls_and_broadcasts(self):
        mu = np.array([0.0, 1.0, 2.0, -1.0])
        sigma = np.array([1.0, 0.0, 0.5, 2.0])
        got = expected_improvement(mu, sigma, 1.0)
        assert got.shape == (4,)
        for i in range(4):
            assert got[i] == pytest.approx(expected_improvement(mu[i], sigma[i], 1.0), abs=1e-15)
        # sigma == 0 gives max(gap, 0); a scalar sigma broadcasts over mu
        assert got[1] == 0.0
        assert expected_improvement(np.array([0.0, 2.0]), 0.0, 1.0).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):  # any negative sigma
            expected_improvement(np.zeros(3), np.array([1.0, -1e-12, 1.0]), 0.0)


class TestCaEi:
    def test_no_constraints_equals_plain_ei(self):
        cand = Candidate({"x": 0.3})
        mu, sigma = gp_posterior(make_model(), encode(SPACE_1D, cand))
        assert score_1d(0.3)[0] == pytest.approx(expected_improvement(mu[0], sigma[0], 1.0))

    def test_hard_violation_forces_zero(self):
        hard = ConstraintSpec("band", predicate=lambda c: c["x"] < 0.5)
        assert score_1d(0.7, [hard])[0] == 0.0
        assert score_1d(0.2, [hard])[0] > 0.0

    def test_soft_half_beta_halves_the_acquisition(self):
        soft = ConstraintSpec("tail", predicate=lambda c: c["x"] < 0.5, beta=lambda c: 0.5)
        assert score_1d(0.7, [soft])[0] == pytest.approx(0.5 * score_1d(0.7)[0])

    def test_hard_identical_to_soft_with_zero_beta(self):
        hard = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5)
        soft0 = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5, beta=lambda c: 0.0)
        xs = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(score_1d(xs, [hard]), score_1d(xs, [soft0]))

    def test_nonnegative_over_the_space(self):
        soft = ConstraintSpec("s", predicate=lambda c: c["x"] > 0.3, beta=lambda c: 0.1)
        assert np.all(score_1d(np.linspace(0.0, 1.0, 50), [soft]) >= 0.0)


MIXED = SearchSpace((
    ContinuousParam("x", 0.0, 2.0),
    DiscreteParam("n", (1.0, 10.0, 100.0, 1000.0)),
    CategoricalParam("c", ("a", "b", "c")),
))
MIXED_HARD = ConstraintSpec("hard", predicate=lambda c: c["x"] < 1.4)
MIXED_SOFT = ConstraintSpec(
    "soft", predicate=lambda c: c["c"] != "a", beta=lambda c: 0.2 + 0.3 * c["x"]
)


def mixed_models(k, seed=0):
    # A batched and a one-row posterior differ by a few ulps in the kernel,
    # and alpha = (K + noise I)^-1 y multiplies that difference; noise 1e-2
    # keeps alpha small, so the two stay within about 1e-13 of each other.
    rng = np.random.default_rng(seed)
    X = np.array([encode(MIXED, sample_uniform(MIXED, rng)) for _ in range(10)])
    return [
        gp_fit(X, rng.normal(size=10), GpHyperParams(np.full(5, 0.6), 1.0, 1e-2))
        for _ in range(k)
    ]


def test_batched_ca_ei_matches_per_row_oracle_on_a_mixed_space():
    """Each entry equals a one-row posterior, closed-form EI and an
    independently computed factor product."""
    models = mixed_models(2)
    y_best = [-0.3, 0.4]
    rng = np.random.default_rng(1)
    cands = [sample_uniform(MIXED, rng) for _ in range(60)]
    got = ca_ei(models, y_best, (MIXED_HARD, MIXED_SOFT), MIXED, cands)
    assert got.shape == (60, 2)

    cases = set()
    for i, cand in enumerate(cands):
        hard_ok = cand["x"] < 1.4
        soft_ok = cand["c"] != "a"
        cases.add((hard_ok, soft_ok))
        factor = (1.0 if hard_ok else 0.0) * (1.0 if soft_ok else 0.2 + 0.3 * cand["x"])
        for j, model in enumerate(models):
            mu, sigma = gp_posterior(model, encode(MIXED, cand)[None, :])
            gap = y_best[j] - mu[0]
            z = gap / sigma[0]
            ei = gap * norm.cdf(z) + sigma[0] * norm.pdf(z)
            assert got[i, j] == pytest.approx(factor * ei, rel=0, abs=1e-12)
            if not hard_ok:
                assert got[i, j] == 0.0
    assert cases == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_predicate_runs_once_per_candidate_for_any_k(k):
    calls = {"soft": [], "beta": [], "hard": []}

    def counted(name, fn):
        def wrapped(c):
            calls[name].append(id(c))
            return fn(c)
        return wrapped

    # the hard constraint comes last, so nothing short-circuits a predicate
    constraints = (
        ConstraintSpec("soft", predicate=counted("soft", MIXED_SOFT.predicate),
                       beta=counted("beta", MIXED_SOFT.beta)),
        ConstraintSpec("hard", predicate=counted("hard", MIXED_HARD.predicate)),
    )
    rng = np.random.default_rng(2)
    cands = [sample_uniform(MIXED, rng) for _ in range(30)]
    ca_ei(mixed_models(k), [0.0] * k, constraints, MIXED, cands)
    everyone = sorted(id(c) for c in cands)
    assert sorted(calls["soft"]) == everyone
    assert sorted(calls["hard"]) == everyone
    assert sorted(calls["beta"]) == sorted(id(c) for c in cands if c["c"] == "a")


def test_zero_factor_candidates_get_no_posterior(monkeypatch):
    import moboga.acquisition as acquisition

    rows = []
    original = acquisition.gp_posterior

    def spy(model, X):
        rows.append(len(X))
        return original(model, X)

    monkeypatch.setattr(acquisition, "gp_posterior", spy)
    hard = ConstraintSpec("band", predicate=lambda c: c["x"] < 0.5)
    got = score_1d(np.linspace(0.0, 1.0, 11), [hard])
    assert rows == [5]  # x = 0.0 .. 0.4, one call for the one objective
    assert np.all(got[5:] == 0.0)
    rows.clear()
    assert np.all(score_1d([0.6, 0.9], [hard]) == 0.0)
    assert rows == []


@given(
    st.lists(
        st.one_of(
            st.booleans().map(lambda ok: ("hard", ok)),
            st.tuples(st.booleans(), st.floats(0, 0.99)).map(lambda t: ("soft", *t)),
        ),
        max_size=5,
    )
)
def test_constraint_factor_product_bounds_and_semantics(specs):
    constraints = []
    for i, spec in enumerate(specs):
        if spec[0] == "hard":
            constraints.append(ConstraintSpec(f"h{i}", predicate=lambda c, ok=spec[1]: ok))
        else:
            constraints.append(
                ConstraintSpec(
                    f"s{i}",
                    predicate=lambda c, ok=spec[1]: ok,
                    beta=lambda c, b=spec[2]: b,
                )
            )
    x = Candidate({"x": 0.3})
    plain = score_1d(0.3)[0]
    assert plain > 0.0
    product = score_1d(0.3, constraints)[0] / plain
    assert 0.0 <= product <= 1.0
    if all_satisfied(constraints, x):
        assert product == 1.0
    else:
        assert product < 1.0
    if any(s[0] == "hard" and not s[1] for s in specs):
        assert product == 0.0
