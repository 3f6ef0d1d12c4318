import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from moboga.acquisition import AcquisitionContext, ca_ei, expected_improvement
from moboga.objectives import ConstraintSpec, all_satisfied
from moboga.space import Candidate, ContinuousParam, SearchSpace
from moboga.surrogate import GpHyperParams, gp_fit


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


def make_context(constraints=()):
    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
    X = np.array([[0.1], [0.5], [0.9]])
    y = np.array([2.0, 1.0, 3.0])
    model = gp_fit(X, y, GpHyperParams(np.array([0.3]), 1.0, 1e-6))
    return AcquisitionContext(model, y_best=1.0, constraints=tuple(constraints), space=space)


class TestCaEi:
    def test_no_constraints_equals_plain_ei(self):
        ctx = make_context()
        cand = Candidate({"x": 0.3})
        from moboga.space import encode
        from moboga.surrogate import gp_posterior

        mu, sigma = gp_posterior(ctx.model, encode(ctx.space, cand))
        assert ca_ei(ctx, cand) == pytest.approx(expected_improvement(mu, sigma, 1.0))

    def test_hard_violation_forces_zero(self):
        hard = ConstraintSpec("band", predicate=lambda c: c["x"] < 0.5)
        ctx = make_context([hard])
        assert ca_ei(ctx, Candidate({"x": 0.7})) == 0.0
        assert ca_ei(ctx, Candidate({"x": 0.2})) > 0.0

    def test_soft_half_beta_halves_the_acquisition(self):
        soft = ConstraintSpec("tail", predicate=lambda c: c["x"] < 0.5, beta=lambda c: 0.5)
        plain = make_context()
        constrained = make_context([soft])
        cand = Candidate({"x": 0.7})
        assert ca_ei(constrained, cand) == pytest.approx(0.5 * ca_ei(plain, cand))

    def test_hard_identical_to_soft_with_zero_beta(self):
        hard = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5)
        soft0 = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5, beta=lambda c: 0.0)
        ctx_hard = make_context([hard])
        ctx_soft = make_context([soft0])
        for x in np.linspace(0.0, 1.0, 21):
            cand = Candidate({"x": float(x)})
            assert ca_ei(ctx_hard, cand) == ca_ei(ctx_soft, cand)

    def test_nonnegative_over_the_space(self):
        soft = ConstraintSpec("s", predicate=lambda c: c["x"] > 0.3, beta=lambda c: 0.1)
        ctx = make_context([soft])
        for x in np.linspace(0.0, 1.0, 50):
            assert ca_ei(ctx, Candidate({"x": float(x)})) >= 0.0


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
    plain = ca_ei(make_context(), x)
    assert plain > 0.0
    product = ca_ei(make_context(constraints), x) / plain
    assert 0.0 <= product <= 1.0
    if all_satisfied(constraints, x):
        assert product == 1.0
    else:
        assert product < 1.0
    if any(s[0] == "hard" and not s[1] for s in specs):
        assert product == 0.0
