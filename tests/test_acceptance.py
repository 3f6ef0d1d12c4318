"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with -s or in failure reports)
after its assertions hold at the stated tolerance.
"""
import json
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from moboga.acquisition import ca_ei, expected_improvement
from moboga.cli import main
from moboga.engine import (
    Archive,
    EngineConfig,
    Observation,
    STOP_THRESHOLD,
    explore,
    stop_check,
)
from moboga.nsga2 import GaConfig, nsga2_run
from moboga.objectives import ConstraintSpec
from moboga.pareto import (
    fast_nondominated_sort,
    generational_distance,
    objective_diagonal,
    pareto_front,
)
from moboga.problems import (
    binh_korn_problem,
    constr_ex_problem,
    grid_reference_front,
)
from moboga.space import Candidate, ContinuousParam, SearchSpace, encode
from moboga.surrogate import GpHyperParams, gp_fit, gp_posterior
from moboga.topsis import BENEFIT, COST, topsis_rank

from test_pareto import oracle_front, oracle_front_partition
from test_problems import penalized_score_fn
from test_surrogate import oracle_posterior
from test_topsis import oracle_topsis


def report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: PASS{suffix}")


def run_verify(name, tmp_path):
    out_dir = tmp_path / name
    code = main(["verify", name, "--out-dir", str(out_dir)])
    metrics = json.loads((out_dir / "metrics.json").read_text())
    return code, metrics


def test_criterion_1_binh_korn_reproduction(tmp_path):
    code, m = run_verify("binh-korn", tmp_path)
    assert code == 0
    assert m["evaluations"] == 58  # 8 initial + 50 exploration
    assert m["generational_distance"] <= 0.05 * m["objective_diagonal"]
    assert m["hard_violations"] == 0
    assert m["elapsed_seconds"] <= 120.0
    report(
        "1 binh-korn",
        f"GD {m['generational_distance']:.3f} <= {m['gd_threshold']:.3f}, "
        f"{m['elapsed_seconds']:.1f}s",
    )


def test_criterion_2_constr_ex_reproduction(tmp_path):
    code, m = run_verify("constr-ex", tmp_path)
    assert code == 0
    assert m["evaluations"] == 58
    assert m["generational_distance"] <= 0.05 * m["objective_diagonal"]
    assert m["hard_violations"] == 0
    assert m["elapsed_seconds"] <= 120.0
    report(
        "2 constr-ex",
        f"GD {m['generational_distance']:.4f} <= {m['gd_threshold']:.4f}, "
        f"{m['elapsed_seconds']:.1f}s",
    )


def test_criterion_3_constrained_1d_exploration(tmp_path):
    code, m = run_verify("sinusoid-1d", tmp_path)
    assert code == 0
    assert m["evaluations"] == 16  # x0 = 0.1 plus 15 exploration queries
    assert m["hard_band_queries"] == 0
    assert m["soft_tail_queries"] >= 1
    assert m["best_feasible_q"] <= m["basin_bound"]
    assert abs(m["best_feasible_q"] - m["oracle_feasible_min"]) <= 0.05
    report(
        "3 sinusoid-1d",
        f"best q {m['best_feasible_q']:.4f} vs oracle {m['oracle_feasible_min']:.4f}, "
        f"{m['soft_tail_queries']} soft-tail queries",
    )


def test_criterion_4_sorting_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 5))
        scores = np.round(rng.random((n, k)) * 4.0, 1)  # ties and duplicates
        part = fast_nondominated_sort(scores)
        assert part.fronts == oracle_front_partition(scores.tolist())
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    report("4 non-dominated sorting", f"500 populations in {elapsed:.1f}s")


def test_criterion_5_front_extraction_matches_bruteforce():
    rng = np.random.default_rng(2025)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 5))
        scores = np.round(rng.random((n, k)) * 4.0, 1)
        assert pareto_front(scores) == oracle_front(scores.tolist())
    # duplicate score vectors are all retained on the front
    dup = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
    assert pareto_front(dup) == [0, 1]
    report("5 pareto extraction", "500 populations + duplicate retention")


def test_criterion_6_ca_ei_against_quadrature():
    def quadrature_ei(mu, sigma, y_best):
        if sigma == 0:
            return max(y_best - mu, 0.0)
        lo, hi = mu - 12.0 * sigma, mu + 12.0 * sigma
        points = [y_best] if lo < y_best < hi else None
        val, _ = quad(
            lambda y: max(y_best - y, 0.0) * norm.pdf(y, mu, sigma),
            lo, hi, points=points, epsabs=1e-10, limit=200,
        )
        return val

    worst = 0.0
    for mu in np.linspace(-3.0, 3.0, 10):
        for sigma in np.linspace(1e-3, 5.0, 10):
            for yb in np.linspace(-2.0, 2.0, 5):
                closed = expected_improvement(mu, sigma, yb)
                worst = max(worst, abs(closed - quadrature_ei(mu, sigma, yb)))
    assert worst <= 1e-6

    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
    model = gp_fit(
        np.array([[0.2], [0.8]]), np.array([1.0, 3.0]),
        GpHyperParams(np.array([0.3]), 1.0, 1e-6),
    )
    hard = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5)
    soft0 = ConstraintSpec("h", predicate=lambda c: c["x"] < 0.5, beta=lambda c: 0.0)
    xs = np.linspace(0.0, 1.0, 41)
    rows = xs[:, None]  # on [0, 1] each row decodes to x itself
    by_hard = ca_ei([model], [1.0], (hard,), space, rows)[:, 0]
    by_soft = ca_ei([model], [1.0], (soft0,), space, rows)[:, 0]
    for x, a, b in zip(xs, by_hard, by_soft):
        assert a == b  # exact equality
        if x >= 0.5:
            assert a == 0.0
    report("6 CA-EI", f"max |closed - quadrature| = {worst:.2e} <= 1e-6")


def test_criterion_7_gp_sanity():
    # interpolation at training points within noise tolerance
    X = np.array([[0.1], [0.45], [0.8]])
    y = np.array([2.0, -1.0, 0.7])
    model = gp_fit(X, y, GpHyperParams(np.array([0.3]), 1.0, 1e-8))
    mus, sigmas = gp_posterior(model, X)
    for mu, sigma, yi in zip(mus, sigmas, y):
        assert mu == pytest.approx(yi, abs=1e-4)
        assert sigma <= 1e-3

    # variance non-negative on random queries
    rng = np.random.default_rng(3)
    _, sigmas = gp_posterior(model, rng.random((50, 1)))
    for sigma in sigmas:
        assert sigma >= 0.0

    # three-point dense-solve oracle to 1e-10
    X3 = np.array([[0.15, 0.2], [0.5, 0.75], [0.9, 0.4]])
    y3 = np.array([1.2, -0.4, 2.2])
    hyper = GpHyperParams(np.array([0.4, 0.5]), 1.3, 1e-6)
    m3 = gp_fit(X3, y3, hyper)
    queries = [[0.1, 0.9], [0.5, 0.5], [0.77, 0.21]]
    for x_star, mu, sigma in zip(queries, *gp_posterior(m3, queries)):
        o_mu, o_sigma = oracle_posterior(X3, y3, hyper, x_star)
        assert mu == pytest.approx(o_mu, abs=1e-10)
        assert sigma == pytest.approx(o_sigma, abs=1e-10)
    report("7 GP sanity")


def test_criterion_8_topsis_against_scripted_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 6))
        x = rng.uniform(0.1, 10.0, size=(m, n))
        w = rng.uniform(0.1, 2.0, size=n)
        directions = tuple(COST if rng.random() < 0.5 else BENEFIT for _ in range(n))
        res = topsis_rank(x, directions, w)
        oc, orank = oracle_topsis(x, w, directions)
        assert res.closeness == pytest.approx(oc, abs=1e-12)
        assert res.ranking.tolist() == orank

    # positive column scaling leaves closeness unchanged to 1e-12
    x = rng.uniform(0.5, 5.0, size=(8, 3))
    w = np.array([1.0, 2.0, 0.5])
    directions = (COST, BENEFIT, COST)
    base = topsis_rank(x, directions, w)
    scaled = x.copy()
    scaled[:, 1] *= 137.0
    res = topsis_rank(scaled, directions, w)
    assert res.closeness == pytest.approx(base.closeness, abs=1e-12)

    # an alternative that is best on every criterion coincides with the ideal
    dominant = np.array([[1.0, 10.0], [3.0, 9.0], [2.0, 9.5]])
    res = topsis_rank(dominant, (COST, BENEFIT), np.array([0.5, 0.5]))
    assert res.closeness[0] == pytest.approx(1.0)
    assert res.ranking[0] == 0
    report("8 TOPSIS", "200 matrices vs scripted oracle")


def test_criterion_9_nsga2_on_raw_benchmarks():
    details = []
    for problem in (binh_korn_problem(), constr_ex_problem()):
        score = penalized_score_fn(problem)
        cfg = GaConfig(population_size=100, generations=50)
        genomes, scores, part = nsga2_run(score, cfg, problem.space, 11)
        front = np.vstack([scores[i] for i in part.fronts[0]])
        oracle = grid_reference_front(problem, 400)
        gd = generational_distance(front, oracle)
        diag = objective_diagonal(oracle)
        assert gd <= 0.02 * diag
        details.append(f"{problem.name} GD {100 * gd / diag:.3f}%")

        # equal seeds replay bitwise
        genomes_b, scores_b, _ = nsga2_run(score, cfg, problem.space, 11)
        for a, b in zip(genomes, genomes_b):
            assert np.array_equal(a, b)
        for a, b in zip(scores, scores_b):
            assert np.array_equal(a, b)

    # elitism: an injected utopian individual survives every generation
    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))

    def score_fn(g):
        d = np.abs(g[:, :1] - 0.5)
        return np.hstack([1.0 + d, 1.0 + d])

    _, scores, _ = nsga2_run(
        score_fn,
        GaConfig(population_size=12, generations=25),
        space,
        5,
        initial_genomes=[np.array([0.5])],
    )
    assert any(np.array_equal(s, [1.0, 1.0]) for s in scores)
    report("9 NSGA-II benchmarks", "; ".join(details))


def test_criterion_10_stop_rule():
    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))

    def make_archive(xs):
        archive = Archive()
        for x in xs:
            cand = Candidate({"x": x})
            archive.append(
                Observation(cand, np.array([x]), True, 0, encode(space, cand))
            )
        return archive

    # exact duplicate stops
    assert stop_check(make_archive([0.5]), encode(space, Candidate({"x": 0.5})), 1e-3)
    # far point continues
    assert not stop_check(make_archive([0.0]), encode(space, Candidate({"x": 1.0})), 1e-3)
    # d = 4e-4 <= 1e-3 stops
    assert stop_check(make_archive([0.0, 0.5]), encode(space, Candidate({"x": 0.5004})), 1e-3)

    # an engine run whose delta exceeds the space diameter stops right after
    # the first proposal, leaving exactly the initial design in the archive
    from moboga.objectives import Problem

    problem = Problem(space, lambda c: (c["x"], 1.0 - c["x"]), ("a", "b"))
    cfg = EngineConfig(
        n_initial=3, max_iterations=40, delta=10.0,
        ga=GaConfig(population_size=12, generations=4), seed=0,
    )
    archive = explore(problem, cfg)
    assert archive.stop_reason == STOP_THRESHOLD
    assert len(archive) == 3
    report("10 stop rule")
