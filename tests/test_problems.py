import numpy as np
import pytest

from moboga.objectives import Batch, all_satisfied, total_violation
from moboga.pareto import dominates
from moboga.problems import (
    BenchmarkConfigError,
    binh_korn,
    binh_korn_c1,
    binh_korn_c2,
    binh_korn_problem,
    constr_ex,
    constr_ex_c1,
    constr_ex_problem,
    feasible_grid_objectives,
    get_problem,
    grid_reference_front,
    sinusoid_1d,
    sinusoid_problem,
    sinusoid_soft_beta,
)
from moboga.space import Candidate, ContinuousParam, SearchSpace, decode
from moboga.objectives import Problem


def penalized_score_fn(problem: Problem, resolution: int = 64):
    """Score function, (m, d) -> (m, k), for raw GA runs on a constrained benchmark.

    Feasible genomes score their true objectives; infeasible ones take a death
    penalty of the grid's feasible-worst value plus the total constraint
    violation in every objective, which keeps them strictly dominated.
    """
    worst = feasible_grid_objectives(problem, resolution).max(axis=0)

    def score(genomes: np.ndarray) -> np.ndarray:
        cands = decode(problem.space, genomes)
        rows = Batch.of(cands)
        ok = all_satisfied(problem.constraints, rows)
        missed = total_violation(problem.constraints, rows)
        return np.array([problem.evaluator(c) if good else worst + v
                         for c, good, v in zip(cands, ok, missed)], dtype=float)

    return score


class TestBinhKorn:
    def test_origin(self):
        assert binh_korn(0.0, 0.0) == (0.0, 50.0)

    def test_far_corner(self):
        assert binh_korn(5.0, 3.0) == (136.0, 4.0)

    def test_c2_violated_at_its_center(self):
        assert not binh_korn_c2(8.0, -3.0)

    def test_c1_boundary(self):
        assert binh_korn_c1(5.0, 5.0)
        assert not binh_korn_c1(5.0, 5.0 + 1e-9)

    def test_problem_bounds(self):
        p = binh_korn_problem()
        assert [(q.lo, q.hi) for q in p.space.params] == [(0.0, 5.0), (0.0, 3.0)]


class TestConstrEx:
    def test_unit_point(self):
        assert constr_ex(1.0, 1.0) == (1.0, 2.0)

    def test_half_point(self):
        assert constr_ex(0.5, 3.0) == (0.5, 8.0)

    def test_c1_satisfied_example(self):
        assert constr_ex_c1(0.5, 3.0)  # 3 + 4.5 = 7.5 >= 6

    def test_domain_excludes_x_zero(self):
        p = constr_ex_problem()
        assert p.space.params[0].lo == pytest.approx(0.1)


class TestSinusoid:
    def test_value_at_zero(self):
        assert sinusoid_1d(0.0) == pytest.approx(1.85)

    def test_value_at_half(self):
        assert sinusoid_1d(0.5) == pytest.approx(0.6)

    def test_value_at_one(self):
        assert sinusoid_1d(1.0) == pytest.approx(1.85)

    def test_hard_band_is_infeasible(self):
        p = sinusoid_problem()
        hard = p.constraints[0]
        assert all_satisfied((hard,), Candidate({"x": 0.4})) == 0
        assert all_satisfied((hard,), Candidate({"x": 0.1})) == 1
        assert all_satisfied((hard,), Candidate({"x": 0.7})) == 1

    def test_soft_tail_penalty_is_clamped_below_one(self):
        # raw 1/(x-0.6)^4 exceeds 1 for every x in (0.6, 1.2]
        for x in (0.61, 0.8, 1.2):
            b = sinusoid_soft_beta(x)
            assert 0.0 <= b < 1.0
            assert b == pytest.approx(1.0, abs=1e-6)

    def test_soft_tail_constraint_mode(self):
        p = sinusoid_problem()
        soft = p.constraints[1]
        assert not soft.is_hard
        assert all_satisfied((soft,), Candidate({"x": 0.9})) == 0


class TestGridFront:
    def test_binh_korn_front_shape(self):
        front = grid_reference_front(binh_korn_problem(), 200)
        q1, q2 = front[:, 0], front[:, 1]
        assert q1.min() == pytest.approx(0.0)
        assert q1.max() == pytest.approx(136.0)
        assert np.all(np.diff(q1) > 0)
        assert np.all(np.diff(q2) < 0)  # monotone trade-off

    def test_constr_ex_front_shape(self):
        front = grid_reference_front(constr_ex_problem(), 200)
        q1 = front[:, 0]
        assert q1.min() == pytest.approx(0.39, abs=0.02)
        assert q1.max() == pytest.approx(1.0)

    def test_every_front_point_is_feasible(self):
        problem = binh_korn_problem()
        front = grid_reference_front(problem, 120)
        # re-derive feasibility by direct substitution into the raw formulas
        xs = np.linspace(0, 5, 120)
        ys = np.linspace(0, 3, 120)
        feasible_objs = set()
        for x in xs:
            for y in ys:
                if binh_korn_c1(x, y) and binh_korn_c2(x, y):
                    feasible_objs.add(binh_korn(x, y))
        for row in front:
            assert (row[0], row[1]) in feasible_objs

    def test_refining_resolution_never_dominates_the_fine_front(self):
        problem = constr_ex_problem()
        coarse = grid_reference_front(problem, 60)
        fine = grid_reference_front(problem, 120)
        for f in fine:
            assert not any(dominates(c, f) for c in coarse)

    def test_single_point_grid_is_a_singleton_front(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 1.0), ContinuousParam("y", 0.0, 1.0)))
        problem = Problem(space, lambda c: (c["x"], c["y"]), ("a", "b"))
        front = grid_reference_front(problem, 1)
        assert front.shape == (1, 2)

    def test_non_2d_space_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            grid_reference_front(sinusoid_problem(), 10)

    def test_empty_feasible_grid_rejected(self):
        space = SearchSpace((ContinuousParam("x", 0.0, 1.0), ContinuousParam("y", 0.0, 1.0)))
        from moboga.objectives import ConstraintSpec

        problem = Problem(
            space,
            lambda c: (c["x"], c["y"]),
            ("a", "b"),
            (ConstraintSpec("never", predicate=lambda c: False),),
        )
        with pytest.raises(BenchmarkConfigError):
            grid_reference_front(problem, 5)


class TestPenalizedScores:
    def test_feasible_genome_scores_true_objectives(self):
        problem = binh_korn_problem()
        score = penalized_score_fn(problem)
        genome = np.array([0.0, 0.0])  # decodes to (0, 0), feasible
        assert score(genome[None, :])[0] == pytest.approx([0.0, 50.0])

    def test_infeasible_genome_is_dominated_by_feasible_worst(self):
        problem = binh_korn_problem()
        score = penalized_score_fn(problem, resolution=64)
        worst = np.asarray(
            [binh_korn(x, y) for x in np.linspace(0, 5, 64) for y in np.linspace(0, 3, 64)
             if binh_korn_c1(x, y) and binh_korn_c2(x, y)]
        ).max(axis=0)
        bad = np.array([0.0, 1.0])  # decodes to (0, 3): outside the c1 disc
        assert not binh_korn_c1(0.0, 3.0)
        assert np.all(score(bad[None, :])[0] >= worst)
        # one call scores a population row by row, in order
        both = score(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert both.shape == (2, 2)
        assert both[0] == pytest.approx([0.0, 50.0])
        assert np.all(both[1] >= worst)


def test_get_problem_registry():
    assert get_problem("binh-korn").name == "binh-korn"
    with pytest.raises(BenchmarkConfigError, match="unknown problem"):
        get_problem("nope")
