import numpy as np
import pytest
from hypothesis import given, strategies as st

from moboga.objectives import (
    ConstraintSpec,
    EvaluationError,
    Problem,
    all_satisfied,
    evaluate_candidate,
    soft_factor,
    total_violation,
)
from moboga.space import Candidate, ContinuousParam, SearchSpace


def cand(x, y=0.0):
    return Candidate({"x": x, "y": y})


always_true = ConstraintSpec("always", predicate=lambda c: True)
always_false_hard = ConstraintSpec("never", predicate=lambda c: False)


def soft(beta_value):
    return ConstraintSpec("soft", predicate=lambda c: False, beta=lambda c: beta_value)


class TestIndicator:
    def test_binh_korn_c1_inside_disc(self):
        c = ConstraintSpec("c1", lambda c: (c["x"] - 5) ** 2 + c["y"] ** 2 <= 25)
        assert all_satisfied((c,), cand(5.0, 0.0)) == 1

    def test_binh_korn_c2_at_center_is_violated(self):
        c = ConstraintSpec("c2", lambda c: (c["x"] - 8) ** 2 + (c["y"] + 3) ** 2 >= 7.7)
        assert all_satisfied((c,), cand(8.0, -3.0)) == 0

    def test_always_true_predicate(self):
        assert all_satisfied((always_true,), cand(123.0)) == 1

    def test_throwing_predicate_names_the_constraint(self):
        bad = ConstraintSpec("memcheck", predicate=lambda c: 1 / 0)
        with pytest.raises(EvaluationError, match="memcheck"):
            all_satisfied((bad,), cand(0.0))


class TestSoftFactor:
    def test_satisfied_always_one(self):
        assert soft_factor(always_true, cand(1.0)) == 1.0

    def test_violated_hard_is_zero(self):
        assert soft_factor(always_false_hard, cand(1.0)) == 0.0

    def test_violated_soft_returns_beta(self):
        assert soft_factor(soft(0.25), cand(1.0)) == 0.25

    def test_beta_out_of_range_is_a_contract_violation(self):
        with pytest.raises(EvaluationError, match="beta"):
            soft_factor(soft(1.0), cand(1.0))
        with pytest.raises(EvaluationError, match="beta"):
            soft_factor(soft(-0.1), cand(1.0))

    def test_hard_equals_soft_with_zero_beta(self):
        hard = ConstraintSpec("h", predicate=lambda c: c["x"] > 0)
        soft0 = ConstraintSpec("s", predicate=lambda c: c["x"] > 0, beta=lambda c: 0.0)
        for x in (-1.0, 0.0, 2.0):
            assert soft_factor(hard, cand(x)) == soft_factor(soft0, cand(x))
            assert soft_factor(hard, cand(x)) == all_satisfied((hard,), cand(x))


class TestTotalViolation:
    def test_satisfied_constraints_add_nothing(self):
        measured = ConstraintSpec("m", lambda c: c["x"] <= 1, violation=lambda c: c["x"] - 1)
        assert total_violation((always_true, measured), cand(0.5)) == 0.0

    def test_measured_amount_or_one_per_missed_constraint(self):
        measured = ConstraintSpec("m", lambda c: c["x"] <= 1, violation=lambda c: c["x"] - 1)
        assert total_violation((measured,), cand(3.0)) == 2.0
        assert total_violation((measured, always_false_hard, always_true), cand(3.0)) == 3.0


def test_hard_constraints_are_those_without_beta():
    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
    problem = Problem(space, lambda c: (0.0,), ("q",), (always_true, soft(0.5), always_false_hard))
    assert problem.hard_constraints == (always_true, always_false_hard)


class TestEvaluateCandidate:
    def setup_method(self):
        self.space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))

    def problem(self, fn):
        return Problem(self.space, fn, ("a", "b"))

    def test_valid_vector_passes_through(self):
        p = self.problem(lambda c: (c["x"], 2 * c["x"]))
        q = evaluate_candidate(p, Candidate({"x": 0.5}))
        assert q.tolist() == [0.5, 1.0]

    def test_non_finite_objectives_are_rejected(self):
        p = self.problem(lambda c: (np.nan, 1.0))
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate_candidate(p, Candidate({"x": 0.5}))

    def test_wrong_arity_is_rejected(self):
        p = self.problem(lambda c: (1.0,))
        with pytest.raises(EvaluationError, match="objectives"):
            evaluate_candidate(p, Candidate({"x": 0.5}))

    def test_raising_evaluator_is_wrapped(self):
        def boom(c):
            raise RuntimeError("hardware on fire")

        with pytest.raises(EvaluationError, match="hardware"):
            evaluate_candidate(self.problem(boom), Candidate({"x": 0.5}))


def test_objective_names_are_ordered_and_unique():
    space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
    problem = Problem(space, lambda c: (0.0, 0.0), ["latency", "memory"])
    assert problem.objective_names == ("latency", "memory")
    with pytest.raises(ValueError):
        Problem(space, lambda c: (0.0, 0.0), ["a", "a"])
    with pytest.raises(ValueError):
        Problem(space, lambda c: (), [])
