"""Batched constraints: parity with per-candidate scalar forms, and their errors."""
import numpy as np
import pytest

from moboga.objectives import (
    Batch,
    ConstraintSpec,
    EvaluationError,
    all_satisfied,
    soft_factor,
    total_violation,
)
from moboga.problems import (
    SINUSOID_HARD_HI,
    SINUSOID_HARD_LO,
    binh_korn_c1,
    binh_korn_c2,
    binh_korn_problem,
    constr_ex_c1,
    constr_ex_c2,
    constr_ex_problem,
    sinusoid_problem,
)
from moboga.space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    columns,
    decode,
    encode,
    sample_uniform,
)


def scalar_soft_beta(x):
    gap = x - SINUSOID_HARD_HI
    return 1.0 - 1e-9 if gap <= 0 else min(1.0 / gap**4, 1.0 - 1e-9)


# the built-in sets spelled per candidate, with Python scalars only
SCALAR_SETS = {
    "binh-korn": (
        ConstraintSpec(
            "c1", lambda c: bool(binh_korn_c1(c["x"], c["y"])),
            violation=lambda c: max(0.0, (c["x"] - 5.0) ** 2 + c["y"] ** 2 - 25.0),
        ),
        ConstraintSpec(
            "c2", lambda c: bool(binh_korn_c2(c["x"], c["y"])),
            violation=lambda c: max(0.0, 7.7 - (c["x"] - 8.0) ** 2 - (c["y"] + 3.0) ** 2),
        ),
    ),
    "constr-ex": (
        ConstraintSpec(
            "c1", lambda c: bool(constr_ex_c1(c["x"], c["y"])),
            violation=lambda c: max(0.0, 6.0 - (c["y"] + 9.0 * c["x"])),
        ),
        ConstraintSpec(
            "c2", lambda c: bool(constr_ex_c2(c["x"], c["y"])),
            violation=lambda c: max(0.0, 1.0 - (-c["y"] + 9.0 * c["x"])),
        ),
    ),
    "sinusoid-1d": (
        ConstraintSpec(
            "hard_band", lambda c: not (SINUSOID_HARD_LO <= c["x"] <= SINUSOID_HARD_HI),
            violation=lambda c: max(
                0.0, min(c["x"] - SINUSOID_HARD_LO, SINUSOID_HARD_HI - c["x"])
            ),
        ),
        ConstraintSpec(
            "soft_tail", lambda c: c["x"] <= SINUSOID_HARD_HI,
            beta=lambda c: scalar_soft_beta(c["x"]),
            violation=lambda c: max(0.0, c["x"] - SINUSOID_HARD_HI),
        ),
    ),
}

# exact boundary points: binh-korn c1 = 25 at (0, 0); constr-ex c1 on
# y + 9x = 6; the sinusoid's hard band ends at 0.2 and 0.6
BOUNDARY = {
    "binh-korn": [{"x": 0.0, "y": 0.0}, {"x": 5.0, "y": 3.0}],
    "constr-ex": [{"x": 0.5, "y": 1.5}, {"x": 0.6, "y": 0.6}, {"x": 0.25, "y": 3.75}],
    "sinusoid-1d": [{"x": SINUSOID_HARD_LO}, {"x": SINUSOID_HARD_HI}, {"x": 0.0}, {"x": 1.2}],
}

PROBLEMS = {
    "binh-korn": binh_korn_problem,
    "constr-ex": constr_ex_problem,
    "sinusoid-1d": sinusoid_problem,
}


def points(name, seed, m=200):
    space = PROBLEMS[name]().space
    rng = np.random.default_rng(seed)
    return [Candidate(v) for v in BOUNDARY[name]] + [sample_uniform(space, rng) for _ in range(m)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_array_forms_equal_the_per_candidate_values_row_for_row(name, seed):
    batched = PROBLEMS[name]().constraints
    assert all(c.batched for c in batched)
    cands = points(name, seed)
    rows = Batch.of(cands)
    for c, ref in zip(batched, SCALAR_SETS[name]):
        factor = soft_factor(c, rows)
        holds = all_satisfied((c,), rows)
        missed = total_violation((c,), rows)
        for i, x in enumerate(cands):
            assert factor[i] == soft_factor(ref, x) == soft_factor(c, x)
            assert holds[i] == all_satisfied((ref,), x) == all_satisfied((c,), x)
            assert missed[i] == total_violation((ref,), x) == total_violation((c,), x)
    assert np.array_equal(all_satisfied(batched, rows),
                          [all_satisfied(SCALAR_SETS[name], x) for x in cands])
    assert np.array_equal(total_violation(batched, rows),
                          [total_violation(SCALAR_SETS[name], x) for x in cands])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_a_batched_predicate_called_on_one_candidate_agrees_with_all_satisfied(name, seed):
    # a candidate reads like a column map, so a built-in batched predicate can
    # be called on it directly, as perfbench's hard-violation count does
    for c in PROBLEMS[name]().constraints:
        for x in points(name, seed, m=50):
            assert bool(c.predicate(x)) == all_satisfied((c,), x)


def test_boundary_points_hold_where_the_scalar_forms_say():
    c1 = binh_korn_problem().constraints[0]
    assert all_satisfied((c1,), Candidate({"x": 0.0, "y": 0.0}))  # c1 = 25 exactly
    band, tail = sinusoid_problem().constraints
    rows = Batch.of([Candidate({"x": SINUSOID_HARD_LO}), Candidate({"x": SINUSOID_HARD_HI})])
    assert not all_satisfied((band,), rows).any()
    assert total_violation((band,), rows).tolist() == [0.0, 0.0]
    assert soft_factor(tail, rows).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_encoded_rows_score_as_their_decoded_candidates(name):
    problem = PROBLEMS[name]()
    space = problem.space
    rows = encode(space, points(name, 5, m=50))
    cands = decode(space, rows)
    batch = Batch(len(rows), lambda: columns(space, rows), lambda: cands)
    for c, ref in zip(problem.constraints, SCALAR_SETS[name]):
        assert soft_factor(c, batch).tolist() == [soft_factor(ref, x) for x in cands]


MIXED = SearchSpace((
    ContinuousParam("x", 0.0, 2.0),
    DiscreteParam("n", (1.0, 10.0, 100.0)),
    CategoricalParam("c", ("a", "b")),
))


def test_columns_hold_floats_values_and_labels_of_the_decoded_rows():
    rows = encode(MIXED, [sample_uniform(MIXED, np.random.default_rng(s)) for s in range(20)])
    cols = columns(MIXED, rows)
    assert list(cols) == ["x", "n", "c"]
    assert cols["x"].dtype == float and cols["n"].dtype == float
    assert cols["c"].dtype == object
    for i, cand in enumerate(decode(MIXED, rows)):
        assert {k: v[i] for k, v in cols.items()} == cand.values
    assert columns(MIXED, rows[0])["c"].shape == (1,)


def one_d(xs):
    return Batch.of([Candidate({"x": float(x)}) for x in xs])


class TestBatchedErrors:
    def test_a_raising_predicate_names_the_constraint(self):
        bad = ConstraintSpec("memcheck", lambda c: 1 / 0, batched=True)
        with pytest.raises(EvaluationError, match="memcheck"):
            all_satisfied((bad,), one_d([0.1, 0.2]))
        with pytest.raises(EvaluationError, match="memcheck"):
            soft_factor(bad, Candidate({"x": 0.1}))

    @pytest.mark.parametrize("wrong", [
        lambda c: c["x"][:-1] > 0,                    # one row short
        lambda c: True,                               # a scalar
        lambda c: np.stack([c["x"], c["x"]]) > 0,     # (2, m)
    ])
    def test_a_wrong_shape_names_the_constraint(self, wrong):
        bad = ConstraintSpec("shape", wrong, batched=True)
        with pytest.raises(EvaluationError, match="shape"):
            all_satisfied((bad,), one_d([0.1, 0.2, 0.3]))

    def test_a_wrong_shape_violation_names_the_constraint(self):
        bad = ConstraintSpec("vshape", lambda c: c["x"] < 0.5,
                             violation=lambda c: np.zeros(1), batched=True)
        with pytest.raises(EvaluationError, match="vshape"):
            total_violation((bad,), one_d([0.6, 0.7]))

    @pytest.mark.parametrize("beta", [1.0, -0.1, np.nan])
    def test_beta_outside_the_unit_interval_on_a_violating_row_raises(self, beta):
        bad = ConstraintSpec("cap", lambda c: c["x"] < 0.5,
                             beta=lambda c: np.where(c["x"] > 0.8, beta, 0.5), batched=True)
        assert soft_factor(bad, one_d([0.1, 0.6])).tolist() == [1.0, 0.5]
        with pytest.raises(EvaluationError, match="cap.*beta"):
            soft_factor(bad, one_d([0.1, 0.6, 0.9]))

    def test_beta_on_satisfied_rows_is_ignored(self):
        soft = ConstraintSpec("soft", lambda c: c["x"] < 0.5,
                              beta=lambda c: np.where(c["x"] < 0.5, np.nan, 0.25), batched=True)
        assert soft_factor(soft, one_d([0.1, 0.7, 0.4, 0.9])).tolist() == [1.0, 0.25, 1.0, 0.25]
        assert soft_factor(soft, Candidate({"x": 0.1})) == 1.0
