import re

import numpy as np
import pytest

from moboga import engine, surrogate
from moboga.engine import (
    DUPLICATE_TOL,
    Archive,
    EngineConfig,
    EngineError,
    MAX_ITERATIONS,
    NoFeasibleResultError,
    Observation,
    STOP_THRESHOLD,
    exploit,
    explore,
    next_search_size,
    propose_next,
    run,
    stop_check,
)
from moboga.nsga2 import GaConfig
from moboga.objectives import (
    ConstraintSpec,
    EvaluationError,
    Problem,
    all_satisfied,
    evaluate_candidate,
)
from moboga.pareto import fast_nondominated_sort
from moboga.problems import binh_korn_problem
from moboga.space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    ValidationError,
    encode,
    sample_uniform,
)
from moboga.surrogate import DEFAULT_NOISE, GpHyperParams, GpModel, gp_fit

SMALL_GA = GaConfig(population_size=16, generations=6)


def space_1d():
    return SearchSpace((ContinuousParam("x", 0.0, 1.0),))


def parabola_problem(constraints=()):
    space = space_1d()
    return Problem(space, lambda c: ((c["x"] - 0.3) ** 2,), ("q",), tuple(constraints))


def two_obj_problem():
    space = space_1d()
    return Problem(space, lambda c: (c["x"], 1.0 - c["x"]), ("q1", "q2"))


def obs(space, x, q, iteration=0, feasible=True):
    cand = Candidate({"x": x})
    return Observation(
        candidate=cand,
        objectives=np.asarray(q, dtype=float),
        feasible=feasible,
        iteration=iteration,
        encoded=encode(space, cand),
    )


def archive_of(space, entries):
    archive = Archive()
    for entry in entries:
        archive.append(obs(space, *entry))
    return archive


class TestArchive:
    def test_rejects_exact_duplicate_encodings(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0])])
        with pytest.raises(EngineError, match="duplicate"):
            archive.append(obs(space, 0.5, [2.0]))

    def test_rejects_encodings_within_duplicate_tolerance(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0])])
        with pytest.raises(EngineError, match="duplicate"):
            archive.append(obs(space, 0.5 + 1e-13, [2.0]))
        archive.append(obs(space, 0.5 + 1e-9, [2.0]))
        assert len(archive) == 2

    def test_min_distance_is_the_nearest_encoded_distance(self):
        space = space_1d()
        assert Archive().min_distance(np.array([0.5])) == np.inf
        archive = archive_of(space, [(0.2, [1.0]), (0.9, [2.0])])
        assert archive.min_distance(np.array([0.3])) == pytest.approx(0.1)
        assert archive.min_distance(encode(space, Candidate({"x": 0.9}))) == 0.0

    def test_matrices_are_copies_of_the_rows_across_buffer_growth(self):
        space = space_1d()
        archive = archive_of(space, [(0.05 * i, [i, -i]) for i in range(19)])
        X, Q = archive.encoded_matrix(), archive.objective_matrix()
        assert X.tobytes() == np.vstack([o.encoded for o in archive.observations]).tobytes()
        assert Q.tobytes() == np.vstack([o.objectives for o in archive.observations]).tobytes()
        X[:], Q[:] = -1.0, -1.0
        assert archive.min_distance(np.array([0.9])) == 0.0
        assert archive.objective_matrix()[18].tolist() == [18.0, -18.0]

    def test_rejects_decreasing_iterations(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0], 3)])
        with pytest.raises(EngineError, match="non-decreasing"):
            archive.append(obs(space, 0.6, [1.0], 2))


class TestConfig:
    def test_budget_must_cover_initial_design(self):
        with pytest.raises(ValueError):
            EngineConfig(n_initial=8, max_iterations=7)

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(delta=0.0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed"):
            EngineConfig(seed=-1)
        EngineConfig(seed=0)

    def test_next_pick_values(self):
        for removed in ("sideways", "all"):
            with pytest.raises(ValueError, match="next_pick"):
                EngineConfig(next_pick=removed)
        EngineConfig(next_pick="topsis")
        EngineConfig(next_pick=lambda pm: 0)

    def test_a_ga_given_one_setting_keeps_the_default_sizes(self):
        ga = EngineConfig(ga=GaConfig(generations=12)).ga
        assert (ga.population_size, ga.generations) == (EngineConfig().ga.population_size, 12)


class TestStopCheck:
    def test_exact_duplicate_stops(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0])])
        assert stop_check(archive, encode(space, Candidate({"x": 0.5})), 1e-3)

    def test_distant_point_continues(self):
        space = space_1d()
        archive = archive_of(space, [(0.0, [1.0])])
        assert not stop_check(archive, encode(space, Candidate({"x": 1.0})), 1e-3)

    def test_close_point_stops_at_derived_distance(self):
        space = space_1d()
        archive = archive_of(space, [(0.0, [1.0]), (0.5, [2.0])])
        # min distance is |0.5004 - 0.5| = 4e-4 <= 1e-3
        assert stop_check(archive, encode(space, Candidate({"x": 0.5004})), 1e-3)
        assert not stop_check(archive, encode(space, Candidate({"x": 0.502})), 1e-3)


class TestExplore:
    def test_budget_equal_to_initial_design_skips_the_loop(self):
        problem = parabola_problem()
        cfg = EngineConfig(n_initial=4, max_iterations=4, ga=SMALL_GA, seed=1)
        archive = explore(problem, cfg)
        assert len(archive) == 4
        assert archive.stop_reason == MAX_ITERATIONS
        assert all(o.iteration == 0 for o in archive.observations)

    def test_archives_are_seed_deterministic(self):
        problem = two_obj_problem()
        cfg = EngineConfig(n_initial=3, max_iterations=6, ga=SMALL_GA, seed=11)
        a = explore(problem, cfg)
        b = explore(problem, cfg)
        assert len(a) == len(b)
        for oa, ob_ in zip(a.observations, b.observations):
            assert np.array_equal(oa.encoded, ob_.encoded)
            assert np.array_equal(oa.objectives, ob_.objectives)

    def test_first_proposal_fits_cold_and_later_ones_warm_start(self, monkeypatch):
        problem = two_obj_problem()
        cfg = EngineConfig(n_initial=3, max_iterations=6, ga=SMALL_GA, seed=11)
        calls = []

        def spy(archive, problem, cfg, rng, warm=None):
            proposal = propose_next(archive, problem, cfg, rng, warm=warm)
            calls.append((warm, proposal.models))
            return proposal

        monkeypatch.setattr(engine, "propose_next", spy)
        explore(problem, cfg)
        assert len(calls) >= 2
        assert calls[0][0] is None
        for (_, before), (warm, _) in zip(calls, calls[1:]):
            assert warm is before

    def test_each_query_carries_its_admission_encoding_to_the_archive(self, monkeypatch):
        space = SearchSpace((
            ContinuousParam("x", 0.0, 1.0),
            DiscreteParam("k", (1.0, 2.0, 4.0)),
            CategoricalParam("a", ("A", "B", "C")),
        ))

        def evaluator(c):
            shift = {"A": 0.0, "B": 0.5, "C": 1.0}[c["a"]]
            return (c["x"] + 0.1 * c["k"] + shift, (1.0 - c["x"]) * c["k"] + shift)

        problem = Problem(space, evaluator, ("q1", "q2"))
        cfg = EngineConfig(n_initial=4, max_iterations=9, ga=SMALL_GA, seed=5)
        picks, checked = [], []

        def propose_spy(*args, **kwargs):
            proposal = propose_next(*args, **kwargs)
            picks.append(proposal.picked)
            return proposal

        def stop_spy(archive, enc, delta):
            checked.append(enc)
            return stop_check(archive, enc, delta)

        monkeypatch.setattr(engine, "propose_next", propose_spy)
        monkeypatch.setattr(engine, "stop_check", stop_spy)
        archive = explore(problem, cfg)

        expected = encode(space, [o.candidate for o in archive.observations])
        for o, row in zip(archive.observations, expected):
            assert o.encoded.tobytes() == row.tobytes()
        assert len(picks) == len(checked) == len(archive) - cfg.n_initial
        for (cand, enc), seen, o in zip(picks, checked, archive.observations[cfg.n_initial:]):
            assert seen is enc  # the stop rule measures the admitted encoding
            assert o.candidate is cand and o.encoded is enc  # and the archive keeps it

    def test_huge_delta_stops_after_first_proposal(self):
        problem = two_obj_problem()
        cfg = EngineConfig(
            n_initial=3, max_iterations=30, delta=10.0, ga=SMALL_GA, seed=2
        )
        archive = explore(problem, cfg)
        assert archive.stop_reason == STOP_THRESHOLD
        assert len(archive) == 3  # nothing evaluated past the initial design

    def test_archive_grows_every_iteration_until_stop(self):
        problem = two_obj_problem()
        cfg = EngineConfig(n_initial=3, max_iterations=8, ga=SMALL_GA, seed=5)
        archive = explore(problem, cfg)
        iterations = [o.iteration for o in archive.observations]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len([i for i in iterations if i > 0]) + 1

    def test_hard_infeasible_evaluations_never_happen_after_init(self):
        hard = ConstraintSpec(
            "left", predicate=lambda c: c["x"] < 0.5, violation=lambda c: c["x"] - 0.5
        )
        problem = parabola_problem([hard])
        cfg = EngineConfig(n_initial=3, max_iterations=9, ga=SMALL_GA, seed=3)
        archive = explore(problem, cfg)
        for o in archive.observations:
            assert all_satisfied([hard], o.candidate)

    def test_failing_evaluator_excludes_candidates(self):
        space = space_1d()
        calls = {"n": 0}

        def flaky(c):
            calls["n"] += 1
            if calls["n"] == 2:
                return (float("nan"),)
            return (c["x"],)

        problem = Problem(space, flaky, ("q",))
        cfg = EngineConfig(n_initial=4, max_iterations=4, ga=SMALL_GA, seed=4)
        archive = explore(problem, cfg)
        # the nan draw is excluded (never archived) and the budget loop
        # backfills the slot with a fresh proposal
        assert len(archive) == 4
        assert calls["n"] == 5
        assert all(np.isfinite(o.objectives).all() for o in archive.observations)

    def test_loop_stops_through_stop_check(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return True

        monkeypatch.setattr(engine, "stop_check", spy)
        cfg = EngineConfig(n_initial=3, max_iterations=30, ga=SMALL_GA, seed=2)
        archive = explore(two_obj_problem(), cfg)
        assert archive.stop_reason == STOP_THRESHOLD
        assert len(calls) == 1 and calls[0][2] == cfg.delta

    def test_initial_candidates_within_duplicate_tolerance_count_once(self):
        problem = parabola_problem()
        near = [Candidate({"x": 0.5}), Candidate({"x": 0.5 + 1e-13})]
        cfg = EngineConfig(n_initial=2, max_iterations=2, ga=SMALL_GA)
        design = engine._initial_design(problem, cfg, np.random.default_rng(0), near)
        chosen = [c for c, _ in design]
        assert len(chosen) == 2
        assert all(np.array_equal(e, encode(problem.space, c)) for c, e in design)
        assert sum(abs(c["x"] - 0.5) < 1e-9 for c in chosen) == 1

    def test_failures_in_the_initial_design_do_not_count_as_consecutive(self):
        calls = {"n": 0}

        def evaluator(c):
            calls["n"] += 1
            if calls["n"] > 12 or calls["n"] % 2:
                raise EvaluationError("down")  # every other initial, then every proposal
            return (c["x"],)

        problem = Problem(space_1d(), evaluator, ("q",))
        cfg = EngineConfig(n_initial=12, max_iterations=40, delta=1e-12, ga=SMALL_GA, seed=6)
        with pytest.raises(EngineError, match="consecutive evaluation failures"):
            explore(problem, cfg)
        assert calls["n"] == 12 + 11


class TestInitialDesign:
    """The design's draw budget, its hard boundary and its RNG use."""

    EXHAUSTED = ("initialization exhausted 500 draws without collecting 5 distinct "
                 "candidates; pass initial candidates that meet the hard constraints")

    @staticmethod
    def tiny_problem(evaluated):
        """x < 0.002 on [0, 1]: about one of 500 draws meets it; evaluated
        collects every candidate the evaluator sees."""
        tiny = ConstraintSpec("tiny", predicate=lambda c: c["x"] < 0.002)
        return Problem(space_1d(), lambda c: evaluated.append(c) or (c["x"],), ("q",), (tiny,))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_hard_region_too_small_for_the_design_raises_before_any_evaluation(self, seed):
        evaluated = []
        problem = self.tiny_problem(evaluated)
        cfg = EngineConfig(n_initial=5, max_iterations=5, seed=seed)
        with pytest.raises(EngineError, match=re.escape(self.EXHAUSTED)):
            explore(problem, cfg)
        assert evaluated == []
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(EngineError, match=re.escape(self.EXHAUSTED)):
            engine._initial_design(problem, cfg, rng, None)
        for _ in range(500):
            sample_uniform(problem.space, replay)
        assert rng.random() == replay.random()

    def test_given_candidates_that_meet_the_hard_constraints_make_the_design(self):
        problem = self.tiny_problem([])
        given = [Candidate({"x": 0.0001 * (i + 1)}) for i in range(5)]
        cfg = EngineConfig(n_initial=5, max_iterations=5)
        design = engine._initial_design(problem, cfg, np.random.default_rng(0), given)
        assert [c for c, _ in design] == given

    @pytest.mark.parametrize("seed", range(4))
    def test_every_drawn_observation_meets_the_hard_constraints(self, monkeypatch, seed):
        space = SearchSpace((ContinuousParam("x", 0.0, 1.0), ContinuousParam("y", 0.0, 1.0)))
        corner = ConstraintSpec("corner", predicate=lambda c: c["x"] + c["y"] < 0.45)  # area 0.10
        problem = Problem(space, lambda c: (c["x"], 1.0 - c["y"]), ("q1", "q2"), (corner,))
        # a pool outside the corner: every proposal's query is a fresh draw
        TestProposeNext.fixed_pool(monkeypatch, [[0.9, 0.9]], [[-1.0, -1.0]])
        cfg = EngineConfig(n_initial=5, max_iterations=12, delta=1e-12, ga=SMALL_GA, seed=seed)
        archive = explore(problem, cfg)
        assert len(archive) == 12
        assert [o.iteration for o in archive.observations[:6]] == [0] * 5 + [1]
        assert all(corner.predicate(o.candidate) for o in archive.observations)

    def test_given_candidates_skip_the_hard_check_but_not_the_duplicate_test(self):
        hard = ConstraintSpec("left", predicate=lambda c: c["x"] < 0.5)
        problem = parabola_problem([hard])
        given = [Candidate({"x": 0.9}), Candidate({"x": 0.9}), Candidate({"x": 0.8})]
        cfg = EngineConfig(n_initial=3, max_iterations=3, seed=2)
        design = engine._initial_design(problem, cfg, np.random.default_rng(2), given)
        chosen = [c for c, _ in design]
        assert chosen[:2] == [given[0], given[2]]
        assert chosen[2]["x"] < 0.5  # the one drawn slot is hard-feasible

    def test_given_candidates_past_the_design_size_are_still_validated(self):
        problem = parabola_problem()
        given = [Candidate({"x": 0.1}), Candidate({"x": 0.2}), Candidate({"x": 7.0})]
        cfg = EngineConfig(n_initial=2, max_iterations=2)
        with pytest.raises(ValidationError, match="'x'"):
            engine._initial_design(problem, cfg, np.random.default_rng(0), given)

    def test_too_small_a_space_exhausts_the_draw_budget(self):
        space = SearchSpace((DiscreteParam("k", (1.0, 2.0)),))
        problem = Problem(space, lambda c: (c["k"],), ("q",))
        cfg = EngineConfig(n_initial=3, max_iterations=3)
        with pytest.raises(
            EngineError,
            match="initialization exhausted 300 draws without collecting 3 distinct candidates",
        ) as err:
            engine._initial_design(problem, cfg, np.random.default_rng(0), None)
        assert "pass initial candidates" not in str(err.value)


class TestProposeNext:
    def test_single_observation_is_enough(self):
        problem = parabola_problem()
        archive = archive_of(problem.space, [(0.1, [0.04])])
        proposal = propose_next(archive, problem, EngineConfig(ga=SMALL_GA), np.random.default_rng(0))
        cand, enc = proposal.picked
        assert isinstance(cand, Candidate)
        assert np.array_equal(enc, encode(problem.space, cand))

    def test_models_are_one_fitted_gp_per_objective(self):
        problem = two_obj_problem()
        archive = archive_of(
            problem.space, [(0.1, [0.1, 0.9]), (0.5, [0.5, 0.5]), (0.9, [0.9, 0.1])]
        )
        cfg = EngineConfig(ga=SMALL_GA)
        proposal = propose_next(archive, problem, cfg, np.random.default_rng(0))
        assert len(proposal.models) == problem.n_objectives
        targets = archive.objective_matrix()
        for j, model in enumerate(proposal.models):
            assert isinstance(model, GpModel)
            assert np.array_equal(model.train_inputs, archive.encoded_matrix())
            assert np.array_equal(model.train_targets, targets[:, j])

    def test_warm_start_needs_one_model_per_objective(self):
        problem = two_obj_problem()
        archive = archive_of(
            problem.space, [(0.1, [0.1, 0.9]), (0.5, [0.5, 0.5]), (0.9, [0.9, 0.1])]
        )
        cfg = EngineConfig(ga=SMALL_GA)
        first = propose_next(archive, problem, cfg, np.random.default_rng(0))
        again = propose_next(archive, problem, cfg, np.random.default_rng(0), warm=first.models)
        for cold, warm in zip(first.models, again.models):
            assert warm.log_evidence >= cold.log_evidence
        with pytest.raises(EngineError, match="warm start"):
            propose_next(archive, problem, cfg, np.random.default_rng(0), warm=first.models[:1])

    def test_empty_archive_rejected(self):
        problem = parabola_problem()
        with pytest.raises(EngineError):
            propose_next(Archive(), problem, EngineConfig(ga=SMALL_GA), np.random.default_rng(0))

    def test_hard_violating_region_is_never_proposed(self):
        hard = ConstraintSpec("left", predicate=lambda c: c["x"] < 0.5)
        problem = parabola_problem([hard])
        archive = archive_of(problem.space, [(0.1, [0.04]), (0.3, [0.0]), (0.45, [0.0225])])
        rng = np.random.default_rng(1)
        for _ in range(5):
            proposal = propose_next(archive, problem, EngineConfig(ga=SMALL_GA), rng)
            cand, _ = proposal.picked
            assert cand["x"] < 0.5

    def test_duplicate_pick_falls_back_to_fresh_candidate(self):
        problem = parabola_problem()
        archive = archive_of(problem.space, [(0.25, [0.0025]), (0.75, [0.2025])])
        rng = np.random.default_rng(2)
        proposal = propose_next(archive, problem, EngineConfig(ga=SMALL_GA), rng)
        cand, _ = proposal.picked
        assert archive.min_distance(encode(problem.space, cand)) > DUPLICATE_TOL

    @staticmethod
    def fixed_pool(monkeypatch, genomes, scores):
        """Make the GA return genomes with scores, every one of them on F_1."""
        genomes, scores = np.asarray(genomes, dtype=float), np.asarray(scores, dtype=float)
        part = fast_nondominated_sort(np.zeros((len(genomes), 1)))
        monkeypatch.setattr(
            engine, "nsga2_run", lambda score_fn, cfg, space, seed: (genomes, scores, part)
        )

    def test_pool_on_archived_points_falls_back_to_a_fresh_hard_feasible_draw(self, monkeypatch):
        hard = ConstraintSpec("left", predicate=lambda c: c["x"] < 0.5)
        problem = parabola_problem([hard])
        archive = archive_of(problem.space, [(0.1, [0.04]), (0.3, [0.0]), (0.45, [0.0225])])
        self.fixed_pool(monkeypatch, archive.encoded_matrix(), [[-1.0], [-1.0], [-1.0]])
        cfg = EngineConfig(ga=SMALL_GA)
        proposal = propose_next(archive, problem, cfg, np.random.default_rng(0))
        pick, _ = proposal.picked
        assert pick["x"] < 0.5
        assert archive.min_distance(encode(problem.space, pick)) > DUPLICATE_TOL
        assert pick.values not in [c.values for c, _ in proposal.pm]

    def test_hard_constraint_that_never_holds_is_an_engine_error(self):
        never = ConstraintSpec("never", predicate=lambda c: False)
        problem = parabola_problem([never])
        archive = archive_of(problem.space, [(0.1, [0.04]), (0.7, [0.16])])
        with pytest.raises(EngineError, match="could not draw a fresh hard-feasible candidate"):
            propose_next(archive, problem, EngineConfig(ga=SMALL_GA), np.random.default_rng(0))

    def test_topsis_pick_stops_checking_at_the_first_admissible_member(self, monkeypatch):
        checked = []

        def predicate(c):
            checked.append(c["x"])
            return True

        space = space_1d()
        problem = Problem(
            space, lambda c: (c["x"], 1.0 - c["x"]), ("q1", "q2"),
            (ConstraintSpec("open", predicate=predicate),),
        )
        archive = archive_of(space, [(0.0, [0.0, 1.0]), (1.0, [1.0, 0.0])])
        acquisition = np.array([[4.0, 1.0], [3.0, 3.0], [2.5, 2.5], [1.0, 4.0]])
        self.fixed_pool(monkeypatch, [[0.2], [0.4], [0.6], [0.8]], -acquisition)
        cfg = EngineConfig(ga=SMALL_GA)
        proposal = propose_next(archive, problem, cfg, np.random.default_rng(0))
        cand, _ = proposal.picked
        assert cand["x"] == 0.4  # the balanced member ranks first
        assert checked == [0.4]

    def test_single_objective_pick_is_the_ei_argmax(self):
        # K=1: domination is scalar comparison, so the informative pool holds
        # only max-EI individuals and the pick is one of them
        problem = parabola_problem()
        archive = archive_of(
            problem.space, [(0.05, [0.0625]), (0.5, [0.04]), (0.95, [0.4225])]
        )
        proposal = propose_next(
            archive, problem, EngineConfig(ga=SMALL_GA), np.random.default_rng(6)
        )
        top = max(v[0] for _, v in proposal.pm)
        assert all(v[0] == top for _, v in proposal.pm)

    def test_custom_hook_pick(self):
        problem = two_obj_problem()
        archive = archive_of(
            problem.space, [(0.2, [0.2, 0.8]), (0.6, [0.6, 0.4]), (0.9, [0.9, 0.1])]
        )
        seen = {}

        def hook(pm):
            seen["pool"] = len(pm)
            return len(pm) - 1

        cfg = EngineConfig(ga=SMALL_GA, next_pick=hook)
        proposal = propose_next(archive, problem, cfg, np.random.default_rng(4))
        assert seen["pool"] >= 1
        cand, _ = proposal.picked
        assert cand.values == proposal.pm[-1][0].values  # the hook's index is picked

    @pytest.mark.parametrize(
        "bad",
        [lambda pm: -1, lambda pm: len(pm), lambda pm: 0.0],
        ids=["minus_one", "pool_length", "float"],
    )
    def test_custom_hook_index_out_of_range_is_an_engine_error(self, bad):
        problem = two_obj_problem()
        archive = archive_of(
            problem.space, [(0.2, [0.2, 0.8]), (0.6, [0.6, 0.4]), (0.9, [0.9, 0.1])]
        )
        cfg = EngineConfig(ga=SMALL_GA, next_pick=bad)
        with pytest.raises(EngineError, match="next_pick returned"):
            propose_next(archive, problem, cfg, np.random.default_rng(4))


class TestHyperparameterSchedule:
    """The evidence search runs at the search sizes; θ is kept in between."""

    @staticmethod
    def binh_korn_archive(n):
        problem = binh_korn_problem()
        rng = np.random.default_rng(3)
        archive = Archive()
        for _ in range(n):
            cand = sample_uniform(problem.space, rng)
            archive.append(Observation(
                candidate=cand,
                objectives=evaluate_candidate(problem, cand),
                feasible=all_satisfied(problem.constraints, cand),
                iteration=0,
                encoded=encode(problem.space, cand),
            ))
        return problem, archive

    @staticmethod
    def warm_models(archive, n_warm, noise):
        X = archive.encoded_matrix()[:n_warm]
        targets = archive.objective_matrix()[:n_warm]
        return tuple(
            gp_fit(X, targets[:, j], GpHyperParams(np.array([0.3 + 0.1 * j, 0.5]), 1.0 + j, noise))
            for j in range(targets.shape[1])
        )

    @staticmethod
    def count_searches(monkeypatch):
        searches = []
        search = surrogate._maximize_evidence

        def spy(bordered, D, start):
            searches.append((D.shape[1], start))
            return search(bordered, D, start)

        monkeypatch.setattr(surrogate, "_maximize_evidence", spy)
        return searches

    def test_search_sizes_below_200(self):
        sizes = [next_search_size(0)]
        while (s := next_search_size(sizes[-1])) < 200:
            sizes.append(s)
        assert sizes == [
            *range(1, 21), 22, 24, 26, 28, 30, 33, 36, 39, 42, 46, 50, 55, 60, 66,
            72, 79, 86, 94, 103, 113, 124, 136, 149, 163, 179, 196,
        ]

    def test_growth_that_crosses_no_search_size_keeps_theta_at_the_default_noise(
        self, monkeypatch
    ):
        problem, archive = self.binh_korn_archive(25)
        assert next_search_size(24) > 25
        warm = self.warm_models(archive, 24, noise=DEFAULT_NOISE + 1e-6)
        searches = self.count_searches(monkeypatch)
        cfg = EngineConfig(ga=SMALL_GA)
        proposal = propose_next(archive, problem, cfg, np.random.default_rng(0), warm=warm)
        assert searches == []
        for kept, before in zip(proposal.models, warm):
            assert len(kept.train_inputs) == 25
            assert np.array_equal(kept.hyper.length_scales, before.hyper.length_scales)
            assert kept.hyper.signal_variance == before.hyper.signal_variance
            assert kept.hyper.noise_variance == DEFAULT_NOISE

    @pytest.mark.parametrize("n_warm, n", [(23, 24), (100, 150)])
    def test_growth_that_reaches_a_search_size_searches_from_warm(self, monkeypatch, n_warm, n):
        problem, archive = self.binh_korn_archive(n)
        warm = self.warm_models(archive, n_warm, noise=DEFAULT_NOISE)
        searches = self.count_searches(monkeypatch)
        propose_next(archive, problem, EngineConfig(ga=SMALL_GA), np.random.default_rng(0), warm=warm)
        assert [size for size, _ in searches] == [n] * len(warm)
        assert all(start is model.hyper for (_, start), model in zip(searches, warm))

    def test_explore_searches_only_at_the_search_sizes(self, monkeypatch):
        searches = self.count_searches(monkeypatch)
        cfg = EngineConfig(n_initial=18, max_iterations=40, delta=1e-12, ga=SMALL_GA, seed=5)
        archive = explore(binh_korn_problem(), cfg)
        assert len(archive) == 40
        sizes = [n for n, _ in searches[::2]]
        assert sizes == [18, 19, 20, 22, 24, 26, 28, 30, 33, 36, 39]
        assert [n for n, _ in searches[1::2]] == sizes
        assert [start is None for _, start in searches] == [True] * 2 + [False] * 20


class TestExploit:
    def test_single_feasible_observation_is_the_answer(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0, 2.0])])
        result = exploit(archive)
        assert result.pof == [0]
        assert result.best_index == 0

    def test_no_feasible_observation_raises(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0], 0, False)])
        with pytest.raises(NoFeasibleResultError):
            exploit(archive)

    def test_weights_are_checked_on_a_one_member_front(self):
        space = space_1d()
        archive = archive_of(space, [(0.5, [1.0, 2.0])])
        assert exploit(archive, weights=[1.0, 3.0]).closeness == {0: 0.5}
        for bad in ([1, 2, 3], [True, 1.0], [0.0, 1.0]):
            with pytest.raises(ValueError, match="weights"):
                exploit(archive, weights=bad)

    def test_dominated_point_excluded_and_tie_break_documented(self):
        # (6,6) is dominated by (5,5); the remaining rows all sum to 10 so
        # TOPSIS ties at 0.5 everywhere and the lower archive index wins
        space = space_1d()
        archive = archive_of(
            space,
            [(0.1, [1.0, 9.0]), (0.3, [5.0, 5.0]), (0.5, [9.0, 1.0]), (0.7, [6.0, 6.0])],
        )
        result = exploit(archive)
        assert result.pof == [0, 1, 2]
        assert 3 not in result.pof
        assert result.best_index == 0
        assert result.closeness == pytest.approx({0: 0.5, 1: 0.5, 2: 0.5})

    def test_asymmetric_front_prefers_the_balanced_point(self):
        space = space_1d()
        archive = archive_of(
            space,
            [(0.1, [1.0, 9.5]), (0.3, [5.0, 5.0]), (0.5, [9.5, 1.0])],
        )
        assert exploit(archive).best_index == 1

    def test_an_objective_in_tiny_units_keeps_the_recommendation(self):
        # the first objective's squares underflow to 0 at this scale
        space = space_1d()
        front = [(0.1, [1.0, 9.5]), (0.3, [5.0, 5.0]), (0.5, [9.5, 1.0])]
        tiny = [(x, [q[0] * 1e-170, q[1]]) for x, q in front]
        best = exploit(archive_of(space, front)).best_index
        assert best == 1
        assert exploit(archive_of(space, tiny)).best_index == best

    def test_infeasible_observations_do_not_reach_the_front(self):
        space = space_1d()
        archive = archive_of(
            space,
            [(0.1, [0.0, 0.0], 0, False), (0.3, [5.0, 5.0]), (0.5, [9.0, 1.0])],
        )
        result = exploit(archive)
        assert 0 not in result.pof
        assert set(result.pof) == {1, 2}

    def test_weights_steer_the_recommendation(self):
        space = space_1d()
        archive = archive_of(
            space, [(0.1, [1.0, 9.0]), (0.5, [9.0, 1.0])]
        )
        assert exploit(archive, weights=[0.95, 0.05]).best_index == 0
        assert exploit(archive, weights=[0.05, 0.95]).best_index == 1

    def test_all_zero_objective_is_dropped_with_its_weight(self):
        space = space_1d()
        archive = archive_of(space, [(0.1, [1.0, 9.0, 0.0]), (0.5, [9.0, 1.0, 0.0])])
        assert exploit(archive, weights=[0.95, 0.05, 0.5]).best_index == 0
        assert exploit(archive, weights=[0.05, 0.95, 0.5]).best_index == 1
        with pytest.raises(ValueError, match="weights"):
            exploit(archive, weights=[0.95, 0.05])


class TestRun:
    def test_full_loop_on_binh_korn_is_feasible_and_fronted(self):
        problem = binh_korn_problem()
        cfg = EngineConfig(
            n_initial=6, max_iterations=14, delta=1e-6,
            ga=GaConfig(population_size=24, generations=10), seed=7,
        )
        result = run(problem, cfg)
        assert len(result.archive) == 14
        assert result.pof
        assert result.best_index in result.pof
        hard = [c for c in problem.constraints if c.is_hard]
        for o in result.archive.observations:
            assert all_satisfied(hard, o.candidate)
        # every front member is feasible and mutually non-dominated
        from moboga.pareto import dominates

        front = result.archive.objective_matrix()[result.pof]
        for i in range(len(front)):
            assert result.archive.observations[result.pof[i]].feasible
            for j in range(len(front)):
                assert not dominates(front[i], front[j])

    @pytest.mark.parametrize(
        "weights", [[-1.0, 1.0], [0.0, 1.0], [np.nan, 1.0], [np.inf, 1.0], [1.0], [1.0, 1.0, 1.0]],
        ids=["negative", "zero", "nan", "inf", "short", "long"],
    )
    def test_bad_weights_raise_before_any_evaluation(self, weights):
        calls = []

        def evaluator(c):
            calls.append(c)
            return (c["x"], 1.0 - c["x"])

        problem = Problem(space_1d(), evaluator, ("q1", "q2"))
        cfg = EngineConfig(n_initial=3, max_iterations=5, ga=SMALL_GA, seed=21)
        with pytest.raises(ValueError, match="weights"):
            run(problem, cfg, weights=weights)
        assert calls == []

    def test_objective_zero_on_the_whole_front_still_recommends(self):
        problem = Problem(
            space_1d(), lambda c: (c["x"], 1.0 - c["x"], 0.0), ("q1", "q2", "q3")
        )
        cfg = EngineConfig(n_initial=3, max_iterations=6, ga=SMALL_GA, seed=5)
        result = run(problem, cfg)
        assert len(result.archive) == 5  # the default delta stops the 6th query
        assert result.archive.stop_reason == STOP_THRESHOLD
        assert len(result.pof) > 1
        assert result.best_index in result.pof

    def test_determinism_of_the_full_result(self):
        problem = two_obj_problem()
        cfg = EngineConfig(n_initial=3, max_iterations=7, ga=SMALL_GA, seed=21)
        a = run(problem, cfg)
        b = run(problem, cfg)
        assert a.pof == b.pof
        assert a.best_index == b.best_index
        assert a.archive.stop_reason == b.archive.stop_reason
        assert np.array_equal(a.archive.objective_matrix(), b.archive.objective_matrix())
