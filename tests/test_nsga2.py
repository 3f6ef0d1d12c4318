import numpy as np
import pytest

from moboga.nsga2 import (
    CROSSOVER_PROB,
    PM_ETA,
    SBX_ETA,
    GaConfig,
    _score,
    _survival,
    _variation,
    nsga2_run,
    polynomial_mutation,
    sbx_crossover,
    tournament_select,
)
from moboga.space import ContinuousParam, SearchSpace


def space_1d():
    return SearchSpace((ContinuousParam("x", 0.0, 1.0),))


def space_2d():
    return SearchSpace((ContinuousParam("x", 0.0, 1.0), ContinuousParam("y", 0.0, 1.0)))


def two_sided(g):
    """Scores (x, 1 - x) of each genome's first gene: every genome is on one front."""
    return np.column_stack([g[:, 0], 1 - g[:, 0]])


def duels(ranks, crowdings, rng, n=2):
    """n tournaments between members 0 and 1, alternating sides; returns the winners."""
    i = np.arange(n) % 2
    return tournament_select(np.array(ranks), np.array(crowdings, dtype=float), i, 1 - i, rng)


class TestConfig:
    def test_population_must_be_even_and_at_least_four(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=5)
        with pytest.raises(ValueError):
            GaConfig(population_size=2)

    @pytest.mark.parametrize("size", [-4, 0, 3])
    def test_population_error_names_the_rule(self, size):
        with pytest.raises(ValueError, match="even integer >= 4"):
            GaConfig(population_size=size)

    @pytest.mark.parametrize("generations", [0, -1])
    def test_generations_at_least_one(self, generations):
        with pytest.raises(ValueError, match="generations must be >= 1"):
            GaConfig(generations=generations)

    def test_the_smallest_ga_runs(self):
        genomes, scores, part = nsga2_run(two_sided, GaConfig(4, 1), space_1d(), 0)
        assert genomes.shape == (4, 1) and scores.shape == (4, 2) and len(part.rank) == 4

    def test_defaults(self):
        cfg = GaConfig()
        assert (cfg.population_size, cfg.generations) == (60, 30)


class TestTournament:
    def test_lower_rank_wins(self):
        rng = np.random.default_rng(0)
        assert duels([1, 2], [0.1, 9.9], rng).tolist() == [0, 0]

    def test_equal_rank_prefers_crowding(self):
        rng = np.random.default_rng(0)
        assert duels([1, 1], [np.inf, 1.0], rng).tolist() == [0, 0]

    def test_full_tie_is_a_fair_coin(self):
        rng = np.random.default_rng(1)
        for crowding in (1.0, np.inf):  # two inf crowdings tie too
            winners = duels([1, 1], [crowding, crowding], rng, n=10_000)
            assert abs(np.mean(winners == 0) - 0.5) < 0.05

    def test_every_tournament_follows_the_rule(self):
        rng = np.random.default_rng(2)
        rank = rng.integers(1, 4, size=30)
        crowding = rng.choice([0.5, 1.0, np.inf], size=30)
        i, j = rng.integers(30, size=(2, 500))
        winners = tournament_select(rank, crowding, i, j, rng)
        for a, b, w in zip(i, j, winners):
            if rank[a] != rank[b]:
                assert w == (a if rank[a] < rank[b] else b)
            elif crowding[a] != crowding[b]:
                assert w == (a if crowding[a] > crowding[b] else b)
            else:
                assert w in (a, b)


class TestCrossover:
    def test_zero_probability_copies_parents(self):
        rng = np.random.default_rng(0)
        p1, p2 = np.array([[0.2, 0.8], [0.1, 0.3]]), np.array([[0.4, 0.6], [0.9, 0.5]])
        c1, c2 = sbx_crossover(p1, p2, 0.0, SBX_ETA, rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)
        assert c1 is not p1  # fresh arrays, parents untouched

    def test_identical_parents_produce_identical_children(self):
        rng = np.random.default_rng(0)
        p = np.array([[0.3, 0.7], [0.5, 0.1]])
        c1, c2 = sbx_crossover(p, p, 1.0, SBX_ETA, rng)
        assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_children_stay_in_bounds(self):
        rng = np.random.default_rng(2)
        c1, c2 = sbx_crossover(rng.random((500, 3)), rng.random((500, 3)), 1.0, 2.0, rng)
        assert np.all((c1 >= 0) & (c1 <= 1)) and np.all((c2 >= 0) & (c2 <= 1))

    def test_spread_is_mean_preserving(self):
        rng = np.random.default_rng(3)
        c1, c2 = sbx_crossover(
            np.full((5_000, 1), 0.2), np.full((5_000, 1), 0.8), 1.0, SBX_ETA, rng
        )
        assert abs(np.mean(np.vstack([c1, c2])) - 0.5) < 0.02

    def test_each_pair_flips_its_own_crossover_coin(self):
        rng = np.random.default_rng(4)
        p1, p2 = rng.random((4_000, 3)), rng.random((4_000, 3))
        c1, c2 = sbx_crossover(p1, p2, 0.5, SBX_ETA, rng)
        copied = (c1 == p1).all(axis=1) & (c2 == p2).all(axis=1)
        assert abs(np.mean(copied) - 0.5) < 0.05
        assert not np.any((c1 == p1) & ~copied[:, None])  # a crossed pair moves every gene

    def test_parent_shapes_must_match(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one shape"):
            sbx_crossover(np.zeros((2, 3)), np.zeros((2, 2)), CROSSOVER_PROB, SBX_ETA, rng)


class TestMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        g = np.array([[0.1, 0.9], [0.4, 0.0]])
        assert np.array_equal(polynomial_mutation(g, 0.0, PM_ETA, rng), g)

    def test_boundary_gene_only_moves_inward(self):
        rng = np.random.default_rng(1)
        out = polynomial_mutation(np.array([[0.0, 1.0]] * 2_000), 1.0, PM_ETA, rng)
        assert np.all(out[:, 0] >= 0.0) and np.all(out[:, 1] <= 1.0)
        assert np.any(out[:, 0] > 0.0) and np.any(out[:, 1] < 1.0)

    def test_default_rate_is_one_over_dimension(self):
        rng = np.random.default_rng(2)
        g = np.full((4_000, 10), 0.5)
        changed = np.sum(polynomial_mutation(g, 1 / 10, PM_ETA, rng) != g, axis=1)
        assert abs(np.mean(changed) - 1.0) < 0.1  # ~Binomial(10, 1/10) per genome

    def test_perturbations_concentrate_near_the_parent(self):
        rng = np.random.default_rng(3)
        out = polynomial_mutation(np.full((1_000, 100), 0.5), 1.0, 20.0, rng)
        assert np.mean(np.abs(out - 0.5)) < 0.1


class TestVariation:
    def test_children_are_the_tournament_winners_crossed_then_mutated_at_the_constants(self):
        rng = np.random.default_rng(5)
        genomes = rng.random((12, 3))
        rank = rng.integers(1, 4, size=12)
        crowding = rng.choice([0.5, np.inf], size=12)
        children = _variation(genomes, rank, crowding, np.random.default_rng(6))
        replay = np.random.default_rng(6)
        i, j = replay.integers(12, size=(2, 12))
        winners = genomes[tournament_select(rank, crowding, i, j, replay)]
        c1, c2 = sbx_crossover(winners[0::2], winners[1::2], 0.9, 15.0, replay)
        crossed = np.empty_like(winners)
        crossed[0::2], crossed[1::2] = c1, c2
        assert np.array_equal(children, polynomial_mutation(crossed, 1 / 3, 20.0, replay))


class TestSurvival:
    def test_whole_fronts_then_partial_front_by_descending_crowding(self):
        scores = np.array([
            [0.0, 1.0],  # 0: front 1
            [0.5, 0.5],  # 1: front 1
            [2.0, 3.0],  # 2: front 2, interior
            [4.0, 1.0],  # 3: front 2, boundary (inf)
            [3.0, 2.0],  # 4: front 2, interior, same crowding as 2
            [1.0, 4.0],  # 5: front 2, boundary (inf)
            [6.0, 6.0],  # 6: front 3
        ])
        keep, part = _survival(scores, 5)
        assert part.fronts == [[0, 1], [2, 3, 4, 5], [6]]
        assert np.isinf(part.crowding[[3, 5]]).all()
        assert np.isfinite(part.crowding[2]) and part.crowding[2] == part.crowding[4]
        # front 1 whole; front 2 cut to its two inf members, then the lower
        # index of the tied interior pair
        assert keep.tolist() == [0, 1, 3, 5, 2]
        # a front that fills the population exactly leaves no partial front
        assert _survival(scores, 2)[0].tolist() == [0, 1]


class TestRun:
    def test_single_objective_parabola_converges(self):
        cfg = GaConfig(population_size=40, generations=50)
        genomes, scores, part = nsga2_run(lambda g: (g[:, :1] - 0.5) ** 2, cfg, space_1d(), 0)
        best = np.argmin(scores[:, 0])
        assert abs(genomes[best, 0] - 0.5) < 0.02

    def test_population_size_constant_after_survival(self):
        cfg = GaConfig(population_size=20, generations=5)
        genomes, scores, _ = nsga2_run(two_sided, cfg, space_1d(), 1)
        assert len(genomes) == 20
        assert len(scores) == 20

    def test_equal_seeds_replay_bitwise(self):
        cfg = GaConfig(population_size=16, generations=8)
        score = lambda g: np.column_stack([g[:, 0] ** 2 + g[:, 1], (1 - g[:, 0]) ** 2])
        genomes_a, scores_a, _ = nsga2_run(score, cfg, space_2d(), 9)
        genomes_b, scores_b, _ = nsga2_run(score, cfg, space_2d(), 9)
        for a, b in zip(genomes_a, genomes_b):
            assert np.array_equal(a, b)
        for a, b in zip(scores_a, scores_b):
            assert np.array_equal(a, b)

    def test_elitism_keeps_an_injected_utopian_individual(self):
        # the genome at 0.5 scores (1, 1) and strictly dominates everything else
        def score(g):
            d = np.abs(g[:, :1] - 0.5)
            return np.hstack([1.0 + d, 1.0 + d])

        cfg = GaConfig(population_size=12, generations=20)
        genomes, scores, part = nsga2_run(
            score, cfg, space_1d(), 4, initial_genomes=[np.array([0.5])]
        )
        assert any(s[0] == 1.0 and s[1] == 1.0 for s in scores)
        first_front_scores = [scores[i] for i in part.fronts[0]]
        assert all(s[0] == 1.0 for s in first_front_scores)

    def test_non_finite_scores_abort_with_diagnostic(self):
        cfg = GaConfig(population_size=4, generations=1)
        with pytest.raises(ValueError, match="non-finite"):
            nsga2_run(lambda g: np.full((len(g), 1), np.nan), cfg, space_1d(), 0)

    def test_final_partition_is_consistent_with_population(self):
        cfg = GaConfig(population_size=16, generations=6)
        genomes, scores, part = nsga2_run(two_sided, cfg, space_2d(), 2)
        assert sorted(i for front in part.fronts for i in front) == list(range(16))
        for rank in part.rank:
            assert rank >= 1


class TestScore:
    def test_wrong_row_count_rejected(self):
        genomes = np.zeros((4, 1))
        with pytest.raises(ValueError, match="4 genomes"):
            _score(genomes, lambda g: np.zeros((3, 2)))
        with pytest.raises(ValueError, match="4 genomes"):
            _score(genomes, lambda g: np.zeros(4))  # one flat vector, not (m, k)

    def test_non_finite_row_names_the_first_bad_genome(self):
        genomes = np.array([[0.1], [0.2], [0.3], [0.4]])
        scores = np.ones((4, 2))
        scores[2, 1] = np.inf
        scores[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite scores \[ 1. inf\] for genome \[0.3\]"):
            _score(genomes, lambda g: scores)

    def test_run_scores_one_population_per_call(self):
        calls = []

        def score(g):
            calls.append(g.shape)
            return two_sided(g)

        cfg = GaConfig(population_size=10, generations=7)
        nsga2_run(score, cfg, space_2d(), 3)
        assert calls == [(10, 2)] * (cfg.generations + 1)
