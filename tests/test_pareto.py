import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moboga.nsga2 import _survival
from moboga.pareto import (
    _partition,
    _peel_rank,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    generational_distance,
    pareto_front,
)


# -- brute-force oracles: pairwise domination straight from the definition ---

def oracle_dominates(v, w):
    return all(a <= b for a, b in zip(v, w)) and any(a < b for a, b in zip(v, w))


def oracle_front(scores):
    n = len(scores)
    return [
        i
        for i in range(n)
        if not any(oracle_dominates(scores[j], scores[i]) for j in range(n) if j != i)
    ]


def oracle_front_partition(scores):
    """O(N^3)-ish repeated peeling using only the pairwise definition."""
    remaining = list(range(len(scores)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(oracle_dominates(scores[j], scores[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def oracle_crowding(scores, fronts):
    """Deb et al.'s crowding, front by front: per objective, sort the front
    (ties keep index order), give both ends inf, add each interior member's
    neighbour gap over the front's span when the span is positive."""
    dist = np.zeros(len(scores))
    for front in fronts:
        for j in range(scores.shape[1]):
            members = sorted(front, key=lambda i: scores[i, j])
            span = scores[members[-1], j] - scores[members[0], j]
            dist[members[0]] = dist[members[-1]] = np.inf
            if span > 0:
                for prev, mid, nxt in zip(members, members[1:], members[2:]):
                    dist[mid] += (scores[nxt, j] - scores[prev, j]) / span
    return dist


def oracle_survivors(fronts, crowding, n):
    """Fill n places front by front; the first front that does not fit
    whole gives its members by descending crowding, ties to the lower index."""
    kept = []
    for front in fronts:
        kept += sorted(front, key=lambda i: -crowding[i])[: n - len(kept)]
    return kept


def random_population(rng, n=None, k=None):
    n = n or int(rng.integers(1, 65))
    k = k or int(rng.integers(1, 5))
    # round to one decimal to force plenty of exact ties and duplicates
    return np.round(rng.random((n, k)) * 3.0, 1)


class TestDominates:
    def test_strict_in_both(self):
        assert dominates([1, 2], [2, 3])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1, 2], [1, 2])

    def test_mutually_non_dominated(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])

    def test_weak_dominance_with_one_strict(self):
        assert dominates([1, 2], [1, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])


class TestSort:
    def test_chain_yields_singleton_fronts(self):
        part = fast_nondominated_sort([(0, 0), (1, 1), (2, 2)])
        assert part.fronts == [[0], [1], [2]]
        assert part.rank.tolist() == [1, 2, 3]

    def test_mutual_nondominance_single_front(self):
        part = fast_nondominated_sort([(0, 1), (1, 0)])
        assert part.fronts == [[0, 1]]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_bruteforce_oracle_on_random_populations(self, k):
        rng = np.random.default_rng(42)
        for _ in range(30):
            scores = random_population(rng, k=k, n=30)
            part = fast_nondominated_sort(scores)
            assert part.fronts == oracle_front_partition(scores.tolist())

    def test_permutation_invariant_up_to_front_order(self):
        rng = np.random.default_rng(3)
        scores = random_population(rng, n=20, k=2)
        perm = rng.permutation(20)
        base = fast_nondominated_sort(scores)
        permuted = fast_nondominated_sort(scores[perm])
        for f_base, f_perm in zip(base.fronts, permuted.fronts):
            assert sorted(perm[f_perm]) == sorted(f_base)


def _chain(n=120, seed=11):
    # f2 trails f1 by a little noise, so most members dominate the next few:
    # the long chain of fronts that binh-korn's acquisition gives the GA
    rng = np.random.default_rng(seed)
    f1 = np.round(rng.random(n), 3)
    return np.column_stack([f1, f1 + np.round(0.05 * rng.random(n), 3)])


TWO_OBJECTIVE_CASES = {  # name: (scores, least number of fronts)
    "long-chain": (_chain(), 50),
    # the engine negates acquisition values, so a zero EI arrives as -0.0
    "signed-zeros": (
        np.random.default_rng(5).choice([0.0, -0.0, -0.5, -1.0], size=(40, 2)), 2
    ),
    "one-member": (np.array([[0.5, -1.0]]), 1),
    "all-equal": (np.full((9, 2), 0.25), 1),
}


@pytest.mark.parametrize(
    "scores, min_fronts", TWO_OBJECTIVE_CASES.values(), ids=TWO_OBJECTIVE_CASES.keys()
)
def test_two_objective_sweep_matches_the_oracles_and_the_peel_bit_for_bit(scores, min_fronts):
    part = fast_nondominated_sort(scores)
    fronts = oracle_front_partition(scores.tolist())
    assert len(fronts) >= min_fronts
    assert part.fronts == fronts
    assert part.rank.tolist() == [
        next(r for r, f in enumerate(fronts, 1) if i in f) for i in range(len(scores))
    ]
    assert part.crowding.tobytes() == oracle_crowding(scores, fronts).tobytes()
    peel = _partition(scores, _peel_rank(scores))
    assert part.fronts == peel.fronts
    assert part.rank.tobytes() == peel.rank.tobytes()
    assert part.crowding.tobytes() == peel.crowding.tobytes()


class TestCrowding:
    def test_tiny_fronts_are_all_boundary(self):
        assert np.all(np.isinf(crowding_distance([(1.0, 2.0)])))
        assert np.all(np.isinf(crowding_distance([(1.0, 2.0), (0.0, 3.0)])))

    def test_hand_computed_middle_distance(self):
        d = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)  # (2-0)/2 per objective, summed

    def test_degenerate_objective_contributes_nothing(self):
        d = crowding_distance([(0, 5), (1, 5), (2, 5), (3, 5)])
        interior = d[1:3]
        assert interior == pytest.approx([2 / 3, 2 / 3])


class TestFront:
    def test_single_point_is_its_own_front(self):
        assert pareto_front([(3.0, 4.0)]) == [0]

    def test_duplicates_are_both_retained(self):
        assert pareto_front([(1.0, 2.0), (1.0, 2.0)]) == [0, 1]

    def test_matches_oracle_on_random_2d_populations(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            scores = random_population(rng, n=50, k=2)
            assert pareto_front(scores) == oracle_front(scores.tolist())


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_front_equals_first_sorted_front(seed):
    rng = np.random.default_rng(seed)
    scores = random_population(rng)
    assert pareto_front(scores) == fast_nondominated_sort(scores).fronts[0]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_appending_dominated_point_preserves_front_members(seed):
    rng = np.random.default_rng(seed)
    scores = random_population(rng, k=2)
    front = pareto_front(scores)
    dominated = scores[front[0]] + 0.5  # strictly worse than a front member
    extended = np.vstack([scores, dominated])
    assert set(pareto_front(extended)) >= set(front)
    assert len(scores) not in pareto_front(extended)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_crowding_matches_front_by_front_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    scores = random_population(rng)
    want = oracle_crowding(scores, oracle_front_partition(scores.tolist()))
    assert np.array_equal(fast_nondominated_sort(scores).crowding, want)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_survivors_are_the_front_by_front_fill(seed):
    rng = np.random.default_rng(seed)
    scores = random_population(rng)
    fronts = oracle_front_partition(scores.tolist())
    crowding = oracle_crowding(scores, fronts)
    for n in range(1, len(scores) + 1):
        want = oracle_survivors(fronts, crowding, n)
        assert sorted(_survival(scores, n)[0].tolist()) == sorted(want)


def test_generational_distance_zero_for_subset():
    ref = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    assert generational_distance(ref[:2], ref) == 0.0


def test_generational_distance_simple_offset():
    ref = np.array([[0.0, 0.0]])
    front = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert generational_distance(front, ref) == pytest.approx(2.5)
