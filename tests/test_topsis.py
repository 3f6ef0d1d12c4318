import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moboga.topsis import BENEFIT, COST, TopsisError, topsis_rank


def oracle_topsis(x, weights, directions):
    """Step-by-step reference: normalize, weight, ideal/anti-ideal, L2, closeness."""
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()

    r = np.empty_like(x)
    for j in range(n):
        r[:, j] = x[:, j] / np.sqrt(np.sum(x[:, j] ** 2))
    v = r * w

    best, worst = np.empty(n), np.empty(n)
    for j, d in enumerate(directions):
        if d == COST:
            best[j], worst[j] = v[:, j].min(), v[:, j].max()
        else:
            best[j], worst[j] = v[:, j].max(), v[:, j].min()

    closeness = np.empty(m)
    for i in range(m):
        d_b = np.sqrt(np.sum((v[i] - best) ** 2))
        d_w = np.sqrt(np.sum((v[i] - worst) ** 2))
        closeness[i] = 0.5 if d_b + d_w == 0 else d_w / (d_b + d_w)
    ranking = sorted(range(m), key=lambda i: (-closeness[i], i))
    return closeness, ranking


def equal_weights(n):
    return np.full(n, 1.0 / n)


def pick_best(points, directions, weights=None):
    """Index of the top-ranked point; uniform weights unless given."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        weights = equal_weights(points.shape[1])
    return int(topsis_rank(points, directions, np.asarray(weights, dtype=float)).ranking[0])


class TestRank:
    def test_single_alternative_is_degenerate_half(self):
        res = topsis_rank([[3.0, 4.0]], (COST, COST), equal_weights(2))
        assert res.closeness.tolist() == [0.5]
        assert res.ranking.tolist() == [0]

    def test_dominating_alternative_scores_one(self):
        res = topsis_rank([[1.0, 1.0], [2.0, 3.0]], (COST, COST), equal_weights(2))
        assert res.ranking[0] == 0
        assert res.closeness[0] == pytest.approx(1.0)

    def test_symmetric_pair_ties_to_lower_index(self):
        res = topsis_rank([[1.0, 2.0], [2.0, 1.0]], (COST, COST), equal_weights(2))
        assert res.closeness == pytest.approx([0.5, 0.5])
        assert res.ranking.tolist() == [0, 1]
        oc, orank = oracle_topsis([[1, 2], [2, 1]], equal_weights(2), (COST, COST))
        assert res.closeness == pytest.approx(oc)
        assert res.ranking.tolist() == orank

    @pytest.mark.parametrize("direction", [COST, BENEFIT])
    @pytest.mark.parametrize("weights", [None, [0.7, 5.0, 0.2]], ids=["equal", "weighted"])
    def test_all_zero_column_is_dropped_with_its_weight(self, direction, weights):
        x = np.array([[1.0, 0.0, 4.0], [3.0, 0.0, 2.0], [2.0, 0.0, 5.0]])
        kept = None if weights is None else [weights[0], weights[2]]
        res = topsis_rank(x, (direction,) * 3, weights)
        want = topsis_rank(x[:, [0, 2]], (direction,) * 2, kept)
        assert res.closeness.tolist() == want.closeness.tolist()
        assert res.ranking.tolist() == want.ranking.tolist()

    @pytest.mark.parametrize("x", [[[0.0, 1.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]],
                             ids=["zero-column", "all-zero"])
    def test_weights_are_checked_before_a_zero_column_is_dropped(self, x):
        with pytest.raises(TopsisError, match="weights"):
            topsis_rank(x, (COST, COST), [1.0])

    def test_all_identical_rows_flagged_degenerate(self):
        res = topsis_rank([[2.0, 3.0]] * 4, (COST, COST), equal_weights(2))
        assert res.closeness.tolist() == [0.5] * 4
        assert res.ranking.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("factor", [1e-170, 1e160], ids=["underflow", "overflow"])
    def test_a_column_scaled_past_the_float_range_of_its_squares_ranks_the_same(self, factor):
        # squares of 1e-170 underflow to 0 and squares of 1e160 overflow to inf
        x = np.array([[1.0, 4.0], [2.0, 1.0], [4.0, 2.0]])
        scaled = x * [factor, 1.0]
        base = topsis_rank(x, (COST, COST))
        res = topsis_rank(scaled, (COST, COST))
        assert res.ranking.tolist() == base.ranking.tolist()
        assert res.closeness == pytest.approx(base.closeness, rel=1e-12)

    def test_weights_must_be_positive(self):
        with pytest.raises(TopsisError, match="weights"):
            topsis_rank([[1.0]], (COST,), np.array([0.0]))

    @pytest.mark.parametrize(
        "weights", [[-1.0], [np.nan], [np.inf], [True], ["1"], [1.0, 1.0]],
        ids=["negative", "nan", "inf", "bool", "string", "long"],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(TopsisError, match="weights"):
            topsis_rank([[1.0]], (COST,), weights)

    def test_directions_validated(self):
        with pytest.raises(TopsisError):
            topsis_rank([[1.0]], ("sideways",), np.array([1.0]))


class TestPickBest:
    def test_singleton(self):
        assert pick_best([[1.0, 2.0]], (COST, COST)) == 0

    def test_symmetric_cost_front_is_a_full_tie(self):
        # rows all sum to 10, so the weighted normalized points are collinear
        # and exactly equidistant from ideal and anti-ideal: closeness 0.5
        # everywhere, and the tie-break hands the pick to the lowest index.
        pts = [(1.0, 9.0), (5.0, 5.0), (9.0, 1.0)]
        oc, orank = oracle_topsis(pts, equal_weights(2), (COST, COST))
        assert oc == pytest.approx([0.5, 0.5, 0.5])
        assert pick_best(pts, (COST, COST)) == orank[0] == 0

    def test_symmetric_benefit_front_is_a_full_tie(self):
        pts = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]
        oc, orank = oracle_topsis(pts, equal_weights(2), (BENEFIT, BENEFIT))
        assert oc == pytest.approx([0.5, 0.5, 0.5])
        assert pick_best(pts, (BENEFIT, BENEFIT)) == orank[0] == 0

    def test_asymmetric_balanced_point_wins(self):
        # break the constant-sum symmetry: the balanced point now dominates
        # the closeness ordering as the extremes trade one criterion away
        pts = [(1.0, 9.5), (5.0, 5.0), (9.5, 1.0)]
        assert pick_best(pts, (COST, COST)) == 1
        _, orank = oracle_topsis(pts, equal_weights(2), (COST, COST))
        assert orank[0] == 1

    def test_weights_shift_the_pick(self):
        pts = [(1.0, 9.0), (9.0, 1.0)]
        assert pick_best(pts, (COST, COST), weights=[0.95, 0.05]) == 0
        assert pick_best(pts, (COST, COST), weights=[0.05, 0.95]) == 1


matrix_strategy = st.integers(0, 2**31 - 1)


@given(matrix_strategy)
@settings(max_examples=60)
def test_matches_scripted_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 21))
    n = int(rng.integers(1, 6))
    x = rng.uniform(0.1, 10.0, size=(m, n))
    w = rng.uniform(0.1, 2.0, size=n)
    directions = tuple(COST if rng.random() < 0.5 else BENEFIT for _ in range(n))
    res = topsis_rank(x, directions, w)
    oc, orank = oracle_topsis(x, w, directions)
    assert res.closeness == pytest.approx(oc, abs=1e-12)
    assert res.ranking.tolist() == orank


@given(matrix_strategy)
@settings(max_examples=40)
def test_positive_column_scaling_leaves_closeness_unchanged(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 12)), int(rng.integers(1, 5))
    x = rng.uniform(0.1, 10.0, size=(m, n))
    w = rng.uniform(0.1, 2.0, size=n)
    directions = tuple(COST if rng.random() < 0.5 else BENEFIT for _ in range(n))
    base = topsis_rank(x, directions, w)
    scaled = x.copy()
    j = int(rng.integers(n))
    scaled[:, j] *= float(rng.uniform(0.01, 100.0))
    res = topsis_rank(scaled, directions, w)
    assert res.closeness == pytest.approx(base.closeness, abs=1e-12)


@given(matrix_strategy)
@settings(max_examples=40)
def test_row_permutation_permutes_the_ranking(seed):
    from hypothesis import assume

    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 12)), int(rng.integers(1, 5))
    x = rng.uniform(0.1, 10.0, size=(m, n))
    w = rng.uniform(0.1, 2.0, size=n)
    directions = tuple(COST if rng.random() < 0.5 else BENEFIT for _ in range(n))
    base = topsis_rank(x, directions, w)
    # permuting rows reorders the column-norm summation, so closeness can move
    # by an ulp; only gap-free rankings are required to map across exactly
    gaps = np.diff(np.sort(base.closeness))
    assume(gaps.size == 0 or gaps.min() > 1e-9)
    perm = rng.permutation(m)
    permuted = topsis_rank(x[perm], directions, w)
    assert permuted.closeness == pytest.approx(base.closeness[perm], rel=1e-9, abs=1e-12)
    assert perm[permuted.ranking].tolist() == base.ranking.tolist()


@given(matrix_strategy)
@settings(max_examples=40)
def test_closeness_always_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 15)), int(rng.integers(1, 5))
    x = rng.uniform(0.1, 5.0, size=(m, n))
    res = topsis_rank(x, (COST,) * n, equal_weights(n))
    assert np.all(res.closeness >= 0.0) and np.all(res.closeness <= 1.0)
