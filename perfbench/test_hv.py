"""Hypervolume and front filtering against brute-force oracles.

Run with ``python3 -m pytest perfbench``. On integer points the dominated
region is a union of unit cells, so counting the cells that some point is
no worse than gives the exact hypervolume.
"""
import itertools

import numpy as np
import pytest

from moboga import Candidate
from moboga.objectives import all_satisfied

from hv import hypervolume, nondominated
from workloads import mixed_soft_oracle, mixed_soft_problem


def brute_hv(points, ref) -> int:
    pts = np.asarray(points)
    cells = itertools.product(*(range(r) for r in ref))
    return sum(1 for c in cells if np.any(np.all(pts <= np.asarray(c), axis=1)))


def brute_front(points) -> np.ndarray:
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = [
        i for i, p in enumerate(pts)
        if not any(np.all(q <= p) and np.any(q < p) for q in pts)
    ]
    return pts[keep]


@pytest.mark.parametrize("k, ref", [(2, (9, 7)), (3, (6, 7, 5))])
@pytest.mark.parametrize("seed", range(20))
def test_hypervolume_matches_cell_count(k, ref, seed):
    rng = np.random.default_rng(seed)
    # dominated points, duplicates and points outside the box included
    points = rng.integers(0, np.asarray(ref) + 2, size=(int(rng.integers(1, 12)), k))
    assert hypervolume(points, ref) == pytest.approx(brute_hv(points, ref), abs=1e-9)


def test_hypervolume_of_nothing_is_zero():
    assert hypervolume(np.empty((0, 3)), (1.0, 1.0, 1.0)) == 0.0
    assert hypervolume([[2.0, 0.0]], (1.0, 1.0)) == 0.0


def test_hypervolume_is_unchanged_by_filtering():
    pts = np.random.default_rng(3).random((200, 3))
    ref = (1.1, 1.1, 1.1)
    assert hypervolume(nondominated(pts), ref) == pytest.approx(hypervolume(pts, ref))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_nondominated_matches_pairwise_check(k, seed):
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 6, size=(int(rng.integers(1, 40)), k)).astype(float)
    got = nondominated(points)
    want = brute_front(points)
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def test_mixed_soft_oracle_matches_candidate_enumeration():
    """The array oracle equals the front of the problem's own callables."""
    steps, x3_steps = 2, 5
    problem = mixed_soft_problem()
    assert problem.space.encoded_dim == 12
    grids = [np.linspace(0.0, 1.0, steps + 1)] * 2 + [np.linspace(0.0, 1.0, x3_steps + 1)]
    labels = [p.values if hasattr(p, "values") else p.labels for p in problem.space.params[3:]]
    names = problem.space.names
    rows = []
    for combo in itertools.product(*grids, *labels):
        cand = Candidate(dict(zip(names, combo)))
        if all_satisfied(problem.constraints, cand):
            rows.append(problem.evaluator(cand))
    want = nondominated(np.asarray(rows, dtype=float))
    got = mixed_soft_oracle(steps=steps, x3_steps=x3_steps)
    np.testing.assert_allclose(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])
