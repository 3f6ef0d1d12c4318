"""Exact hypervolume and non-dominated filtering for minimisation fronts.

The hypervolume of a point set is the measure of the region it dominates
inside the box bounded by a reference point (Zitzler & Thiele 1999). Two
objectives use a sweep over the first objective; three objectives slice on
the third and sum the 2-D hypervolume of each slice. Points that do not
strictly dominate the reference point contribute nothing.
"""
from __future__ import annotations

import bisect

import numpy as np


def _clip(points, ref) -> tuple[np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(ref, dtype=float).reshape(-1)
    if pts.size and pts.shape[1] != ref.shape[0]:
        raise ValueError(f"points have {pts.shape[1]} objectives, reference has {ref.shape[0]}")
    if pts.size == 0:
        return np.empty((0, ref.shape[0])), ref
    return pts[np.all(pts < ref, axis=1)], ref


def _hv2(pts: np.ndarray, ref: np.ndarray) -> float:
    if pts.shape[0] == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x = pts[order, 0]
    best_y = np.minimum.accumulate(pts[order, 1])
    widths = np.diff(np.append(x, ref[0]))
    return float(np.sum(widths * (ref[1] - best_y)))


def hypervolume(points, ref) -> float:
    """Exact hypervolume of 2- or 3-objective points against ``ref``."""
    pts, ref = _clip(points, ref)
    k = ref.shape[0]
    if k == 2:
        return _hv2(pts, ref)
    if k != 3:
        raise ValueError(f"hypervolume supports 2 or 3 objectives, got {k}")
    if pts.shape[0] == 0:
        return 0.0
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    levels = pts[:, 2]
    total = 0.0
    for i in range(pts.shape[0]):
        top = levels[i + 1] if i + 1 < pts.shape[0] else ref[2]
        if top > levels[i]:
            total += _hv2(pts[: i + 1, :2], ref[:2]) * (top - levels[i])
    return total


def nondominated(points) -> np.ndarray:
    """Rows of ``points`` that no other row dominates, duplicates collapsed.

    A lexicographic sweep: after sorting by (f1, f2, f3), a point is dominated
    exactly when an earlier kept point is no worse in f2 and f3. The kept
    points' (f2, f3) projection is held as a staircase with f2 ascending and
    f3 strictly descending, so each test is one bisection.
    """
    pts = np.unique(np.atleast_2d(np.asarray(points, dtype=float)), axis=0)
    k = pts.shape[1]
    if k == 2:
        best = np.minimum.accumulate(pts[:, 1])
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = pts[1:, 1] < best[:-1]
        return pts[keep]
    if k != 3:
        raise ValueError(f"nondominated supports 2 or 3 objectives, got {k}")
    stair_f2: list[float] = []
    stair_f3: list[float] = []
    kept = []
    for i, (_, f2, f3) in enumerate(pts.tolist()):
        j = bisect.bisect_right(stair_f2, f2)
        if j and stair_f3[j - 1] <= f3:
            continue
        kept.append(i)
        # drop staircase steps the new point covers: f2 >= its f2, f3 >= its f3
        end = j
        while end < len(stair_f2) and stair_f3[end] >= f3:
            end += 1
        stair_f2[j:end] = [f2]
        stair_f3[j:end] = [f3]
    return pts[kept]
