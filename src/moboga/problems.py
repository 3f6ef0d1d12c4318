"""Built-in constrained benchmark problems and their brute-force reference fronts.

Domain bounds follow the standard literature choices for each function:
Binh-Korn on x in [0, 5], y in [0, 3]; Constr-Ex on x in [0.1, 1], y in [0, 5]
(x = 0 is excluded by the domain, so q2 = (1+y)/x is total); the constrained
sinusoid on x in [0, 1.2].
"""
from __future__ import annotations

import math

import numpy as np

from .objectives import Batch, ConstraintSpec, Problem, all_satisfied
from .space import Candidate, ContinuousParam, SearchSpace


class BenchmarkConfigError(ValueError):
    """A reference-front request does not fit the problem."""


def binh_korn(x, y):
    """q1 = 4x^2 + 4y^2, q2 = (x-5)^2 + (y-5)^2. Accepts scalars or arrays."""
    return 4.0 * x**2 + 4.0 * y**2, (x - 5.0) ** 2 + (y - 5.0) ** 2


def binh_korn_c1(x, y):
    """(x-5)^2 + y^2 <= 25."""
    return (x - 5.0) ** 2 + y**2 <= 25.0


def binh_korn_c2(x, y):
    """(x-8)^2 + (y+3)^2 >= 7.7."""
    return (x - 8.0) ** 2 + (y + 3.0) ** 2 >= 7.7


def constr_ex(x, y):
    """q1 = x, q2 = (1+y)/x."""
    return x, (1.0 + y) / x


def constr_ex_c1(x, y):
    """y + 9x >= 6."""
    return y + 9.0 * x >= 6.0


def constr_ex_c2(x, y):
    """-y + 9x >= 1."""
    return -y + 9.0 * x >= 1.0


def sinusoid_1d(x):
    """q(x) = 1.1 + (x - 0.5)^2 + sin(6 pi x + pi/2) / 2, for x >= 0."""
    return 1.1 + (x - 0.5) ** 2 + 0.5 * np.sin(6.0 * math.pi * x + 0.5 * math.pi)


SINUSOID_HARD_LO = 0.2
SINUSOID_HARD_HI = 0.6
SINUSOID_BETA_CAP = 1.0 - 1e-9


def sinusoid_soft_beta(x):
    """Severity-based penalty 1/(x-0.6)^4 for x > 0.6, clamped below 1 (elementwise).

    The raw inverse-quartic exceeds 1 everywhere on this domain (the gap is at
    most 0.6), so the clamp keeps it a valid penalty factor. It also makes the
    penalty inert: beta is 1 - 1e-9 over the whole soft tail, so the soft
    constraint scales the acquisition by a negligible amount, and the 1-D
    study's "at least one soft-tail query" check cannot tell this penalty
    from none.
    """
    # a gap under 1e-3, or none (x <= 0.6), is raised to 1e-3: past the cap either way
    gap = np.maximum(np.asarray(x, dtype=float) - SINUSOID_HARD_HI, 1e-3)
    return np.minimum(1.0 / gap**4, SINUSOID_BETA_CAP)


def _binh_korn_evaluator(c: Candidate):
    return binh_korn(c["x"], c["y"])


def _constr_ex_evaluator(c: Candidate):
    return constr_ex(c["x"], c["y"])


def _sinusoid_evaluator(c: Candidate):
    return (float(sinusoid_1d(c["x"])),)


def _batched(name, predicate, violation, beta=None) -> ConstraintSpec:
    """A built-in constraint: each callable maps the columns x, y to an array."""
    return ConstraintSpec(name, predicate, beta, violation, batched=True)


def binh_korn_constraints() -> tuple[ConstraintSpec, ...]:
    return (
        _batched("c1", lambda c: binh_korn_c1(c["x"], c["y"]),
                 lambda c: np.maximum(0.0, (c["x"] - 5.0) ** 2 + c["y"] ** 2 - 25.0)),
        _batched("c2", lambda c: binh_korn_c2(c["x"], c["y"]),
                 lambda c: np.maximum(0.0, 7.7 - (c["x"] - 8.0) ** 2 - (c["y"] + 3.0) ** 2)),
    )


def constr_ex_constraints() -> tuple[ConstraintSpec, ...]:
    return (
        _batched("c1", lambda c: constr_ex_c1(c["x"], c["y"]),
                 lambda c: np.maximum(0.0, 6.0 - (c["y"] + 9.0 * c["x"]))),
        _batched("c2", lambda c: constr_ex_c2(c["x"], c["y"]),
                 lambda c: np.maximum(0.0, 1.0 - (-c["y"] + 9.0 * c["x"]))),
    )


def sinusoid_constraints() -> tuple[ConstraintSpec, ...]:
    lo, hi = SINUSOID_HARD_LO, SINUSOID_HARD_HI
    return (
        _batched("hard_band", lambda c: (c["x"] < lo) | (c["x"] > hi),
                 lambda c: np.maximum(0.0, np.minimum(c["x"] - lo, hi - c["x"]))),
        _batched("soft_tail", lambda c: c["x"] <= hi, lambda c: np.maximum(0.0, c["x"] - hi),
                 beta=lambda c: sinusoid_soft_beta(c["x"])),
    )


# evaluators and constraint sets are addressable by name so config files can
# mix a custom space with a built-in objective or constraint bundle
EVALUATORS = {
    "binh-korn": (_binh_korn_evaluator, ("q1", "q2")),
    "constr-ex": (_constr_ex_evaluator, ("q1", "q2")),
    "sinusoid-1d": (_sinusoid_evaluator, ("q",)),
}

CONSTRAINT_SETS = {
    "binh-korn": binh_korn_constraints,
    "constr-ex": constr_ex_constraints,
    "sinusoid-1d": sinusoid_constraints,
    "none": tuple,
}


def _builtin(name: str, *params: ContinuousParam) -> Problem:
    """The built-in problem over params; the tables above give the rest."""
    evaluator, objective_names = EVALUATORS[name]
    return Problem(
        SearchSpace(params), evaluator, objective_names, CONSTRAINT_SETS[name](), name=name
    )


def binh_korn_problem() -> Problem:
    return _builtin("binh-korn", ContinuousParam("x", 0.0, 5.0), ContinuousParam("y", 0.0, 3.0))


def constr_ex_problem() -> Problem:
    return _builtin("constr-ex", ContinuousParam("x", 0.1, 1.0), ContinuousParam("y", 0.0, 5.0))


def sinusoid_problem() -> Problem:
    """Single objective with a hard-excluded band and a softly penalized tail."""
    return _builtin("sinusoid-1d", ContinuousParam("x", 0.0, 1.2))


BUILTIN_PROBLEMS = {
    "binh-korn": binh_korn_problem,
    "constr-ex": constr_ex_problem,
    "sinusoid-1d": sinusoid_problem,
}


def get_problem(name: str) -> Problem:
    try:
        return BUILTIN_PROBLEMS[name]()
    except KeyError:
        raise BenchmarkConfigError(
            f"unknown problem {name!r}; built-ins: {', '.join(sorted(BUILTIN_PROBLEMS))}"
        ) from None


def feasible_grid_objectives(problem: Problem, resolution: int) -> np.ndarray:
    """Objective vectors of every feasible point on a resolution^2 grid."""
    params = problem.space.params
    if len(params) != 2 or not all(isinstance(p, ContinuousParam) for p in params):
        raise BenchmarkConfigError("grid fronts require a 2-D continuous space")
    px, py = params
    xs = np.repeat(np.linspace(px.lo, px.hi, resolution), resolution)
    ys = np.tile(np.linspace(py.lo, py.hi, resolution), resolution)

    def points(keep=slice(None)) -> list[Candidate]:
        return [Candidate({px.name: a, py.name: b})
                for a, b in zip(xs[keep].tolist(), ys[keep].tolist())]

    grid = Batch(xs.size, lambda: {px.name: xs, py.name: ys}, points)
    rows = [problem.evaluator(c) for c in points(all_satisfied(problem.constraints, grid))]
    if not rows:
        raise BenchmarkConfigError(
            f"no feasible point on a {resolution}x{resolution} grid of {problem.name!r}"
        )
    return np.asarray(rows, dtype=float)


def grid_reference_front(problem: Problem, resolution: int) -> np.ndarray:
    """Non-dominated objective vectors of the feasible grid, sorted by q1.

    Uses the two-objective sweep (sort by q1 then keep strictly improving q2)
    rather than the engine's generic front code, so it can serve as an
    independent reference for front-quality checks.
    """
    points = feasible_grid_objectives(problem, resolution)
    order = np.lexsort((points[:, 1], points[:, 0]))
    front = []
    best_q2 = math.inf
    for i in order:
        if points[i, 1] < best_q2:
            front.append(points[i])
            best_q2 = points[i, 1]
    return np.asarray(front)
