"""Problem definition: objectives, hard/soft constraints, and the evaluator boundary.

All objectives are minimized. Constraints come as boolean predicates over
candidates; a hard constraint zeroes the acquisition wherever it is violated
while a soft one only scales it down by a penalty factor beta(x) in [0, 1).
A hard constraint is exactly a soft one with beta identically zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .space import Candidate, SearchSpace


class EvaluationError(RuntimeError):
    """An evaluator or constraint predicate failed or returned garbage."""


@dataclass(frozen=True)
class ConstraintSpec:
    """A named predicate with hard (beta=None) or soft enforcement.

    ``beta`` maps a violating candidate to a penalty factor in [0, 1).
    ``violation`` optionally measures by how much the candidate misses the
    constraint (0 when satisfied); only ``total_violation`` consumes it, for
    the genetic-algorithm benchmark runner's death penalty and the
    initialization tie-break.
    """

    name: str
    predicate: Callable[[Candidate], bool]
    beta: Optional[Callable[[Candidate], float]] = None
    violation: Optional[Callable[[Candidate], float]] = None

    @property
    def is_hard(self) -> bool:
        return self.beta is None


def constraint_indicator(c: ConstraintSpec, x: Candidate) -> int:
    """1 if the constraint holds at x, else 0."""
    try:
        ok = bool(c.predicate(x))
    except Exception as exc:
        raise EvaluationError(f"constraint {c.name!r} failed at {x.values}: {exc}") from exc
    return 1 if ok else 0


def soft_factor(c: ConstraintSpec, x: Candidate) -> float:
    """Multiplicative acquisition factor: 1 when satisfied, beta(x) or 0 otherwise."""
    if constraint_indicator(c, x):
        return 1.0
    if c.beta is None:
        return 0.0
    b = float(c.beta(x))
    if not (0.0 <= b < 1.0):
        raise EvaluationError(
            f"constraint {c.name!r}: beta(x) = {b} outside [0, 1)"
        )
    return b


def all_satisfied(constraints: Sequence[ConstraintSpec], x: Candidate) -> bool:
    return all(constraint_indicator(c, x) for c in constraints)


def total_violation(constraints: Sequence[ConstraintSpec], x: Candidate) -> float:
    """Summed violation of the constraints x misses (1 each where unmeasured)."""
    return sum(
        c.violation(x) if c.violation is not None else 1.0
        for c in constraints
        if not constraint_indicator(c, x)
    )


# An evaluator measures all objectives for one candidate. It may be expensive;
# the engine treats it as an opaque black box.
Evaluator = Callable[[Candidate], Sequence[float]]


@dataclass(frozen=True)
class Problem:
    """A full optimization problem: space, evaluator, objectives, constraints."""

    space: SearchSpace
    evaluator: Evaluator
    objective_names: tuple[str, ...]
    constraints: tuple[ConstraintSpec, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective_names", tuple(self.objective_names))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.objective_names:
            raise ValueError("at least one objective is required")
        if len(set(self.objective_names)) != len(self.objective_names):
            raise ValueError("objective names must be unique")

    @property
    def n_objectives(self) -> int:
        return len(self.objective_names)

    @property
    def hard_constraints(self) -> tuple[ConstraintSpec, ...]:
        return tuple(c for c in self.constraints if c.is_hard)


def evaluate_candidate(problem: Problem, x: Candidate) -> np.ndarray:
    """Run the evaluator and validate the measured objective vector.

    Non-finite entries mark the candidate as invalid: it must never enter the
    archive (a sentinel value would poison the surrogates), so we raise.
    """
    try:
        raw = problem.evaluator(x)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"evaluator failed at {x.values}: {exc}") from exc
    q = np.asarray(raw, dtype=float).reshape(-1)
    if q.shape != (problem.n_objectives,):
        raise EvaluationError(
            f"evaluator returned {q.shape[0]} objectives, expected {problem.n_objectives}"
        )
    if not np.all(np.isfinite(q)):
        raise EvaluationError(f"evaluator returned non-finite objectives {q} at {x.values}")
    return q
