"""Problem definition: objectives, hard/soft constraints, and the evaluator boundary.

All objectives are minimized. Constraints come as boolean predicates over
candidates; a hard constraint zeroes the acquisition wherever it is violated
while a soft one only scales it down by a penalty factor beta(x) in [0, 1).
A hard constraint is exactly a soft one with beta identically zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .space import Candidate, SearchSpace


class EvaluationError(RuntimeError):
    """An evaluator or constraint predicate failed or returned garbage."""


@dataclass(frozen=True)
class ConstraintSpec:
    """A named predicate with hard (beta=None) or soft enforcement.

    ``beta`` maps a violating candidate to a penalty factor in [0, 1); the
    optional ``violation`` maps it to how far it misses (read by
    ``total_violation`` only). ``batched=True`` marks all three as mapping
    parameter columns (name -> (m,) array, as ``space.columns``) to (m,) arrays.
    """

    name: str
    predicate: Callable[[Candidate], bool]
    beta: Optional[Callable[[Candidate], float]] = None
    violation: Optional[Callable[[Candidate], float]] = None
    batched: bool = False

    @property
    def is_hard(self) -> bool:
        return self.beta is None


class Batch:
    """m points as the constraint functions read them: ``columns`` (name ->
    (m,) array) for batched constraints, ``candidates`` for the others; each
    is built by the function given for it, on first use."""

    def __init__(self, size: int, columns: Callable[[], Mapping[str, np.ndarray]],
                 candidates: Callable[[], Sequence[Candidate]]):
        self.size, self._columns, self._candidates = size, columns, candidates

    columns = cached_property(lambda self: self._columns())
    candidates = cached_property(lambda self: self._candidates())

    @classmethod
    def of(cls, cands: Sequence[Candidate]) -> Batch:
        return cls(len(cands), lambda: {
            n: np.array([x[n] for x in cands], dtype=object if isinstance(v, str) else None)
            for n, v in cands[0].values.items()}, lambda: cands)


def _call(c: ConstraintSpec, fn: Callable, b: Batch, at: np.ndarray, kind: type) -> np.ndarray:
    """fn (c's predicate, beta or violation) at rows at of b, as a kind array: one
    call over the columns if c is batched, else one per candidate (the only such loop)."""
    if c.batched and len(at):
        try:
            out = np.asarray(fn(b.columns), dtype=kind)
        except Exception as exc:
            raise EvaluationError(f"constraint {c.name!r} failed: {exc}") from exc
        if out.shape != (b.size,):
            raise EvaluationError(f"constraint {c.name!r} gave shape {out.shape}, not ({b.size},)")
        return out[at]
    out = np.empty(len(at), dtype=kind)
    for j, i in enumerate(at.tolist()):
        x = b.candidates[i]
        try:
            out[j] = kind(fn(x))
        except Exception as exc:
            raise EvaluationError(f"constraint {c.name!r} failed at {x.values}: {exc}") from exc
    return out


def soft_factor(c: ConstraintSpec, x: Union[Candidate, Batch], at: Optional[np.ndarray] = None):
    """Acquisition factor: 1 where c holds, else beta (called only there) or 0;
    a float for a candidate, an array over the rows at (default all) of a batch."""
    b = Batch.of([x]) if isinstance(x, Candidate) else x
    at = np.arange(b.size) if at is None else at
    ok = _call(c, c.predicate, b, at, bool)
    f, bad = ok.astype(float), (~ok).nonzero()[0]
    if c.beta is not None and bad.size:
        f[bad] = beta = _call(c, c.beta, b, at[bad], float)
        wrong = beta[~((0.0 <= beta) & (beta < 1.0))]
        if wrong.size:
            raise EvaluationError(f"constraint {c.name!r}: beta(x) = {wrong[0]} outside [0, 1)")
    return f[0].item() if isinstance(x, Candidate) else f


def all_satisfied(constraints: Sequence[ConstraintSpec], x: Union[Candidate, Batch]):
    """Whether every constraint holds: a bool for a candidate, an array for a
    batch. Once one predicate fails at a point, no later one is called there."""
    b = Batch.of([x]) if isinstance(x, Candidate) else x
    ok = np.ones(b.size, dtype=bool)
    for c in constraints:
        at = ok.nonzero()[0]
        ok[at] = _call(c, c.predicate, b, at, bool)
    return ok[0].item() if isinstance(x, Candidate) else ok


def total_violation(constraints: Sequence[ConstraintSpec], x: Union[Candidate, Batch]):
    """Summed violation of the constraints missed (1 each where unmeasured):
    a float for a candidate, an array for a batch."""
    b = Batch.of([x]) if isinstance(x, Candidate) else x
    total, every = np.zeros(b.size), np.arange(b.size)
    for c in constraints:
        bad = (~_call(c, c.predicate, b, every, bool)).nonzero()[0]
        total[bad] += 1.0 if c.violation is None else _call(c, c.violation, b, bad, float)
    return total[0].item() if isinstance(x, Candidate) else total


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
