"""The optimization loop: explore the space, then exploit the archive.

Each exploration iteration fits one GP per objective on everything observed so
far and runs NSGA-II over the (negated) constraint-aware expected-improvement
vector, which ``ca_ei`` scores for a whole GA population in one call. The
non-dominated set of the final GA population is the informative-candidate
pool; TOPSIS picks the next query from it. Exploration ends when the proposed
point sits within ``delta`` of something already queried (in encoded space) or
when the evaluation budget is exhausted. Exploitation extracts the Pareto front
of the feasible observations and recommends one of them via TOPSIS.

Acquisition values are larger-is-better, so they are negated on the way into
the GA and the domination test, and fed un-negated (benefit direction) into
TOPSIS. That sign bridge lives here and nowhere else.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .acquisition import ca_ei
from .nsga2 import GaConfig, nsga2_run
from .objectives import (
    EvaluationError,
    Problem,
    all_satisfied,
    evaluate_candidate,
    total_violation,
)
from .pareto import pareto_front
from .space import Candidate, SearchSpace, decode, encode, sample_uniform, validate_candidate
from .surrogate import gp_fit
from .topsis import COST, BENEFIT, DecisionMatrix, topsis_rank

STOP_THRESHOLD = "stop_threshold"
MAX_ITERATIONS = "max_iterations"

# Encodings this close count as the same point: decode/encode round-tripping
# of a genome that sits on an archived candidate leaves float-noise residue.
DUPLICATE_TOL = 1e-12


def _min_distance(encodings, enc: np.ndarray) -> float:
    """Smallest Euclidean distance from enc to any row of encodings (inf if none).

    The duplicate test (``<= DUPLICATE_TOL``) and the stop rule (``<= delta``)
    are both thresholds on this one number.
    """
    if len(encodings) == 0:
        return math.inf
    return float(np.linalg.norm(np.asarray(encodings) - enc, axis=1).min())


class EngineError(RuntimeError):
    pass


class NoFeasibleResultError(EngineError):
    """Exploitation was asked for a result but no feasible observation exists."""


@dataclass(frozen=True)
class Observation:
    candidate: Candidate
    objectives: np.ndarray
    feasible: bool
    iteration: int
    encoded: np.ndarray


class Archive:
    """Ordered record of every evaluated (candidate, objectives) pair."""

    def __init__(self) -> None:
        self.observations: list[Observation] = []
        self.stop_reason: str = MAX_ITERATIONS
        self.iterations_used: int = 0

    def __len__(self) -> int:
        return len(self.observations)

    def append(self, obs: Observation) -> None:
        if self.observations and obs.iteration < self.observations[-1].iteration:
            raise EngineError("observation iterations must be non-decreasing")
        if self.min_distance(obs.encoded) <= DUPLICATE_TOL:
            raise EngineError(
                f"duplicate observation: encoding {obs.encoded} already archived"
            )
        self.observations.append(obs)

    def encoded_matrix(self) -> np.ndarray:
        return np.vstack([o.encoded for o in self.observations])

    def objective_matrix(self) -> np.ndarray:
        return np.vstack([o.objectives for o in self.observations])

    def feasible_indices(self) -> list[int]:
        return [i for i, o in enumerate(self.observations) if o.feasible]

    def min_distance(self, enc: np.ndarray) -> float:
        """Encoded distance from enc to the nearest archived point (inf if empty)."""
        return _min_distance([o.encoded for o in self.observations], enc)


NextPick = Union[str, Callable[[list[tuple[Candidate, np.ndarray]]], int]]


@dataclass
class EngineConfig:
    n_initial: int = 8
    max_iterations: int = 50       # total evaluation budget, initial design included
    delta: float = 1e-3            # stop threshold in encoded space
    ga: GaConfig = field(default_factory=lambda: GaConfig(population_size=60, generations=30))
    next_pick: NextPick = "topsis"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if self.max_iterations < self.n_initial:
            raise ValueError(
                f"max_iterations ({self.max_iterations}) must cover the "
                f"initial design ({self.n_initial})"
            )
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if isinstance(self.next_pick, str) and self.next_pick not in ("topsis", "all"):
            raise ValueError("next_pick must be 'topsis', 'all', or a callable")


@dataclass(frozen=True)
class Proposal:
    picked: list[Candidate]
    pm: list[tuple[Candidate, np.ndarray]]  # informative pool with acquisition vectors


@dataclass(frozen=True)
class RunResult:
    archive: Archive
    pof: list[int]                 # archive indices of the measured Pareto front
    best_index: int
    closeness: dict[int, float]    # TOPSIS closeness per front member
    stop_reason: str
    iterations_used: int


def _uniform_hard_feasible(
    problem: Problem, archive: Archive, rng: np.random.Generator, attempts: int = 1000
) -> Candidate:
    for _ in range(attempts):
        cand = sample_uniform(problem.space, rng)
        if not all_satisfied(problem.hard_constraints, cand):
            continue
        if archive.min_distance(encode(problem.space, cand)) > DUPLICATE_TOL:
            return cand
    raise EngineError(
        "could not draw a fresh hard-feasible candidate; the feasible region "
        "may be empty or fully explored"
    )


def propose_next(
    archive: Archive,
    problem: Problem,
    cfg: EngineConfig,
    rng: np.random.Generator,
) -> Proposal:
    """Fit surrogates, search the acquisition vector, and pick the next query."""
    if len(archive) < 1:
        raise EngineError("propose_next needs at least one archived observation")

    space = problem.space
    X = archive.encoded_matrix()
    targets = archive.objective_matrix()
    models = [gp_fit(X, targets[:, j]) for j in range(problem.n_objectives)]
    y_best = targets[archive.feasible_indices() or slice(None)].min(axis=0)

    def score_fn(genomes: np.ndarray) -> np.ndarray:
        cands = [decode(space, g) for g in genomes]
        return -ca_ei(models, y_best, problem.constraints, space, cands)

    ga_cfg = dataclasses.replace(cfg.ga, seed=int(rng.integers(2**32)))
    genomes, scores, part = nsga2_run(score_fn, ga_cfg, space)
    pm = [(decode(space, genomes[i]), -scores[i]) for i in part.fronts[0]]

    ordered = _rank_pool(pm, cfg.next_pick)
    fresh: list[Candidate] = []
    # picks join the archived encodings: the pool may carry duplicate genomes
    seen = list(X)
    for i in ordered:
        cand = pm[i][0]
        if not all_satisfied(problem.hard_constraints, cand):
            continue
        enc = encode(space, cand)
        if _min_distance(seen, enc) <= DUPLICATE_TOL:
            continue
        fresh.append(cand)
        seen.append(enc)
    if isinstance(cfg.next_pick, str) and cfg.next_pick == "all":
        picked = fresh
    else:
        picked = fresh[:1]
    if not picked:
        picked = [_uniform_hard_feasible(problem, archive, rng)]
    return Proposal(picked=picked, pm=pm)


def _rank_pool(pm: list[tuple[Candidate, np.ndarray]], next_pick: NextPick) -> list[int]:
    """Order the informative pool best-first (TOPSIS, benefit direction)."""
    if callable(next_pick):
        raw = next_pick(pm)
        try:
            idx = operator.index(raw)
        except TypeError:
            idx = -1
        if not 0 <= idx < len(pm):
            raise EngineError(
                f"next_pick returned {raw!r}; expected an integer index in [0, {len(pm)})"
            )
        rest = [i for i in range(len(pm)) if i != idx]
        return [idx] + rest
    acq = np.vstack([vec for _, vec in pm])
    keep = [j for j in range(acq.shape[1]) if np.any(acq[:, j] != 0.0)]
    if not keep:
        # every acquisition value is zero: nothing to rank on
        return list(range(len(pm)))
    # closeness is invariant under positive column scaling, and rescaling by
    # the column maximum keeps near-underflow acquisition values normalizable
    matrix = acq[:, keep] / acq[:, keep].max(axis=0)
    weights = np.full(len(keep), 1.0 / len(keep))
    result = topsis_rank(DecisionMatrix(matrix, weights, (BENEFIT,) * len(keep)))
    return [int(i) for i in result.ranking]


def stop_check(
    archive: Archive, nxt: Candidate, delta: float, space: SearchSpace
) -> bool:
    """Stop when the minimum encoded distance to the archive drops to delta."""
    if len(archive) == 0:
        raise EngineError("stop_check needs a non-empty archive")
    return archive.min_distance(encode(space, nxt)) <= delta


def _initial_design(
    problem: Problem,
    cfg: EngineConfig,
    rng: np.random.Generator,
    initial_candidates: Sequence[Candidate] | None,
) -> list[Candidate]:
    """Uniform draws, rejecting hard-infeasible and duplicate ones.

    If the rejection budget runs out the least-violating draws fill the
    remainder, so callers on mostly-infeasible spaces still get a design.
    """
    chosen: list[Candidate] = []
    encodings: list[np.ndarray] = []

    def admit(cand: Candidate) -> bool:
        enc = encode(problem.space, cand)
        if _min_distance(encodings, enc) <= DUPLICATE_TOL:
            return False
        chosen.append(cand)
        encodings.append(enc)
        return True

    for cand in initial_candidates or []:
        validate_candidate(problem.space, cand)
        if len(chosen) < cfg.n_initial:
            admit(cand)

    hard = problem.hard_constraints
    rejected: list[tuple[float, int, Candidate]] = []
    attempts = 100 * cfg.n_initial
    for attempt in range(attempts):
        if len(chosen) >= cfg.n_initial:
            break
        cand = sample_uniform(problem.space, rng)
        if all_satisfied(hard, cand):
            admit(cand)
        else:
            rejected.append((total_violation(hard, cand), attempt, cand))
    if len(chosen) < cfg.n_initial:
        for _, _, cand in sorted(rejected, key=lambda t: (t[0], t[1])):
            if len(chosen) >= cfg.n_initial:
                break
            admit(cand)
    if len(chosen) < cfg.n_initial:
        raise EngineError(
            f"initialization exhausted {attempts} draws without collecting "
            f"{cfg.n_initial} distinct candidates"
        )
    return chosen


def explore(
    problem: Problem,
    cfg: EngineConfig,
    initial_candidates: Sequence[Candidate] | None = None,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> Archive:
    """Run the exploration phase and return the archive of observations.

    ``on_observation`` fires as each observation lands so callers can persist
    incrementally; interrupted runs then leave a readable prefix.
    """
    rng = np.random.default_rng(cfg.seed)
    archive = Archive()

    def record(cand: Candidate, iteration: int) -> bool:
        try:
            q = evaluate_candidate(problem, cand)
        except EvaluationError:
            return False  # invalid candidate: excluded rather than archived
        obs = Observation(
            candidate=cand,
            objectives=q,
            feasible=all_satisfied(problem.constraints, cand),
            iteration=iteration,
            encoded=encode(problem.space, cand),
        )
        archive.append(obs)
        if on_observation is not None:
            on_observation(obs)
        return True

    failures = 0
    for cand in _initial_design(problem, cfg, rng, initial_candidates):
        if not record(cand, 0):
            failures += 1
    if len(archive) == 0:
        raise EngineError("every initial candidate failed evaluation")

    iteration = 0
    stop_reason = MAX_ITERATIONS
    while len(archive) < cfg.max_iterations:
        iteration += 1
        proposal = propose_next(archive, problem, cfg, rng)
        if any(stop_check(archive, c, cfg.delta, problem.space) for c in proposal.picked):
            stop_reason = STOP_THRESHOLD
            break
        progressed = False
        for cand in proposal.picked:
            if len(archive) >= cfg.max_iterations:
                break
            progressed |= record(cand, iteration)
        if not progressed:
            failures += 1
            if failures > 10:
                raise EngineError("too many consecutive evaluation failures")
        else:
            failures = 0

    archive.stop_reason = stop_reason
    archive.iterations_used = len(archive)
    return archive


def exploit(
    archive: Archive, weights: Sequence[float] | None = None
) -> RunResult:
    """Extract the measured Pareto front of the feasible observations and the
    TOPSIS-recommended best candidate (all objectives enter as costs)."""
    feasible = archive.feasible_indices()
    if not feasible:
        raise NoFeasibleResultError("no feasible observation to exploit")

    q = archive.objective_matrix()[feasible]
    local_front = pareto_front(q)
    pof = [feasible[i] for i in local_front]

    if len(pof) == 1:
        closeness = {pof[0]: 0.5}
        best = pof[0]
    else:
        front_scores = q[local_front]
        k = front_scores.shape[1]
        w = np.asarray(weights, dtype=float) if weights is not None else np.full(k, 1.0 / k)
        result = topsis_rank(DecisionMatrix(front_scores, w, (COST,) * k))
        closeness = {pof[i]: float(result.closeness[i]) for i in range(len(pof))}
        best = pof[int(result.ranking[0])]

    return RunResult(
        archive=archive,
        pof=pof,
        best_index=best,
        closeness=closeness,
        stop_reason=archive.stop_reason,
        iterations_used=archive.iterations_used or len(archive),
    )


def run(
    problem: Problem,
    cfg: EngineConfig,
    weights: Sequence[float] | None = None,
    initial_candidates: Sequence[Candidate] | None = None,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> RunResult:
    """Explore then exploit: the full loop from problem to recommendation."""
    archive = explore(problem, cfg, initial_candidates, on_observation)
    return exploit(archive, weights)
