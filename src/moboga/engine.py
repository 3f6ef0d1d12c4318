"""The optimization loop: explore the space, then exploit the archive.

Each exploration iteration fits one GP per objective on everything observed so
far and runs NSGA-II over the (negated) constraint-aware expected-improvement
vector: one ``ca_ei`` call scores a whole GA population's rows, building a
candidate only for an unbatched constraint. The GA's seed is one draw from the
run's generator, made before the query is picked. The first proposal of a run
fits its GPs cold; every later one passes the previous proposal's models back
in. The hyperparameters are searched again only once the archive reaches a
search size (``next_search_size``: every size up to 20, then sizes about 10%
apart) above the size those models were fitted at; that evidence search starts
from the models' hyperparameters. In between, each objective keeps its length
scales and signal variance, and its model's Cholesky factor is bordered by the
one new point: one O(n^2) row instead of a search. The non-dominated rows of
the final GA population are the informative pool: decoded once to candidates,
and encoded once as rows. Every point enters the archive through one admission
rule: a candidate is admitted when it meets every hard constraint and sits more
than ``DUPLICATE_TOL`` from every point already in the archive or admitted
before it. The initial design applies it too; only its given candidates skip
the hard check. Every drawn point comes from ``_fresh``, the hard-feasible ones
of k uniform draws in draw order. TOPSIS orders the pool best-first by its raw
acquisition values (``topsis_rank`` scales its own columns), and the first
admitted member is the one query of the proposal; when none is admitted, the
first admitted one of up to 1000 fresh draws is. The query keeps the encoding
it was admitted with: the stop rule measures it and the archive stores it.
``explore`` asks, evaluates and records every query in one loop, the initial
design's members first; each pick is made once the query before it is
archived, or dropped if its evaluation failed. Exploration ends when the query
sits within ``delta`` of something already queried (in encoded space) or when
the evaluation budget is exhausted. Exploitation extracts the Pareto front of
the feasible observations and recommends one of them via TOPSIS.

Acquisition values are larger-is-better, so they are negated on the way into
the GA and the domination test, and fed un-negated (benefit direction) into
TOPSIS. That sign bridge lives here and nowhere else.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .acquisition import ca_ei
from .nsga2 import GaConfig, nsga2_run
from .objectives import (
    ConstraintSpec,
    EvaluationError,
    Problem,
    all_satisfied,
    evaluate_candidate,
)
from .pareto import pareto_front
from .space import Candidate, SearchSpace, decode, encode, sample_uniform
from .surrogate import GpModel, gp_fit
from .topsis import COST, BENEFIT, check_weights, topsis_rank

STOP_THRESHOLD = "stop_threshold"
MAX_ITERATIONS = "max_iterations"

# Encodings this close count as the same point: decode/encode round-tripping
# of a genome that sits on an archived candidate leaves float-noise residue.
DUPLICATE_TOL = 1e-12


def next_search_size(n: int) -> int:
    """The smallest archive size above n at which the GP hyperparameters are
    searched: the sizes are 1, then s + max(1, s // 10), so 1-20, 22, 24, ...
    (about 10% apart once past 20)."""
    s = 1
    while s <= n:
        s += max(1, s // 10)
    return s


class _Rows:
    """Float rows appended one at a time to a buffer that doubles when full."""

    def __init__(self, rows: np.ndarray | None = None) -> None:
        self._buf = None if rows is None else np.array(rows, dtype=float)
        self._n = 0 if rows is None else len(self._buf)

    def append(self, row: np.ndarray) -> None:
        if self._buf is None:
            self._buf = np.empty((8, np.size(row)))
        elif self._n == len(self._buf):
            grown = np.empty((max(8, 2 * self._n), self._buf.shape[1]))
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = row
        self._n += 1

    def filled(self) -> np.ndarray:
        """A copy of the rows appended so far."""
        return np.empty((0, 0)) if self._buf is None else self._buf[: self._n].copy()

    def min_distance(self, enc: np.ndarray) -> float:
        """Smallest Euclidean distance from enc to any row (inf if none).

        The duplicate test (``<= DUPLICATE_TOL``) and the stop rule (``<=
        delta``) are both thresholds on this one number.
        """
        if self._n == 0:
            return math.inf
        return float(np.linalg.norm(self._buf[: self._n] - enc, axis=1).min())


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
        self._encoded = _Rows()
        self._objectives = _Rows()

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
        self._encoded.append(obs.encoded)
        self._objectives.append(obs.objectives)

    def encoded_matrix(self) -> np.ndarray:
        return self._encoded.filled()

    def objective_matrix(self) -> np.ndarray:
        return self._objectives.filled()

    def feasible_indices(self) -> list[int]:
        return [i for i, o in enumerate(self.observations) if o.feasible]

    def min_distance(self, enc: np.ndarray) -> float:
        """Encoded distance from enc to the nearest archived point (inf if empty)."""
        return self._encoded.min_distance(enc)


NextPick = Union[str, Callable[[list[tuple[Candidate, np.ndarray]]], int]]


@dataclass
class EngineConfig:
    n_initial: int = 8
    max_iterations: int = 50       # total evaluation budget, initial design included
    delta: float = 1e-3            # stop threshold in encoded space
    ga: GaConfig = field(default_factory=GaConfig)
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if isinstance(self.next_pick, str) and self.next_pick != "topsis":
            raise ValueError("next_pick must be 'topsis' or a callable")


@dataclass(frozen=True)
class Proposal:
    picked: tuple[Candidate, np.ndarray]  # the query with its admission encoding
    pm: list[tuple[Candidate, np.ndarray]]  # informative pool with acquisition vectors
    models: tuple[GpModel, ...]             # the fitted surrogate of each objective


@dataclass(frozen=True)
class RunResult:
    archive: Archive
    pof: list[int]                 # archive indices of the measured Pareto front
    best_index: int
    closeness: dict[int, float]    # TOPSIS closeness per front member


def _admitted(
    pairs: Iterable[tuple[Candidate, np.ndarray]],
    hard: Sequence[ConstraintSpec],
    seen: _Rows,
) -> Iterator[tuple[Candidate, np.ndarray]]:
    """The (candidate, encoding) pairs that pass the admission rule against
    seen, lazily and in order; each admitted encoding joins seen."""
    for cand, enc in pairs:
        if (not hard or all_satisfied(hard, cand)) and seen.min_distance(enc) > DUPLICATE_TOL:
            seen.append(enc)
            yield cand, enc


def _fresh(
    space: SearchSpace, hard: Sequence[ConstraintSpec], rng: np.random.Generator, k: int
) -> Iterator[tuple[Candidate, np.ndarray]]:
    """The hard-feasible ones of k uniform draws, lazily, each with its encoding."""
    for _ in range(k):
        cand = sample_uniform(space, rng)
        if not hard or all_satisfied(hard, cand):
            yield cand, encode(space, cand)


def propose_next(
    archive: Archive,
    problem: Problem,
    cfg: EngineConfig,
    rng: np.random.Generator,
    warm: Sequence[GpModel] | None = None,
) -> Proposal:
    """Fit surrogates, search the acquisition vector, and pick the next query.

    ``warm`` holds the previous proposal's models, one per objective. When
    the archive has reached a search size (``next_search_size``) since the
    archive those models were fitted on, each objective's evidence search
    starts from that model's hyperparameters. Otherwise each objective keeps
    the model's length scales and signal variance at the default noise
    (``gp_fit(..., keep=model)``): its factor is bordered by the one new
    point, or refactored when the model needed jitter, which is not carried
    over. Without ``warm`` the search starts cold.
    """
    if len(archive) < 1:
        raise EngineError("propose_next needs at least one archived observation")
    if warm is not None and len(warm) != problem.n_objectives:
        raise EngineError(
            f"warm start has {len(warm)} models for {problem.n_objectives} objectives"
        )

    space = problem.space
    X = archive.encoded_matrix()
    targets = archive.objective_matrix()
    if warm is None or next_search_size(len(warm[0].train_inputs)) <= len(archive):
        models = tuple(
            gp_fit(X, targets[:, j], start=None if warm is None else warm[j].hyper)
            for j in range(problem.n_objectives)
        )
    else:
        models = tuple(gp_fit(X, targets[:, j], keep=m) for j, m in enumerate(warm))
    y_best = targets[archive.feasible_indices() or slice(None)].min(axis=0)

    def score_fn(genomes: np.ndarray) -> np.ndarray:
        return -ca_ei(models, y_best, problem.constraints, space, genomes)

    genomes, scores, part = nsga2_run(score_fn, cfg.ga, space, int(rng.integers(2**32)))
    front0 = genomes[part.fronts[0]]
    pm = list(zip(decode(space, front0), -scores[part.fronts[0]]))
    pool_enc = encode(space, front0)

    # the pool best-first, then (lazily, only if no member is admitted) fresh draws
    hard, seen = problem.hard_constraints, _Rows(X)
    ordered = ((pm[i][0], pool_enc[i]) for i in _rank_pool(pm, cfg.next_pick))
    picked = next(chain(_admitted(ordered, hard, seen),
                        _admitted(_fresh(space, hard, rng, 1000), (), seen)), None)
    if picked is None:
        raise EngineError(
            "could not draw a fresh hard-feasible candidate; the feasible region "
            "may be empty or fully explored"
        )
    return Proposal(picked=picked, pm=pm, models=models)


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
    result = topsis_rank(acq, (BENEFIT,) * acq.shape[1])
    return [int(i) for i in result.ranking]


def stop_check(archive: Archive, enc: np.ndarray, delta: float) -> bool:
    """Stop when the encoded query enc sits within delta of the archive."""
    if len(archive) == 0:
        raise EngineError("stop_check needs a non-empty archive")
    return archive.min_distance(enc) <= delta


def _initial_design(
    problem: Problem,
    cfg: EngineConfig,
    rng: np.random.Generator,
    initial_candidates: Sequence[Candidate] | None,
) -> list[tuple[Candidate, np.ndarray]]:
    """The first ``n_initial`` admitted candidates, each with its encoding.

    The given candidates come first and skip only the hard check (every one of
    them is validated). Up to ``100 * n_initial`` fresh draws follow, each one
    hard-feasible; when they run out first, the design raises ``EngineError``
    before any point is evaluated.
    """
    space = problem.space
    attempts = 100 * cfg.n_initial
    given = list(initial_candidates or [])
    pairs = chain(zip(given, encode(space, given)) if given else (),
                  _fresh(space, problem.hard_constraints, rng, attempts))
    chosen = list(islice(_admitted(pairs, (), _Rows()), cfg.n_initial))
    if len(chosen) < cfg.n_initial:
        raise EngineError(
            f"initialization exhausted {attempts} draws without collecting {cfg.n_initial} "
            "distinct candidates; pass initial candidates that meet the hard constraints"
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

    def queries() -> Iterator[tuple[Candidate, np.ndarray, int]]:
        """The initial design at iteration 0, then one pick per proposal."""
        yield from ((c, e, 0) for c, e in _initial_design(problem, cfg, rng, initial_candidates))
        if len(archive) == 0:
            raise EngineError("every initial candidate failed evaluation")
        iteration = 0
        warm: tuple[GpModel, ...] | None = None  # the first proposal fits cold
        while len(archive) < cfg.max_iterations:
            iteration += 1
            proposal = propose_next(archive, problem, cfg, rng, warm=warm)
            warm, (cand, enc) = proposal.models, proposal.picked
            if stop_check(archive, enc, cfg.delta):
                archive.stop_reason = STOP_THRESHOLD
                return
            yield cand, enc, iteration

    failures = 0  # failed proposals in a row
    for cand, enc, iteration in queries():
        try:
            q = evaluate_candidate(problem, cand)
        except EvaluationError:  # invalid candidate: excluded rather than archived
            failures += iteration > 0  # a failed initial design member is only dropped
        else:
            failures = 0
            obs = Observation(cand, q, all_satisfied(problem.constraints, cand), iteration, enc)
            archive.append(obs)
            if on_observation is not None:
                on_observation(obs)
        if failures > 10:
            raise EngineError("too many consecutive evaluation failures")
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

    result = topsis_rank(q[local_front], (COST,) * q.shape[1], weights)
    return RunResult(
        archive=archive,
        pof=pof,
        best_index=pof[int(result.ranking[0])],
        closeness={pof[i]: float(result.closeness[i]) for i in range(len(pof))},
    )


def run(
    problem: Problem,
    cfg: EngineConfig,
    weights: Sequence[float] | None = None,
    initial_candidates: Sequence[Candidate] | None = None,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> RunResult:
    """Explore then exploit: the full loop from problem to recommendation."""
    if weights is not None:  # exploit's weight rule, checked before any evaluation
        check_weights(weights, problem.n_objectives)
    archive = explore(problem, cfg, initial_candidates, on_observation)
    return exploit(archive, weights)
