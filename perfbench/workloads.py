"""The benchmark's workloads: problems, engine settings, oracles and checks.

Each workload is one problem run through the public API at a fixed budget.
The engine seed of every repeat is drawn from the benchmark's ``--seed``;
nothing else varies between seeds.

* ``binh-korn`` is the paper's reference study with ``moboga verify``'s GA
  and duplicate-floor ``delta``. Its archive stays small, so proposal time is
  NSGA-II plus per-genome acquisition.
* ``mixed-soft`` is defined here: a 12-wide mixed encoding, three objectives
  and soft constraints that never short-circuit the acquisition, so every
  genome pays the full decode, every constraint callable and three GP
  posteriors, and sorting runs with k = 3.
* ``deep-archive`` is ``constr-ex`` behind a 150-point initial design with a
  tiny GA, so the GP fit at n ~ 160 dominates each proposal and the quadratic
  duplicate scans run at their largest n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from moboga import (
    CategoricalParam,
    ConstraintSpec,
    ContinuousParam,
    DiscreteParam,
    EngineConfig,
    GaConfig,
    Problem,
    SearchSpace,
    binh_korn_problem,
    constr_ex_problem,
)
from moboga.problems import grid_reference_front

from hv import nondominated

# ---------------------------------------------------------------------------
# mixed-soft: 3 continuous, 2 discrete, 2 categorical parameters (width 12)

RATES = (0.001, 0.01, 0.1, 1.0, 10.0)   # spans four decades
DEPTHS = (1, 2, 3, 4)
KINDS = ("a", "b", "c")
MODES = ("p", "q", "r", "s")

# per-kind objective scaling and per-mode objective offset: different labels
# win on different objectives, so several combinations reach the front
_KIND_SCALE = {"a": (1.0, 1.0, 1.0), "b": (0.75, 1.25, 1.0), "c": (1.2, 0.9, 0.8)}
_MODE_SHIFT = {
    "p": (0.15, 0.0, 0.0),
    "q": (0.0, 0.15, 0.0),
    "r": (0.0, 0.0, 0.15),
    "s": (0.05, 0.05, 0.05),
}
BUDGET_CAP = 2.0      # soft: rate * depth <= BUDGET_CAP
CORNER_RADIUS2 = 1.5  # hard: x1^2 + x2^2 <= CORNER_RADIUS2


def mixed_soft_objectives(x1, x2, x3, rate, depth, scale, shift):
    """DTLZ2-like sphere octant in (x1, x2), distance term in (x3, rate, depth).

    Accepts scalars or broadcastable arrays; ``scale`` and ``shift`` are the
    3-vectors of the kind and mode labels.
    """
    t1 = 0.5 * math.pi * np.asarray(x1, dtype=float)
    t2 = 0.5 * math.pi * np.asarray(x2, dtype=float)
    depth = np.asarray(depth, dtype=float)
    g = (x3 - 0.2 * (depth - 1.0)) ** 2 + 0.05 * (np.log10(rate) + 1.0) ** 2
    base = (np.cos(t1) * np.cos(t2), np.cos(t1) * np.sin(t2), np.sin(t1))
    tilt = (0.05 * (depth - 1.0), 0.0, 0.05 * (4.0 - depth))
    return tuple((1.0 + g) * scale[i] * base[i] + shift[i] + tilt[i] for i in range(3))


def budget_ok(rate, depth):
    return rate * depth <= BUDGET_CAP


def budget_beta(rate, depth) -> float:
    """exp(-(rate*depth - cap)/10): in (0, 1) for every violating pair."""
    return float(math.exp(-(rate * depth - BUDGET_CAP) / 10.0))


def pairing_ok(kind, mode):
    return not (kind == "c" and mode == "s")


def corner_ok(x1, x2):
    return x1**2 + x2**2 <= CORNER_RADIUS2


def _mixed_soft_evaluator(c):
    return mixed_soft_objectives(
        c["x1"], c["x2"], c["x3"], c["rate"], c["depth"],
        _KIND_SCALE[c["kind"]], _MODE_SHIFT[c["mode"]],
    )


def mixed_soft_problem() -> Problem:
    space = SearchSpace((
        ContinuousParam("x1", 0.0, 1.0),
        ContinuousParam("x2", 0.0, 1.0),
        ContinuousParam("x3", 0.0, 1.0),
        DiscreteParam("rate", RATES),
        DiscreteParam("depth", DEPTHS),
        CategoricalParam("kind", KINDS),
        CategoricalParam("mode", MODES),
    ))
    # soft constraints come first so the hard one cannot skip them
    constraints = (
        ConstraintSpec(
            "budget",
            predicate=lambda c: bool(budget_ok(c["rate"], c["depth"])),
            beta=lambda c: budget_beta(c["rate"], c["depth"]),
        ),
        ConstraintSpec(
            "pairing",
            predicate=lambda c: pairing_ok(c["kind"], c["mode"]),
            beta=lambda c: 0.5,
        ),
        ConstraintSpec(
            "corner",
            predicate=lambda c: bool(corner_ok(c["x1"], c["x2"])),
            violation=lambda c: max(0.0, c["x1"] ** 2 + c["x2"] ** 2 - CORNER_RADIUS2),
        ),
    )
    return Problem(
        space=space,
        evaluator=_mixed_soft_evaluator,
        objective_names=("f1", "f2", "f3"),
        constraints=constraints,
        name="mixed-soft",
    )


def mixed_soft_oracle(steps: int = 20, x3_steps: int = 5) -> np.ndarray:
    """Front of every feasible discrete x categorical combination over a grid.

    x1 and x2 take ``steps + 1`` values and x3 ``x3_steps + 1`` values on
    [0, 1]; the x3 grid holds every depth's optimum 0.2 * (depth - 1).
    """
    g1, g2, g3 = np.meshgrid(
        np.linspace(0.0, 1.0, steps + 1),
        np.linspace(0.0, 1.0, steps + 1),
        np.linspace(0.0, 1.0, x3_steps + 1),
        indexing="ij",
    )
    inside = corner_ok(g1, g2)
    x1, x2, x3 = g1[inside], g2[inside], g3[inside]
    front = np.empty((0, 3))
    for rate in RATES:
        for depth in DEPTHS:
            if not budget_ok(rate, depth):
                continue
            for kind in KINDS:
                for mode in MODES:
                    if not pairing_ok(kind, mode):
                        continue
                    f = mixed_soft_objectives(
                        x1, x2, x3, rate, depth, _KIND_SCALE[kind], _MODE_SHIFT[mode]
                    )
                    front = nondominated(np.vstack([front, np.column_stack(f)]))
    return front


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Problem]
    n_initial: int
    budget: int              # total evaluations, initial design included
    ga: tuple[int, int]      # (population, generations)
    ref_point: tuple[float, ...]
    oracle: Callable[[Problem], np.ndarray]
    gd_check: bool           # moboga verify's GD <= 5% of the oracle diagonal
    min_repeats: int         # full runs per measurement, at least

    def engine_config(self, seed: int) -> EngineConfig:
        # delta at the duplicate floor: the budget does the stopping, as in
        # moboga verify, so an early stop always means a duplicate pick
        return EngineConfig(
            n_initial=self.n_initial,
            max_iterations=self.budget,
            delta=1e-12,
            ga=GaConfig(population_size=self.ga[0], generations=self.ga[1]),
            seed=seed,
        )

    @property
    def proposals(self) -> int:
        return self.budget - self.n_initial


def _grid_oracle(problem: Problem) -> np.ndarray:
    return grid_reference_front(problem, 400)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "binh-korn", binh_korn_problem, n_initial=8, budget=14, ga=(60, 30),
            ref_point=(140.0, 55.0), oracle=_grid_oracle, gd_check=True, min_repeats=5,
        ),
        Workload(
            "mixed-soft", mixed_soft_problem, n_initial=8, budget=14, ga=(40, 20),
            ref_point=(2.0, 2.0, 2.0), oracle=lambda _p: mixed_soft_oracle(),
            gd_check=False, min_repeats=7,
        ),
        Workload(
            "deep-archive", constr_ex_problem, n_initial=150, budget=160, ga=(16, 4),
            ref_point=(1.1, 10.0), oracle=_grid_oracle, gd_check=True, min_repeats=5,
        ),
    )
}
