#!/usr/bin/env python3
"""Library-API walkthrough: optimize a user-defined constrained problem.

Defines a mixed continuous/discrete/categorical space with a hard budget
constraint and a soft preference, runs the engine, and prints the measured
Pareto front plus the recommended candidate. The constraints are batched: each
callable maps the parameter columns (one array per parameter) to an array, so
the engine calls it once per GA population rather than once per candidate.
"""
from __future__ import annotations

import argparse

import numpy as np

from moboga import (
    Candidate,
    CategoricalParam,
    ConstraintSpec,
    ContinuousParam,
    DiscreteParam,
    EngineConfig,
    GaConfig,
    Problem,
    SearchSpace,
    run,
)

ACTIVATION_COST = {"relu": 1.0, "tanh": 1.35}


def simulated_quality(c: Candidate) -> float:
    # toy response surface: sweet spot at dropout 0.15 with 64-wide layers
    width_term = abs(c["width"] - 64) / 64
    dropout_term = 4.0 * (c["dropout"] - 0.15) ** 2
    return 0.08 + dropout_term + 0.25 * width_term + 0.05 * ACTIVATION_COST[c["act"]]


def simulated_latency(c: Candidate) -> float:
    return 0.2 + 0.004 * c["width"] * ACTIVATION_COST[c["act"]]


def build_problem() -> Problem:
    space = SearchSpace(
        (
            ContinuousParam("dropout", 0.0, 0.6),
            DiscreteParam("width", (16, 32, 64, 128, 256)),
            CategoricalParam("act", ("relu", "tanh")),
        )
    )
    constraints = (
        ConstraintSpec(
            "width_budget",
            predicate=lambda c: c["width"] <= 128,
            violation=lambda c: np.maximum(0.0, (c["width"] - 128) / 128),
            batched=True,
        ),
        ConstraintSpec(
            "prefer_low_dropout",
            predicate=lambda c: c["dropout"] <= 0.4,
            # explorable, but at reduced acquisition
            beta=lambda c: np.full(len(c["dropout"]), 0.3),
            batched=True,
        ),
    )
    return Problem(
        space=space,
        evaluator=lambda c: (simulated_quality(c), simulated_latency(c)),
        objective_names=("error", "latency"),
        constraints=constraints,
        name="toy-tuning",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--budget", type=int, default=30)
    args = parser.parse_args()

    cfg = EngineConfig(
        n_initial=6,
        max_iterations=args.budget,
        delta=1e-9,
        ga=GaConfig(population_size=40, generations=20),
        seed=args.seed,
    )
    result = run(build_problem(), cfg)

    print(f"evaluations: {len(result.archive)}  stop: {result.archive.stop_reason}")
    print("front:")
    for idx in result.pof:
        obs = result.archive.observations[idx]
        marker = " <- recommended" if idx == result.best_index else ""
        print(f"  {obs.candidate.values}  ->  "
              f"error {obs.objectives[0]:.4f}, latency {obs.objectives[1]:.4f}{marker}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
