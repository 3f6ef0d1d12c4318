#!/usr/bin/env python3
"""The engine's measured front against a random-search control, by hypervolume.

Usage, from the repository root::

    python3 scripts/hv_control.py

For binh-korn and constr-ex and each seed s of ``SEEDS``, the engine side
runs ``run`` with the study's ``moboga verify`` config (``cli._STUDIES``) at
seed s: a budget of 8 + 50 evaluations, with the stop rule off. The control
runs ``explore`` with ``n_initial`` raised to that budget, so it is the
initial design alone: 58 seeded uniform draws that meet the hard
constraints. Each side's front is the measured Pareto front that
``exploit`` returns. Its score is its hypervolume over that of the 400 x 400
grid-oracle front, at the benchmark's reference points, computed by
``perfbench/hv.py`` (imported, not changed).

One row per study and seed: the engine's ratio, the control's, the margin
(engine minus control) and the size of each front.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hv import hypervolume  # noqa: E402
from moboga import exploit, explore, get_problem, grid_reference_front, run  # noqa: E402
from moboga.cli import _STUDIES  # noqa: E402

SEEDS = (1, 2, 3, 7)
REFERENCE_POINTS = {"binh-korn": (140.0, 55.0), "constr-ex": (1.1, 10.0)}


def front_of(result):
    return result.archive.objective_matrix()[result.pof]


def main() -> int:
    print("study,seed,engine_hv_ratio,control_hv_ratio,margin,engine_front,control_front")
    for name, ref in REFERENCE_POINTS.items():
        problem = get_problem(name)
        study = _STUDIES[name][0]
        oracle_hv = hypervolume(grid_reference_front(problem, 400), ref)
        for seed in SEEDS:
            engine = run(problem, replace(study, seed=seed))
            control = exploit(explore(problem, replace(
                study, n_initial=study.max_iterations, seed=seed)))
            e = hypervolume(front_of(engine), ref) / oracle_hv
            c = hypervolume(front_of(control), ref) / oracle_hv
            print(f"{problem.name},{seed},{e:.3f},{c:.3f},{e - c:+.3f},"
                  f"{len(engine.pof)},{len(control.pof)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
