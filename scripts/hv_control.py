#!/usr/bin/env python3
"""The engine's measured front against a random-search control, by hypervolume.

Usage, from the repository root::

    python3 scripts/hv_control.py

For binh-korn and constr-ex and each seed s of ``SEEDS``, the engine side
runs ``run`` with ``EngineConfig(n_initial=8, max_iterations=58, delta=1e-12,
seed=s)``: ``moboga verify``'s budget of 8 + 50 evaluations, with the stop
rule off. The control runs ``explore`` with ``n_initial = max_iterations =
58``, so it is the initial design alone: 58 seeded uniform draws that meet
the hard constraints. Each side's front is the measured Pareto front that
``exploit`` returns. Its score is its hypervolume over that of the 400 x 400
grid-oracle front, at the benchmark's reference points, computed by
``perfbench/hv.py`` (imported, not changed).

One row per study and seed: the engine's ratio, the control's, the margin
(engine minus control) and the size of each front.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hv import hypervolume  # noqa: E402
from moboga import (  # noqa: E402
    EngineConfig, binh_korn_problem, constr_ex_problem, explore, exploit,
    grid_reference_front, run,
)

SEEDS = (1, 2, 3, 7)
STUDIES = (  # (problem factory, reference point)
    (binh_korn_problem, (140.0, 55.0)),
    (constr_ex_problem, (1.1, 10.0)),
)
N_INITIAL, BUDGET = 8, 58


def front_of(result):
    return result.archive.objective_matrix()[result.pof]


def main() -> int:
    print("study,seed,engine_hv_ratio,control_hv_ratio,margin,engine_front,control_front")
    for make, ref in STUDIES:
        problem = make()
        oracle_hv = hypervolume(grid_reference_front(problem, 400), ref)
        for seed in SEEDS:
            cfg = EngineConfig(n_initial=N_INITIAL, max_iterations=BUDGET, delta=1e-12, seed=seed)
            engine = run(problem, cfg)
            control = exploit(explore(problem, EngineConfig(
                n_initial=BUDGET, max_iterations=BUDGET, seed=seed)))
            e = hypervolume(front_of(engine), ref) / oracle_hv
            c = hypervolume(front_of(control), ref) / oracle_hv
            print(f"{problem.name},{seed},{e:.3f},{c:.3f},{e - c:+.3f},"
                  f"{len(engine.pof)},{len(control.pof)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
