#!/usr/bin/env python3
"""Time the GP fits of one benchmark run by replaying them.

Usage, from the repository root::

    python3 scripts/fit_replay.py --workload deep-archive --seed 1 --replays 5

Runs the perfbench workload (``perfbench/workloads.py``, imported, not
changed) once through ``engine.run`` with ``EngineConfig`` seed ``--seed``,
with ``moboga.engine.gp_fit`` wrapped to capture every call's inputs. It then
replays the captured calls ``--replays`` times in the same process and
checks that each replayed fit returns the captured hyperparameters and log
evidence bit for bit.

A call is a *cold search* (no start, no fixed hyperparameters), a *warm
search* (started from an earlier fit), an *extension* (an earlier model kept,
whose Cholesky factor the fit borders by the one new row) or a *kept-θ fit*
(fixed or kept hyperparameters and one full factor, no search). The earlier
model of a call that keeps one is captured with the call and passed again on
replay. Per kind it prints the call count, the median time of one call over
every replay, and the minor page faults of one replay of that kind
(``resource.getrusage(RUSAGE_SELF).ru_minflt`` deltas summed per replay;
median over replays). The ``all`` row sums a whole replay.
"""
from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from moboga import engine, surrogate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KINDS = ("cold search", "warm search", "extension", "kept-θ fit")


def _kind(X, hyper, start, keep) -> str:
    if keep is not None:
        extends = surrogate._extended_factor(keep, np.asarray(X)) is not None
        return KINDS[2] if extends else KINDS[3]
    if hyper is not None:
        return KINDS[3]
    return KINDS[0] if start is None else KINDS[1]


def capture(workload: str, seed: int) -> list[tuple]:
    """(kind, X, y, hyper, start, kept model, fitted model) of every gp_fit
    call of one run."""
    w = WORKLOADS[workload]
    calls = []
    fit = engine.gp_fit

    def recording(X, y, hyper=None, *, start=None, keep=None):
        model = fit(X, y, hyper, start=start, keep=keep)
        kind = _kind(X, hyper, start, keep)
        calls.append((kind, X.copy(), y.copy(), hyper, start, keep, model))
        return model

    engine.gp_fit = recording
    try:
        engine.run(w.build(), w.engine_config(seed))
    finally:
        engine.gp_fit = fit
    return calls


def replay(calls: list[tuple]) -> tuple[dict, dict]:
    """Per kind, the time of each call and the minor faults of this replay."""
    times = {k: [] for k in KINDS}
    faults = dict.fromkeys(KINDS, 0)
    for kind, X, y, hyper, start, keep, want in calls:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        got = engine.gp_fit(X, y, hyper, start=start, keep=keep)
        times[kind].append(time.perf_counter() - t0)
        faults[kind] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        if not (
            np.array_equal(got.hyper.length_scales, want.hyper.length_scales)
            and got.hyper.signal_variance == want.hyper.signal_variance
            and got.log_evidence == want.log_evidence
        ):
            raise SystemExit(f"replayed {kind} at n = {len(y)} differs from the captured fit")
    return times, faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--replays", type=int, default=5)
    args = parser.parse_args(argv)

    calls = capture(args.workload, args.seed)
    runs = [replay(calls) for _ in range(args.replays)]
    print("kind,calls,median_s,minflt_per_replay")
    for kind in (*KINDS, "all"):
        kinds = KINDS if kind == "all" else (kind,)
        n = sum(1 for c in calls if c[0] in kinds)
        if n == 0:
            continue
        if kind == "all":  # one whole replay
            med = statistics.median(sum(sum(t[k]) for k in KINDS) for t, _ in runs)
        else:
            med = statistics.median(x for t, _ in runs for x in t[kind])
        flt = statistics.median(sum(f[k] for k in kinds) for _, f in runs)
        print(f"{kind},{n},{med:.6f},{flt:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
