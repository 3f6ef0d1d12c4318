"""Measure one workload: repeated full runs, checks, end-to-end or layer metrics.

A repeat is what ``moboga run`` followed by ``moboga front`` does: ``run``
streams every observation through ``RunRecordWriter`` into a record file,
then ``load_record`` reloads it and ``exploit`` recomputes the front. The
evaluators are analytic and cost microseconds, so the gap between two
exploration-phase ``on_observation`` callbacks is the engine's overhead for
one proposal.

Repeats run one after another in this process until ``--seconds`` is spent,
and at least the workload's ``min_repeats`` of them. Repeat ``r`` uses the
``r``-th engine seed drawn from ``--seed``. With tracing on, each repeat runs
twice with the same engine seed, untraced and then traced, and the ratio of
their times is the tracing overhead.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import moboga
from moboga import engine
from moboga.pareto import generational_distance, objective_diagonal
from moboga.record import RunRecordWriter, load_record
from moboga.space import validate_candidate

from hv import hypervolume
from spans import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
MAX_REPEATS = 64
SETUP_REPEATS = 7
TAIL_SAMPLES = 10


@dataclass
class Repeat:
    engine_seed: int
    requested: int
    run_s: float = math.nan
    gaps: list[float] = field(default_factory=list)
    front: np.ndarray | None = None
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    record_lines: int = 0
    record_bytes: int = 0

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _traced(tracer: Tracer | None, name: str, fn):
    return fn if tracer is None else tracer.wrap(name, fn)


def run_repeat(w: Workload, problem, engine_seed: int, tmp: Path, tracer: Tracer | None) -> Repeat:
    rep = Repeat(engine_seed, requested=w.proposals)
    cfg = w.engine_config(engine_seed)
    path = tmp / f"run-{engine_seed}-{'traced' if tracer else 'plain'}.jsonl"
    stamps: list[tuple[float, int]] = []
    clock = time.perf_counter
    started = clock()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            writer = _traced(tracer, "record.write", RunRecordWriter)(
                fh,
                problem_name=problem.name,
                space=problem.space,
                objective_names=problem.objective_names,
                constraint_names=[c.name for c in problem.constraints],
                cfg=cfg,
                weights=None,
            )
            write_obs = _traced(tracer, "record.write", writer.observation)

            def on_observation(obs) -> None:
                stamps.append((clock(), obs.iteration))
                write_obs(obs)

            result = engine.run(problem, cfg, on_observation=on_observation)
            _traced(tracer, "record.write", writer.result)(result)
        loaded = _traced(tracer, "record.load", load_record)(str(path))
        reloaded = engine.exploit(loaded.archive, loaded.weights)
        rep.run_s = clock() - started
    except Exception as exc:  # a raising proposal fails the whole repeat
        traceback.print_exc(file=sys.stdout)
        rep.failed = rep.requested
        rep.checks.append(("run completes", False, f"{type(exc).__name__}: {exc}"))
        return rep
    rep.record_bytes = path.stat().st_size
    with open(path, "rb") as fh:
        rep.record_lines = sum(1 for _ in fh)
    path.unlink()

    rep.gaps = [b[0] - a[0] for a, b in zip(stamps, stamps[1:]) if b[1] > 0]
    archive = result.archive
    rep.front = archive.objective_matrix()[result.pof]
    hard = [c for c in problem.constraints if c.is_hard]

    def hard_ok(obs) -> bool:
        return all(c.predicate(obs.candidate) for c in hard)

    # failed proposals: hard-infeasible picks, and picks never made because
    # the loop stopped early (with delta at the floor, a duplicate pick)
    bad_picks = sum(1 for o in archive.observations if o.iteration > 0 and not hard_ok(o))
    rep.failed = bad_picks + (w.budget - len(archive))
    violations = sum(1 for o in archive.observations if not hard_ok(o))
    rep.checks.append(("hard violations == 0", violations == 0, str(violations)))
    if not w.gd_check:  # the GD check needs the oracle and runs in main
        bad = 0
        for obs in archive.observations:
            try:
                validate_candidate(problem.space, obs.candidate)
            except ValueError:
                bad += 1
        rep.checks.append(("validate_candidate on archive", bad == 0, f"{bad} invalid"))
    same = reloaded.pof == result.pof and reloaded.best_index == result.best_index
    rep.checks.append(("reloaded pof/best_index == in-memory", same,
                       f"pof {len(result.pof)} vs {len(reloaded.pof)}, best "
                       f"{result.best_index} vs {reloaded.best_index}"))
    return rep


def measure_setup(workload: str) -> list[float]:
    """Process start until moboga is imported and the problem and config exist."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def provenance(seed: int, workload: str) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"# workload {workload} seed {seed} | python {sys.version.split()[0]} "
            f"numpy {np.__version__} scipy {scipy.__version__} moboga {moboga.__version__} "
            f"| blas {blas} | nproc {os.cpu_count()} | cpu {cpu}")


def tail_percentile(w: Workload, repeats: int) -> int:
    """Highest whole percentile with >= TAIL_SAMPLES gaps beyond it.

    Fixed by the workload's minimum sample count so that every run of a
    workload reports the same percentile.
    """
    n = w.proposals * repeats
    return max(50, int(math.floor(100.0 * (1.0 - TAIL_SAMPLES / n))))


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    w = WORKLOADS[workload]
    setup = [] if trace else measure_setup(workload)
    print(provenance(seed, workload))
    problem = w.build()
    engine_seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31 - 1, size=MAX_REPEATS)]

    plain: list[Repeat] = []
    traced_runs: list[tuple[Repeat, Tracer]] = []
    out_dir = root / ".bench_out"
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as tmp:
        # one short untimed run first, so lazy imports and first-call set-up
        # inside numpy and scipy do not land in the first timed repeat
        warm = dataclasses.replace(w, budget=w.n_initial + 1, ga=(8, 2))
        run_repeat(warm, problem, engine_seeds[-1], Path(tmp), None)
        started = time.perf_counter()
        cost: list[float] = []
        for r, es in enumerate(engine_seeds):
            elapsed = time.perf_counter() - started
            if r >= (1 if trace else w.min_repeats) and elapsed + statistics.median(cost) > seconds:
                break
            t = time.perf_counter()
            plain.append(run_repeat(w, problem, es, Path(tmp), None))
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced_runs.append((run_repeat(w, problem, es, Path(tmp), tracer), tracer))
                finally:
                    tracer.uninstall()
                out_dir.mkdir(exist_ok=True)
                tracer.dump(str(out_dir / f"spans-{workload}-seed{seed}-r{r}.csv.gz"),
                            f"{workload}/{seed}/{r}")
            cost.append(time.perf_counter() - t)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    repeats = plain + [rep for rep, _ in traced_runs]

    # checks against the oracle, computed after the timed runs so they do
    # not count in peak_rss_mb
    oracle = w.oracle(problem)
    oracle_hv = hypervolume(oracle, w.ref_point)
    diag = objective_diagonal(oracle) if w.gd_check else math.nan
    for rep in repeats:
        if rep.front is not None and w.gd_check:
            gd = generational_distance(rep.front, oracle)
            rep.checks.append(("GD <= 5% of oracle diagonal", gd <= 0.05 * diag,
                               f"{gd:.4g} vs {0.05 * diag:.4g}"))
    # front quality over a fixed set of repeats, so it depends on the seed
    # alone and not on how many repeats the machine's speed allowed
    ratios = [float(hypervolume(rep.front, w.ref_point) / oracle_hv)
              for rep in plain[: w.min_repeats] if rep.front is not None]

    correct = True
    for rep in repeats:
        for name, ok, detail in rep.checks:
            if not ok:
                print(f"# check FAILED (engine seed {rep.engine_seed}): {name}: {detail}")
        if not rep.ok:
            correct = False
            rep.failed = rep.requested
    for name in dict.fromkeys(n for rep in repeats for n, _, _ in rep.checks):
        states = [ok for rep in repeats for n, ok, _ in rep.checks if n == name]
        print(f"# check {name}: {sum(states)}/{len(states)} repeats pass")

    attempted = sum(rep.requested for rep in repeats)
    failed = sum(min(rep.failed, rep.requested) for rep in repeats)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        per_run = []
        for (trep, tracer), prep in zip(traced_runs, plain):
            extra = {
                "record.write.lines": (float(trep.record_lines), "count"),
                "record.write.bytes": (float(trep.record_bytes), "B"),
                "trace.overhead_frac": (trep.run_s / prep.run_s - 1.0, "1"),
            }
            per_run.append(tracer.metrics(extra))
        for key in per_run[0]:
            values = [m[key][0] for m in per_run if key in m]
            metrics[key] = (statistics.median(values), per_run[0][key][1])
    else:
        gaps = [g for rep in plain for g in rep.gaps]
        pct = tail_percentile(w, w.min_repeats)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(rep.run_s for rep in plain if rep.front is not None), "s")
            if any(rep.front is not None for rep in plain) else (math.nan, "s"),
            "propose_p50_s": (float(np.median(gaps)) if gaps else math.nan, "s"),
            "propose_tail_s": (float(np.percentile(gaps, pct)) if gaps else math.nan, "s"),
            "hv_ratio": (statistics.median(ratios) if ratios else math.nan, "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"# repeats {len(plain)}; proposal gaps {len(gaps)}; "
              f"propose_tail_s is p{pct} ({len(gaps)} samples, >= {TAIL_SAMPLES} beyond)")
        print("# per repeat run_s / median gap: " + ", ".join(
            f"{rep.run_s:.3f}/{np.median(rep.gaps):.3f}" for rep in plain if rep.gaps))
        print(f"# setup_s samples {[round(s, 4) for s in setup]}")
        print(f"# hv_ratio samples {[round(r, 4) for r in ratios]} (oracle hv {oracle_hv:.6g}, "
              f"ref {w.ref_point})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_rate {failed / attempted if attempted else math.nan:.6g} 1 "
          f"({failed} failed of {attempted} requested proposals)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1

