"""Paired benchmark runs of a parent commit against this checkout.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD~1 --label nds2d \
        --pairs binh-korn=10 --pairs mixed-soft=5 --pairs deep-archive=5

The parent commit is unpacked with ``git archive REV | tar -x`` into a
temporary directory. The change side is a copy of the working tree this script
sits in (its tracked files and its untracked, not ignored, ones) in another.
Both sides thus run from fresh directories: on a 2-vCPU host,
``setup_probe.py`` run from the working tree itself took about 5% less time
than from a fresh copy of the same files.

For each workload, pair i runs ``python3 perfbench/run.py --trace 0`` on both
sides with seed ``--first-seed + i``, one process at a time, and alternates
which side runs first. The result lines go to ``BENCH_<label>.json`` at the
repository root, with a per-workload summary of every end-to-end metric that
``BENCHMARK.json`` declares: each side's median and quartiles, the pairs the
change won (better in the metric's direction), the ties, which count for
neither side, and a verdict. The verdict applies the benchmark's rule, the
first that holds in this order, with the metric's bound taken relative to the
parent's median:

* ``better``: there are at least ``MIN_PAIRS`` (10) pairs, the change won at
  least 9 of every 10 (a tie is no win), and its median is better than the
  parent's by more than the parent's quartile gap;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: either side's quartile gap is wider than the bound;
* ``too few pairs``: the change would read ``better`` but has fewer than
  ``MIN_PAIRS`` pairs to show it;
* ``unchanged``: anything else.

``--setup-pairs N`` adds N alternated pairs of ``perfbench/setup_probe.py``
processes per workload, each timed from spawn until the probe has imported
moboga and built the workload, as ``perfbench/bench.py``'s ``measure_setup``
times ``setup_s``; pair i runs the parent first when i is even. Each side's
samples, in pair order, and the same summary go under ``setup_probe``. The
set-up pairs cover the workloads given with ``--pairs``, or every workload in
``BENCHMARK.json`` when there is no ``--pairs``::

    python3 scripts/bench_pairs.py --parent HEAD~1 --label edges --setup-pairs 10

``--traced WORKLOAD`` adds one traced repeat of that workload per side
(``--seconds 0 --trace 1``, seed ``--first-seed``, parent first); each side's
result line, with its per-layer metrics, goes under ``traced``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs that can read better


def _workload_pairs(spec: str) -> tuple[str, int]:
    name, _, count = spec.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {spec!r}")
    return name, int(count)


def _snapshot(rev: str, into: Path) -> str:
    """Unpack the committed files of rev into a directory; returns its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def _copy_worktree(into: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in names:
        if name and (ROOT / name).is_file():  # a tracked file may be deleted
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; its last line of output, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} ended without a result line\n{done.stderr[-2000:]}"
        ) from exc
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _compare(parent: list[float], change: list[float], metric: dict) -> dict:
    """Both sides' median and quartiles, the pairs the change won, the ties,
    and the verdict on the metric (its ``better`` and ``bound`` as in
    ``BENCHMARK.json``)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    medians = statistics.median(parent), statistics.median(change)
    quartiles = _quartiles(parent), _quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (medians[0] - medians[1])
    bound = metric["bound"] * abs(medians[0])
    gaps = [q3 - q1 for q1, q3 in quartiles]
    won = wins >= 0.9 * len(parent) and gain > gaps[0]
    if won and len(parent) >= MIN_PAIRS:
        verdict = "better"
    elif -gain > bound:
        verdict = "worse"
    elif max(gaps) > bound:
        verdict = "unresolved"
    else:
        verdict = "too few pairs" if won else "unchanged"
    return {
        "parent_median": round(medians[0], 5),
        "parent_quartiles": [round(q, 5) for q in quartiles[0]],
        "change_median": round(medians[1], 5),
        "change_quartiles": [round(q, 5) for q in quartiles[1]],
        "change_wins": wins,
        "ties": sum(p == c for p, c in zip(parent, change)),
        "verdict": verdict,
    }


def _summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out: dict = {"pairs": len(pairs)}
    for metric in end_to_end:
        name = metric["name"]
        value = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        out[name] = _compare(value["parent"], value["change"], metric)
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    return out


def _setup_time(checkout: Path, workload: str) -> float:
    """Seconds from spawning the set-up probe until it has built the workload."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _setup_pairs(
    checkouts: dict[str, Path], workload: str, count: int, metric: dict
) -> dict:
    """count alternated set-up probe pairs of one workload, with their summary
    against metric, ``setup_s`` of ``BENCHMARK.json``."""
    samples: dict[str, list[float]] = {s: [] for s in SIDES}
    for i in range(count):
        for side in (SIDES[i % 2], SIDES[1 - i % 2]):
            samples[side].append(round(_setup_time(checkouts[side], workload), 5))
    out = {"pairs": count, **_compare(samples["parent"], samples["change"], metric)}
    print(f"{workload} set-up: parent {out['parent_median']:.4f} s, "
          f"change {out['change_median']:.4f} s, {out['verdict']}", flush=True)
    return {**out, "samples": samples}


def _host() -> str:
    import numpy

    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            "OpenBLAS pinned to 1 thread by perfbench, one benchmark process at a time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--pairs", type=_workload_pairs, action="append", default=[],
                        metavar="WORKLOAD=PAIRS")
    parser.add_argument("--setup-pairs", type=int, default=0, metavar="N",
                        help="set-up probe pairs per workload (default 0)")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                        help="one traced repeat of WORKLOAD per side")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--what", default="perfbench result lines of the parent commit "
                                          "and of the change, measured back to back")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    known = {w["name"] for w in bench["workloads"]}
    names = [name for name, _ in args.pairs]
    unknown = [name for name in names + args.traced if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {sorted(known)}")
    if len(set(names)) != len(names):
        parser.error("give each workload's --pairs once")
    if args.setup_pairs < 0 or not (names or args.setup_pairs or args.traced):
        parser.error("give --pairs, a positive --setup-pairs, --traced, or any of them")

    pairs: list[dict] = []
    summary: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for checkout in checkouts.values():
            checkout.mkdir()
        parent_commit = _snapshot(args.parent, checkouts["parent"])
        _copy_worktree(checkouts["change"])
        for workload, count in args.pairs:
            done: list[dict] = []
            for i in range(count):
                seed = args.first_seed + i
                first = SIDES[i % 2]
                pair = {"workload": workload, "seed": seed, "trace": 0,
                        "seconds": seconds, "first": first}
                for side in (first, SIDES[1 - i % 2]):
                    pair[side] = _run(checkouts[side], workload, seed, seconds)
                done.append(pair)
                p50 = [pair[s]["metrics"]["propose_p50_s"]["value"] for s in SIDES]
                print(f"{workload} seed {seed} ({first} first): propose_p50_s "
                      f"parent {p50[0]:.4f} s, change {p50[1]:.4f} s", flush=True)
            pairs += done
            summary[workload] = _summary(done, bench["end_to_end"])
            print(f"{workload}: " + ", ".join(
                f"{m['name']} {summary[workload][m['name']]['verdict']}"
                for m in bench["end_to_end"]), flush=True)
        setup_names = (names or [w["name"] for w in bench["workloads"]]) if args.setup_pairs else []
        setup_s = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        setup = {name: _setup_pairs(checkouts, name, args.setup_pairs, setup_s)
                 for name in setup_names}
        traced = {name: {side: _run(checkouts[side], name, args.first_seed, 0, trace=1)
                         for side in SIDES}
                  for name in args.traced}

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "parent_commit": parent_commit,
        "host": _host(),
        "order": "pairs alternate which side ran first ('first')",
        "summary": summary,
        "pairs": pairs,
        "setup_command": "python3 perfbench/setup_probe.py W, timed from spawn",
        "setup_probe": setup,
        "traced_command": f"python3 perfbench/run.py --workload W --seed {args.first_seed} "
                          "--seconds 0 --trace 1, parent first",
        "traced": traced,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
