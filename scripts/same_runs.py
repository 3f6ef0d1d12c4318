"""Check that seeded runs of this checkout equal those of a parent commit.

Usage, from the repository root::

    python3 scripts/same_runs.py --parent HEAD~1

The parent commit is unpacked with ``git archive REV | tar -x`` into a
temporary directory; the change side is the working tree this script sits in.
Each side runs, one process at a time and with one BLAS thread:

* ``moboga run --problem P --iters 20 --seed 7`` for each built-in problem P
* ``moboga run --config configs/binh_korn.ini --iters 16``
* ``moboga run --config configs/mixed_space.ini`` (continuous, discrete and
  categorical parameters), read from this checkout on both sides
* ``moboga run --config C`` for each config C of ``CONFIGS``, written into the
  temporary directory: a named problem with both parts replaced, an evaluator
  over a custom space with a discrete parameter, and a named problem without
  its constraints and with one ``[ga]`` key
* ``moboga front`` on each run record, and on a cut of it: the header and at
  most ``CUT_OBSERVATIONS`` observations with no result line, so that ``front``
  recomputes the result as it does for an interrupted run
* ``moboga verify --all``

The run records are compared document by document without their wall-clock
fields (``timestamp``, ``started_at``, ``finished_at``), and each study's
``metrics.json`` without ``elapsed_seconds``. The ``front`` CSVs, every
``verify_*/*.csv``, the stdout of each ``run`` (without its "run record
written to" line, which names a path) and the stdout of ``verify --all``
(without its ``elapsed_seconds:`` lines) are compared line by line. Every
difference is printed, and the exit status is 1 if there is any, 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _snapshot

RUNS = {
    **{p: ["--problem", p, "--iters", "20", "--seed", "7"]
       for p in ("binh-korn", "constr-ex", "sinusoid-1d")},
    "binh-korn-config": ["--config", "configs/binh_korn.ini", "--iters", "16"],
    # absolute, so that a parent without the file runs it too
    "mixed-space-config": ["--config", str(ROOT / "configs" / "mixed_space.ini")],
}
# each reaches a path of the config reader that no run above reaches
CONFIGS = {
    "both-parts-replaced-config": (
        "[problem]\nname = constr-ex\nevaluator = sinusoid-1d\nconstraints = sinusoid-1d\n\n"
        "[engine]\nmax_iterations = 12\n\n"
        "[param.x]\ntype = continuous\nlo = 0\nhi = 1.2\n"
    ),
    "evaluator-over-discrete-config": (
        "[problem]\nevaluator = binh-korn\n\n[engine]\nmax_iterations = 12\n\n"
        "[param.x]\ntype = continuous\nlo = 0\nhi = 5\n\n"
        "[param.y]\ntype = discrete\nvalues = 0, 0.5, 1, 2, 3\n"
    ),
    "no-constraints-one-ga-key-config": (
        "[problem]\nname = binh-korn\nconstraints = none\n\n"
        "[engine]\nmax_iterations = 12\n\n[ga]\ncrossover_prob = 0.8\n"
    ),
}
CLOCK_FIELDS = {"timestamp", "started_at", "finished_at", "elapsed_seconds"}
CUT_OBSERVATIONS = 9


def _moboga(checkout: Path, args: list[str]) -> str:
    """The stdout of ``moboga args`` run on checkout; RuntimeError if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("MOBOGA_SEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "moboga", *args], cwd=checkout, env=env,
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{checkout}: moboga {' '.join(args)} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return done.stdout


def _outputs(checkout: Path, out: Path, runs: dict[str, list[str]]) -> dict[str, list]:
    """Every output of one side: run records and verify metrics files as lists
    of documents without their wall-clock fields; CSVs and stdout as lists of
    lines."""
    docs: dict[str, list] = {}
    for name, args in runs.items():
        record = out / f"{name}.jsonl"
        stdout = _moboga(checkout, ["run", *args, "-o", str(record)]).splitlines()
        docs[f"stdout {name}"] = [s for s in stdout if not s.startswith("run record written to")]
        lines = record.read_text().splitlines()
        docs[f"run {name}"] = [json.loads(line) for line in lines]
        docs[f"front {name}"] = _moboga(checkout, ["front", str(record)]).splitlines()
        cut = out / f"{name}-cut.jsonl"
        kept = [s for s in lines[:1 + CUT_OBSERVATIONS] if json.loads(s)["kind"] != "result"]
        cut.write_text("".join(line + "\n" for line in kept))
        docs[f"front {name} cut"] = _moboga(checkout, ["front", str(cut)]).splitlines()
    stdout = _moboga(checkout, ["verify", "--all", "--out-dir", str(out)]).splitlines()
    docs["stdout verify"] = [s for s in stdout if not s.startswith("elapsed_seconds:")]
    for metrics in sorted(out.glob("verify_*/metrics.json")):
        docs[f"verify {metrics.parent.name}"] = [json.loads(metrics.read_text())]
    for table in sorted(out.glob("verify_*/*.csv")):
        docs[f"verify {table.parent.name}/{table.name}"] = table.read_text().splitlines()
    return {
        key: [{k: v for k, v in d.items() if k not in CLOCK_FIELDS} if isinstance(d, dict) else d
              for d in ds]
        for key, ds in docs.items()
    }


def _differences(parent: dict[str, list], change: dict[str, list]) -> list[str]:
    found = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            found.append(f"{key}: only on the {'change' if a is None else 'parent'} side")
            continue
        if len(a) != len(b):
            found.append(f"{key}: {len(a)} documents at the parent, {len(b)} in the change")
        found += [
            f"{key}: document {i + 1} differs\n  parent: {x}\n  change: {y}"
            for i, (x, y) in enumerate(zip(a, b)) if x != y
        ]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_runs-") as tmp:
        tmp_path = Path(tmp)
        checkouts = {"parent": tmp_path / "parent", "change": ROOT}
        checkouts["parent"].mkdir()
        commit = _snapshot(args.parent, checkouts["parent"])
        runs = dict(RUNS)
        for name, text in CONFIGS.items():
            config = tmp_path / f"{name}.ini"
            config.write_text(text)
            runs[name] = ["--config", str(config)]
        outputs = {}
        for side, checkout in checkouts.items():
            out = tmp_path / f"out-{side}"
            out.mkdir()
            outputs[side] = _outputs(checkout, out, runs)

    found = _differences(outputs["parent"], outputs["change"])
    for line in found:
        print(line)
    compared = ", ".join(sorted(outputs["change"]))
    verdict = f"{len(found)} differences" if found else "identical"
    print(f"parent {commit[:12]} against the working tree: {verdict} ({compared})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
