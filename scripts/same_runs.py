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
  over a custom space with a discrete parameter, a named problem without its
  constraints and with one ``[ga]`` key, and constr-ex run to 40 evaluations
  with seed 7 and the stop rule off (``delta = 1e-12``), so that proposals
  past 20 evaluations refit with kept hyperparameters
* ``moboga front`` on each run record, and on a cut of it: the header and at
  most ``CUT_OBSERVATIONS`` observations with no result line, so that ``front``
  recomputes the result as it does for an interrupted run
* ``moboga verify --all``
* ``scripts/hv_control.py``, the engine-against-random-search table, when
  both sides have the script (a side without it is skipped)

Every output is compared line by line, as text: the run records and each
study's ``metrics.json`` with the value of each wall-clock field
(``timestamp``, ``started_at``, ``finished_at``, ``elapsed_seconds``) masked,
so that a change of key order or number formatting shows; the ``front`` CSVs,
every ``verify_*/*.csv``, the stdout of each ``run`` (without its "run record
written to" line, which names a path), the stdout of ``verify --all``
(without its ``elapsed_seconds:`` lines) and the ``hv_control.py`` table.
Every difference is printed, and the exit status is 1 if there is any, 0
otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import re
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
        "[engine]\nmax_iterations = 12\n\n[ga]\ngenerations = 12\n"
    ),
    # with the default delta this run stops after 13 evaluations, before any kept-θ refit
    "constr-ex-40-config": (
        "[problem]\nname = constr-ex\n\n"
        "[engine]\nmax_iterations = 40\ndelta = 1e-12\nseed = 7\n"
    ),
}
# a wall-clock field's JSON value: a string or a number
CLOCK_VALUE = re.compile(
    r'("(?:timestamp|started_at|finished_at|elapsed_seconds)": )("[^"]*"|[^,}\s]+)'
)
CUT_OBSERVATIONS = 9
HV_CONTROL = "scripts/hv_control.py"


def _python(checkout: Path, args: list[str]) -> str:
    """The stdout of ``python args`` run on checkout; RuntimeError if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("MOBOGA_SEED", None)
    done = subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{checkout}: python {' '.join(args)} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return done.stdout


def _moboga(checkout: Path, args: list[str]) -> str:
    return _python(checkout, ["-m", "moboga", *args])


def _masked_lines(path: Path) -> list[str]:
    """The lines of a JSON or JSON-lines file, each wall-clock value replaced by "*"."""
    return [CLOCK_VALUE.sub(r'\1"*"', line) for line in path.read_text().splitlines()]


def _outputs(checkout: Path, out: Path, runs: dict[str, list[str]]) -> dict[str, list[str]]:
    """Every output of one side as a list of lines: run records and verify
    metrics files with their wall-clock values masked, CSVs and stdout."""
    docs: dict[str, list[str]] = {}
    for name, args in runs.items():
        record = out / f"{name}.jsonl"
        stdout = _moboga(checkout, ["run", *args, "-o", str(record)]).splitlines()
        docs[f"stdout {name}"] = [s for s in stdout if not s.startswith("run record written to")]
        lines = record.read_text().splitlines()
        docs[f"run {name}"] = _masked_lines(record)
        docs[f"front {name}"] = _moboga(checkout, ["front", str(record)]).splitlines()
        cut = out / f"{name}-cut.jsonl"
        kept = [s for s in lines[:1 + CUT_OBSERVATIONS] if json.loads(s)["kind"] != "result"]
        cut.write_text("".join(line + "\n" for line in kept))
        docs[f"front {name} cut"] = _moboga(checkout, ["front", str(cut)]).splitlines()
    stdout = _moboga(checkout, ["verify", "--all", "--out-dir", str(out)]).splitlines()
    docs["stdout verify"] = [s for s in stdout if not s.startswith("elapsed_seconds:")]
    for metrics in sorted(out.glob("verify_*/metrics.json")):
        docs[f"verify {metrics.parent.name}"] = _masked_lines(metrics)
    for table in sorted(out.glob("verify_*/*.csv")):
        docs[f"verify {table.parent.name}/{table.name}"] = table.read_text().splitlines()
    if (checkout / HV_CONTROL).exists():
        docs["hv_control"] = _python(checkout, [HV_CONTROL]).splitlines()
    return docs


def _differences(parent: dict[str, list[str]], change: dict[str, list[str]]) -> list[str]:
    found = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            found.append(f"{key}: only on the {'change' if a is None else 'parent'} side")
            continue
        if len(a) != len(b):
            found.append(f"{key}: {len(a)} lines at the parent, {len(b)} in the change")
        found += [
            f"{key}: line {i + 1} differs\n  parent: {x}\n  change: {y}"
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

    if outputs["parent"].keys() ^ outputs["change"].keys() == {"hv_control"}:
        print(f"{HV_CONTROL} is on one side only; its table is not compared")
        for docs in outputs.values():
            docs.pop("hv_control", None)
    found = _differences(outputs["parent"], outputs["change"])
    for line in found:
        print(line)
    compared = ", ".join(sorted(outputs["change"]))
    verdict = f"{len(found)} differences" if found else "identical"
    print(f"parent {commit[:12]} against the working tree: {verdict} ({compared})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
