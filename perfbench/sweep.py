"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out sweep.json

Runs ``run.py`` once per workload and seed, one process at a time, and for
every end-to-end metric prints the median, the quartiles and the quartile
distance as a share of the median next to the metric's bound from
``BENCHMARK.json``. ``--out`` keeps every run's result line and the summary.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report: dict[str, dict] = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}"
                      f"{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "ok" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:13s} {name:40s} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound {bound} {flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
