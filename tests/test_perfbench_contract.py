"""The traced benchmark's contract with the library, checked from outside perfbench.

``perfbench/spans.py`` patches moboga functions by attribute name and drops
every metric of a hook whose target is gone, and the benchmark's result line
must be strict JSON holding every per-layer metric ``BENCHMARK.json`` names.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def test_every_trace_hook_finds_its_target():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_traced_run_ends_in_one_strict_json_line_with_every_layer_metric(workload="binh-korn"):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_no_constant)
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    assert missing == []
    assert metrics["trace.propose_coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", ["mixed-soft", "deep-archive"])
def test_traced_run_contract_holds_on_the_other_workloads(workload):
    test_traced_run_ends_in_one_strict_json_line_with_every_layer_metric(workload)
