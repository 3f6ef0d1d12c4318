"""scripts/same_runs.py compares outputs as text with only wall-clock values masked."""
import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # same_runs imports bench_pairs
try:
    _spec = importlib.util.spec_from_file_location("same_runs", SCRIPTS / "same_runs.py")
    same_runs = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(same_runs)
finally:
    sys.path.remove(str(SCRIPTS))


def test_wall_clock_values_are_masked_and_nothing_else(tmp_path):
    record = tmp_path / "run.jsonl"
    record.write_text(
        '{"kind": "header", "started_at": "2026-01-01T00:00:00+00:00", "seed": 7}\n'
        '{"kind": "observation", "objectives": [1.5], "timestamp": "2026-01-01T00:00:01+00:00"}\n'
    )
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"gd": 0.25, "elapsed_seconds": 1.0234e-05, "pass": True},
                                  indent=2))
    assert same_runs._masked_lines(record) == [
        '{"kind": "header", "started_at": "*", "seed": 7}',
        '{"kind": "observation", "objectives": [1.5], "timestamp": "*"}',
    ]
    assert same_runs._masked_lines(metrics) == [
        "{", '  "gd": 0.25,', '  "elapsed_seconds": "*",', '  "pass": true', "}"
    ]


def test_a_change_of_key_order_is_a_difference():
    parent = {"run x": ['{"a": 1, "b": 2}'], "stdout x": ["same"]}
    change = {"run x": ['{"b": 2, "a": 1}'], "stdout x": ["same"]}
    (found,) = same_runs._differences(parent, change)
    assert found.startswith("run x: line 1 differs")
    assert same_runs._differences(parent, parent) == []
