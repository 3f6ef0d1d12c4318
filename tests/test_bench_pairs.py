"""The verdict that scripts/bench_pairs.py gives each metric, on synthetic samples."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "propose_p50_s", "better": "lower", "bound": 0.24}
HIGHER = {"name": "hv_ratio", "better": "higher", "bound": 0.2}
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartile gap 0.045


def verdict(parent, change, metric=LOWER):
    return bench_pairs._compare(parent, change, metric)["verdict"]


def test_better_needs_nine_of_ten_wins_and_a_gap_past_the_parents_quartiles():
    assert verdict(PARENT, [p - 0.1 for p in PARENT]) == "better"
    assert verdict(PARENT, [p + 0.1 for p in PARENT], HIGHER) == "better"
    nine = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert verdict(PARENT, nine) == "better"
    eight = [p - 0.1 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert verdict(PARENT, eight) == "unchanged"
    # every pair won, but the medians differ by less than the parent's gap
    assert verdict(PARENT, [p - 0.01 for p in PARENT]) == "unchanged"


def test_ties_count_for_neither_side():
    got = bench_pairs._compare(PARENT, list(PARENT), HIGHER)
    assert (got["change_wins"], got["ties"], got["verdict"]) == (0, 10, "unchanged")
    tied = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
    got = bench_pairs._compare(PARENT, tied, LOWER)
    assert (got["change_wins"], got["ties"], got["verdict"]) == (8, 2, "unchanged")


@pytest.mark.parametrize("metric, shift", [(LOWER, 0.3), (HIGHER, -0.25)], ids=["lower", "higher"])
def test_worse_is_a_median_past_the_bound_of_the_parents_median(metric, shift):
    # bound 0.24 (0.2) of the parent's median 1.045 is 0.251 (0.209)
    assert verdict(PARENT, [p + shift for p in PARENT], metric) == "worse"
    assert verdict(PARENT, [p + shift * 0.75 for p in PARENT], metric) == "unchanged"


def test_worse_comes_before_unresolved():
    wide = [1.3, 1.3, 1.3, 1.3, 1.3, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert verdict(PARENT, wide) == "worse"


def test_unresolved_when_either_side_spreads_past_the_bound():
    wide = [0.7, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.4]  # quartile gap 0.5
    assert verdict(PARENT, wide) == "unresolved"
    assert verdict(wide, [p + 0.01 for p in wide]) == "unresolved"


def test_unchanged_inside_the_bound_and_the_spread():
    noisy = [p + (0.02 if i % 2 else -0.02) for i, p in enumerate(PARENT)]
    got = bench_pairs._compare(PARENT, noisy, LOWER)
    assert (got["change_wins"], got["verdict"]) == (5, "unchanged")
    assert got["parent_quartiles"] == [1.0225, 1.0675]


def test_below_ten_pairs_a_win_reads_too_few_pairs_but_worse_and_unresolved_still_report():
    five = PARENT[:5]  # quartile gap 0.02
    assert verdict(five, [p - 0.1 for p in five]) == "too few pairs"
    assert verdict(five, [p + 0.1 for p in five], HIGHER) == "too few pairs"
    assert verdict(five, [p + 0.3 for p in five]) == "worse"
    wide = [0.5, 0.6, 0.7, 0.9, 0.95]  # every pair won, quartile gap 0.3
    assert verdict(five, wide) == "unresolved"
    assert verdict(five, [p - 0.01 for p in five]) == "unchanged"
