"""scripts/fit_replay.py captures a benchmark run's GP fits and replays them exactly."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fit_replay.py"
_spec = importlib.util.spec_from_file_location("fit_replay", SCRIPT)
fit_replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_replay)


def test_binh_korn_searches_every_fit_and_replays_them_bit_for_bit():
    calls = fit_replay.capture("binh-korn", 1)
    # 6 proposals x 2 objectives; an archive of at most 20 points searches every time
    assert [c[0] for c in calls] == ["cold search"] * 2 + ["warm search"] * 10
    times, faults = fit_replay.replay(calls)  # exits if a replayed fit differs
    assert [len(times[k]) for k in fit_replay.KINDS] == [2, 10, 0, 0]
    assert set(faults) == set(fit_replay.KINDS)


def test_deep_archive_extends_every_fit_between_its_searches_and_replays_them_bit_for_bit():
    calls = fit_replay.capture("deep-archive", 1)
    # one search at n = 150, then 9 proposals x 2 objectives that keep theta
    assert [c[0] for c in calls] == ["cold search"] * 2 + ["extension"] * 18
    for (_, X, _, _, _, keep, model), prev in zip(calls[2:], calls):
        assert keep is prev[-1] and len(X) == len(keep.train_inputs) + 1
        assert model.chol.shape == (len(X), len(X))
    times, _ = fit_replay.replay(calls)
    assert [len(times[k]) for k in fit_replay.KINDS] == [2, 0, 18, 0]


def test_main_prints_one_row_per_kind_seen_and_the_whole_replay(capsys):
    assert fit_replay.main(["--workload", "binh-korn", "--replays", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "kind,calls,median_s,minflt_per_replay"
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["cold search", "2"], ["warm search", "10"], ["all", "12"]
    ]
