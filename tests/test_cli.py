import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import moboga
from moboga.cli import (
    EXIT_CONFIG,
    EXIT_NO_FEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VERIFY_FAILED,
    load_config,
    main,
)
from moboga.engine import STOP_THRESHOLD, EngineConfig, RunResult, explore, exploit
from moboga.nsga2 import GaConfig
from moboga.objectives import ConstraintSpec, Problem
from moboga.problems import binh_korn_problem
from moboga.record import RunRecordWriter, load_record
from moboga.space import CategoricalParam, ContinuousParam, DiscreteParam, SearchSpace


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
X_PARAM = "[param.x]\ntype = continuous\nlo = 0.1\nhi = 1\n\n"
CATEGORICAL_Y = "[param.y]\ntype = categorical\nlabels = low, high\n"


def run_args(tmp_path, *extra):
    out = tmp_path / "run.jsonl"
    return ["run", "--problem", "binh-korn", "--iters", "10", "--seed", "7",
            "-o", str(out), *extra], out


class TestRun:
    def test_smoke_run_writes_a_valid_record(self, tmp_path, capsys):
        args, out = run_args(tmp_path)
        assert main(args) == EXIT_OK
        record = load_record(str(out))
        assert record.header["problem"] == "binh-korn"
        # the default delta stops the seed-7 run on its 10th query, before the budget
        assert len(record.archive) == 9
        assert record.archive.stop_reason == STOP_THRESHOLD
        assert record.result is not None
        assert record.result.pof
        # feasibility audit: hard constraints hold over the whole archive
        problem = binh_korn_problem()
        for obs in record.archive.observations:
            assert all(c.predicate(obs.candidate) for c in problem.constraints)
        printed = capsys.readouterr().out
        assert "best candidate" in printed

    def test_missing_config_file_names_the_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG
        assert "nope.ini" in capsys.readouterr().err

    def test_unreadable_config_path_names_the_path(self, tmp_path, capsys):
        args, out = run_args(tmp_path, "--config", str(tmp_path))
        args[args.index("--iters") + 1] = "9"
        assert main(args) == EXIT_CONFIG
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iters_is_a_config_error(self, tmp_path, capsys):
        args, _ = run_args(tmp_path)
        args[args.index("--iters") + 1] = "0"
        assert main(args) == EXIT_CONFIG

    def test_no_problem_selected(self, capsys):
        assert main(["run"]) == EXIT_CONFIG
        assert "problem" in capsys.readouterr().err

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(
            "[problem]\nname = binh-korn\n\n[engine]\nseed = 1\n"
            "n_initial = 4\nmax_iterations = 6\n\n"
            "[ga]\npopulation_size = 12\ngenerations = 4\n"
        )
        out_a = tmp_path / "a.jsonl"
        monkeypatch.setenv("MOBOGA_SEED", "99")
        assert main(["run", "--config", str(cfg_path), "-o", str(out_a)]) == EXIT_OK
        assert load_record(str(out_a)).header["engine"]["seed"] == 99

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_negative_seed_exits_before_the_record_opens(self, tmp_path, capsys, monkeypatch, via):
        args, out = run_args(tmp_path)
        if via == "flag":
            args[args.index("--seed") + 1] = "-1"
        else:
            del args[args.index("--seed"):args.index("--seed") + 2]
            monkeypatch.setenv("MOBOGA_SEED", "-1")
        assert main(args) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_seed_outranks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOBOGA_SEED", "99")
        args, out = run_args(tmp_path)
        assert main(args) == EXIT_OK
        assert load_record(str(out)).header["engine"]["seed"] == 7

    def test_no_feasible_result_exit_code(self, tmp_path, monkeypatch):
        # monkeypatch a problem whose constraint rejects everything softly:
        # every observation lands infeasible, exploit then has nothing
        import moboga.cli as cli

        space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
        hopeless = Problem(
            space,
            lambda c: (c["x"],),
            ("q",),
            (ConstraintSpec("no", predicate=lambda c: False, beta=lambda c: 0.5),),
            name="hopeless",
        )
        monkeypatch.setitem(cli.BUILTIN_PROBLEMS, "hopeless", lambda: hopeless)
        monkeypatch.setattr(
            "moboga.cli.get_problem", lambda name: hopeless if name == "hopeless" else None
        )
        cfg = tmp_path / "hopeless.ini"
        cfg.write_text(
            "[problem]\nname = hopeless\n\n[engine]\nn_initial = 2\n"
            "max_iterations = 4\n\n[ga]\npopulation_size = 8\ngenerations = 3\n"
        )
        code = main(
            ["run", "--config", str(cfg), "--seed", "1", "-o", str(tmp_path / "r.jsonl")]
        )
        assert code == EXIT_NO_FEASIBLE

    def test_a_hard_region_too_small_for_the_design_exits_3(self, tmp_path, capsys):
        # sinusoid-1d's hard band [0.2, 0.6] excludes every draw from [0.2, 0.6)
        cfg = tmp_path / "band.ini"
        cfg.write_text(
            "[problem]\nname = sinusoid-1d\n\n[param.x]\ntype = continuous\nlo = 0.2\n"
            "hi = 0.6\n\n[engine]\nn_initial = 2\nmax_iterations = 4\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_RUNTIME
        assert ("initialization exhausted 200 draws without collecting 2 distinct candidates; "
                "pass initial candidates that meet the hard constraints") in capsys.readouterr().err

    def test_objective_zero_on_the_whole_front_still_recommends(
        self, tmp_path, monkeypatch, capsys
    ):
        space = SearchSpace((ContinuousParam("x", 0.0, 1.0),))
        flat = Problem(
            space, lambda c: (c["x"], 1.0 - c["x"], 0.0), ("q1", "q2", "q3"), (), name="flat"
        )
        monkeypatch.setattr("moboga.cli.get_problem", lambda name: flat)
        cfg = tmp_path / "flat.ini"
        cfg.write_text(
            "[problem]\nname = flat\n\n[engine]\nn_initial = 3\n"
            "max_iterations = 6\n\n[ga]\npopulation_size = 8\ngenerations = 3\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--seed", "1", "-o", str(out)]) == EXIT_OK
        assert "best candidate" in capsys.readouterr().out
        result = load_record(str(out)).result
        assert len(result.pof) > 1 and result.best_index in result.pof
        assert main(["front", str(out)]) == EXIT_OK


class TestConfigFile:
    def test_unknown_key_is_named(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[engine]\nbogus = 1\n")
        with pytest.raises(Exception, match="engine.bogus"):
            load_config(str(cfg))

    def test_ga_seed_is_an_unknown_key(self, tmp_path, capsys):
        # the run's generator reseeds the GA on every proposal
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nname = binh-korn\n\n[engine]\nn_initial = 2\nmax_iterations = 3\n\n"
            "[ga]\npopulation_size = 8\ngenerations = 2\nseed = 3\n"
        )
        assert main(["run", "--config", str(cfg), "-o", str(tmp_path / "r.jsonl")]) == EXIT_CONFIG
        assert "ga.seed: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, section",
        [
            ("[DEFAULT]\nseed = 3\n\n[problem]\nname = binh-korn\n", "[DEFAULT]"),
            ("[problem]\nname = binh-korn\n\n[engin]\nseed = 4\n", "[engin]"),
        ],
        ids=["default", "misspelt-engine"],
    )
    def test_unknown_section_is_named(self, tmp_path, capsys, text, section):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--iters", "9", "-o", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{section}: unknown section" in err
        assert "problem.seed" not in err  # [DEFAULT] keys are not merged into [problem]
        assert not out.exists()

    def test_next_pick_all_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[problem]\nname = binh-korn\n\n[engine]\nnext_pick = all\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--iters", "9", "-o", str(out)]) == EXIT_CONFIG
        assert "next_pick" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_space_sections(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nname = binh-korn\n\n"
            "[param.x]\ntype = continuous\nlo = 0\nhi = 2\n\n"
            "[param.y]\ntype = continuous\nlo = 0\nhi = 1\n"
        )
        settings = load_config(str(cfg))
        assert settings["space"].names == ("x", "y")

    @pytest.mark.parametrize(
        "body, key",
        [
            ("type = continuous\nlo = 0\n", "param.x.hi"),
            ("type = continuous\nlo = 0\nhi = 1\nstep = 3\n", "param.x.step"),
        ],
        ids=["missing-hi", "unknown-step"],
    )
    def test_param_section_keys_are_checked(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[problem]\nevaluator = binh-korn\n\n[param.x]\n{body}")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_weights_parse(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[objectives]\nweights = 2, 1\n")
        assert load_config(str(cfg))["weights"] == [2.0, 1.0]

    def test_evaluator_by_name_over_custom_space(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nevaluator = binh-korn\nconstraints = binh-korn\n\n"
            "[engine]\nn_initial = 3\nmax_iterations = 5\n\n"
            "[ga]\npopulation_size = 8\ngenerations = 3\n\n"
            "[param.x]\ntype = continuous\nlo = 0\nhi = 3\n\n"
            "[param.y]\ntype = continuous\nlo = 0\nhi = 2\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--seed", "2", "-o", str(out)]) == EXIT_OK
        record = load_record(str(out))
        assert record.header["objective_names"] == ["q1", "q2"]
        assert record.header["constraint_names"] == ["c1", "c2"]
        # custom bounds respected
        assert all(o.candidate["x"] <= 3.0 for o in record.archive.observations)

    def test_unknown_evaluator_name_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nevaluator = mystery\n\n"
            "[param.x]\ntype = continuous\nlo = 0\nhi = 1\n"
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "problem.evaluator" in capsys.readouterr().err

    def test_failing_constraint_predicate_is_a_runtime_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing():
            return (ConstraintSpec("c1", predicate=lambda c: 1 / 0),)

        monkeypatch.setitem(moboga.problems.CONSTRAINT_SETS, "failing", failing)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nevaluator = binh-korn\nconstraints = failing\n\n"
            "[engine]\nn_initial = 3\nmax_iterations = 5\n\n"
            "[ga]\npopulation_size = 8\ngenerations = 3\n\n"
            "[param.y]\ntype = continuous\nlo = 0\nhi = 2\n\n"
            "[param.x]\ntype = continuous\nlo = 0\nhi = 3\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and "constraint 'c1'" in err

    @pytest.mark.parametrize(
        "problem, params, key",
        [
            ("evaluator = binh-korn", X_PARAM, "problem.evaluator"),
            ("evaluator = sinusoid-1d\nconstraints = binh-korn", X_PARAM, "problem.constraints"),
            ("name = constr-ex", X_PARAM, "problem.name"),
            ("name = sinusoid-1d\nevaluator = constr-ex", X_PARAM, "problem.evaluator"),
            ("name = sinusoid-1d\nevaluator = binh-korn", "", "problem.evaluator"),
            ("name = sinusoid-1d\nconstraints = binh-korn", "", "problem.constraints"),
            ("evaluator = sinusoid-1d\nconstraints = binh-korn", X_PARAM + CATEGORICAL_Y,
             "problem.constraints"),
            ("name = binh-korn", X_PARAM + CATEGORICAL_Y, "problem.name"),
        ],
        ids=["evaluator", "constraints", "name", "name-evaluator", "named-space-evaluator",
             "named-space-constraints", "categorical-constraints", "categorical-name"],
    )
    def test_space_missing_a_parameter_the_builtin_reads_is_a_config_error(
        self, tmp_path, capsys, problem, params, key
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[problem]\n{problem}\n\n{params}")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key}:" in err and "'y'" in err
        assert not out.exists()

    def test_discrete_parameter_the_builtin_reads_runs(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nname = binh-korn\n\n"
            "[engine]\nn_initial = 3\nmax_iterations = 5\n\n"
            "[ga]\npopulation_size = 8\ngenerations = 3\n\n"
            f"{X_PARAM}[param.y]\ntype = discrete\nvalues = 0, 1, 2\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--seed", "2", "-o", str(out)]) == EXIT_OK
        assert {o.candidate["y"] for o in load_record(str(out)).archive.observations} <= {0, 1, 2}

    def test_space_need_not_hold_what_an_override_no_longer_reads(self, tmp_path):
        # constr-ex reads x and y, but both of its parts are replaced by sinusoid-1d's
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nname = constr-ex\nevaluator = sinusoid-1d\n"
            "constraints = sinusoid-1d\n\n"
            "[engine]\nn_initial = 3\nmax_iterations = 4\n\n"
            "[ga]\npopulation_size = 8\ngenerations = 2\n\n"
            "[param.x]\ntype = continuous\nlo = 0\nhi = 1.2\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_OK
        assert load_record(str(out)).header["objective_names"] == ["q"]

    @pytest.mark.parametrize("key", ["sbx_eta", "pm_eta"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "0"])
    def test_bad_distribution_index_exits_before_any_evaluation(
        self, tmp_path, capsys, key, raw
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[problem]\nname = binh-korn\n\n[engine]\nn_initial = 4\nmax_iterations = 6\n\n"
            f"[ga]\npopulation_size = 8\ngenerations = 2\n{key} = {raw}\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_CONFIG
        assert "distribution indices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["-1, 1", "0, 1", "nan, 1", "inf, 1", "1, 1, 1"])
    def test_bad_weights_exit_before_any_evaluation(self, tmp_path, capsys, raw):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[problem]\nname = binh-korn\n\n[objectives]\nweights = {raw}\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "-o", str(out)]) == EXIT_CONFIG
        assert "objectives.weights" in capsys.readouterr().err
        assert not out.exists()


class TestFront:
    def make_record(self, tmp_path):
        args, out = run_args(tmp_path)
        assert main(args) == EXIT_OK
        return out

    def test_csv_row_per_observation(self, tmp_path):
        record_path = self.make_record(tmp_path)
        csv_path = tmp_path / "front.csv"
        assert main(["front", str(record_path), "-o", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("candidate_id,x,y,q1,q2,on_front,is_best,closeness")
        assert len(rows) == 9  # the run stops on its 10th query (default delta)
        assert load_record(str(record_path)).archive.stop_reason == STOP_THRESHOLD

    def test_front_flags_and_closeness_columns(self, tmp_path):
        record_path = self.make_record(tmp_path)
        csv_path = tmp_path / "front.csv"
        main(["front", str(record_path), "-o", str(csv_path)])
        record = load_record(str(record_path))
        lines = csv_path.read_text().strip().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        on_front = [int(c[-3]) for c in cells]
        is_best = [int(c[-2]) for c in cells]
        closeness = [c[-1] for c in cells]
        assert sum(on_front) == len(record.result.pof)
        assert sum(is_best) == 1
        best_row = is_best.index(1)
        assert on_front[best_row] == 1
        for flag, cl in zip(on_front, closeness):
            assert (cl != "") == bool(flag)

    def test_output_is_byte_identical_across_reruns(self, tmp_path):
        record_path = self.make_record(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["front", str(record_path), "-o", str(a)])
        main(["front", str(record_path), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_a_header_whose_ga_block_carries_a_seed_still_loads(self, tmp_path):
        # records written before the GA seed left GaConfig hold "ga": {..., "seed": 0}
        record_path = self.make_record(tmp_path)
        lines = record_path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert "seed" not in header["ga"]
        header["ga"]["seed"] = 0
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        got, want = load_record(str(old)).result, load_record(str(record_path)).result
        assert got.pof == want.pof and got.best_index == want.best_index
        assert got.closeness == want.closeness
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["front", str(record_path), "-o", str(a)]) == EXIT_OK
        assert main(["front", str(old), "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_record_is_a_valid_prefix(self, tmp_path):
        record_path = self.make_record(tmp_path)
        lines = record_path.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        # keep the header and four observations, then simulate a mid-write kill
        torn.write_text("".join(lines[:5]) + '{"kind": "obser')
        record = load_record(str(torn))
        assert len(record.archive) == 4
        assert record.result is None
        csv_path = tmp_path / "torn.csv"
        assert main(["front", str(torn), "-o", str(csv_path)]) == EXIT_OK
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_malformed_record_is_a_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n{}\n")
        assert main(["front", str(bad), "-o", str(tmp_path / "x.csv")]) == 3
        bad.write_text("[1, 2]\n{}\n")
        assert main(["front", str(bad), "-o", str(tmp_path / "x.csv")]) == 3

    HEADER = {
        "kind": "header",
        "format_version": 1,
        "space": [{"name": "x", "type": "continuous", "lo": 0.0, "hi": 1.0}],
        "objective_names": ["q"],
    }
    OBSERVATION = {
        "kind": "observation",
        "iteration": 0,
        "values": {"x": 0.5},
        "encoded": [0.5],
        "objectives": [1.0],
        "feasible": True,
    }

    def front_of(self, tmp_path, *docs):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        return main(["front", str(path), "-o", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize(
        "space", [[1, 2], "xy", [{"name": "x", "type": "weird"}]],
        ids=["list-of-numbers", "string", "unknown-type"],
    )
    def test_header_with_bad_space_entry_is_a_runtime_error(self, tmp_path, capsys, space):
        header = dict(self.HEADER, space=space)
        assert self.front_of(tmp_path, header, self.OBSERVATION) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 1" in err and "space entry" in err

    @pytest.mark.parametrize("missing", ["space", "objective_names"])
    def test_header_without_required_field_is_a_runtime_error(self, tmp_path, capsys, missing):
        header = {k: v for k, v in self.HEADER.items() if k != missing}
        assert self.front_of(tmp_path, header, self.OBSERVATION) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 1" in err and missing in err

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"name": "x", "type": "continuous", "lo": 0.0}, "param.x.hi"),
            ({"name": "x", "type": "continuous", "lo": 0.0, "hi": 1.0, "step": 3}, "param.x.step"),
            ({"name": "x", "type": "continuous", "lo": "0", "hi": 1.0}, "line 1"),
        ],
        ids=["missing-hi", "unknown-step", "string-lo"],
    )
    def test_header_space_entry_keys_are_checked(self, tmp_path, capsys, entry, named):
        header = dict(self.HEADER, space=[entry])
        assert self.front_of(tmp_path, header, self.OBSERVATION) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 1" in err and named in err

    def test_malformed_observation_field_is_a_runtime_error(self, tmp_path, capsys):
        bad = dict(self.OBSERVATION, iteration="one")
        assert self.front_of(tmp_path, self.HEADER, bad) == EXIT_RUNTIME
        assert "line 2" in capsys.readouterr().err

    def test_result_line_without_front_is_a_runtime_error(self, tmp_path, capsys):
        result = {"kind": "result", "stop_reason": "max_iterations", "iterations_used": 1}
        assert self.front_of(tmp_path, self.HEADER, self.OBSERVATION, result) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3" in err and "pof" in err


    @pytest.mark.parametrize(
        "values, culprit",
        [({"x": 99.0}, "'x'"), ({"x": 0.5, "z": 1.0}, "'z'")],
        ids=["outside-bounds", "extra-parameter"],
    )
    def test_observation_outside_the_space_is_a_runtime_error(
        self, tmp_path, capsys, values, culprit
    ):
        bad = dict(self.OBSERVATION, values=values)
        assert self.front_of(tmp_path, self.HEADER, bad) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 2" in err and culprit in err

    @pytest.mark.parametrize(
        "second, culprit",
        [(dict(OBSERVATION, iteration=1), "duplicate"),
         (dict(OBSERVATION, values={"x": 0.25}, encoded=[0.25], iteration=-1), "non-decreasing")],
        ids=["repeated-encoding", "falling-iteration"],
    )
    def test_observation_the_archive_refuses_is_a_record_error(
        self, tmp_path, capsys, second, culprit
    ):
        assert self.front_of(tmp_path, self.HEADER, self.OBSERVATION, second) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "line 3" in err and culprit in err

    def test_unknown_stop_reason_is_a_runtime_error(self, tmp_path, capsys):
        result = dict(self.RESULT, stop_reason=5)
        assert self.front_of(tmp_path, self.HEADER, self.OBSERVATION, result) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3" in err and "stop_reason" in err

    def test_encoded_copied_from_another_line_is_a_runtime_error(self, tmp_path, capsys):
        second = dict(self.OBSERVATION, iteration=1, values={"x": 0.25})  # keeps [0.5]
        assert self.front_of(tmp_path, self.HEADER, self.OBSERVATION, second) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3" in err and "encoded" in err and "duplicate" not in err

    @pytest.mark.parametrize(
        "weights",
        [[1.0], [1.0, 0.0], [1.0, -2.0], [1.0, "a"], [1.0, True], [1.0, float("inf")], "1, 1"],
    )
    def test_header_with_bad_weights_is_a_runtime_error(self, tmp_path, capsys, weights):
        header = dict(self.HEADER, objective_names=["q", "r"], weights=weights)
        obs = dict(self.OBSERVATION, objectives=[1.0, 2.0])
        assert self.front_of(tmp_path, header, obs) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 1" in err and "weights" in err

    RESULT = {
        "kind": "result",
        "pof": [0],
        "best_index": 0,
        "closeness": [[0, 1.0]],
        "stop_reason": "max_iterations",
        "iterations_used": 1,
    }

    @pytest.mark.parametrize(
        "change, culprit",
        [
            ({"closeness": []}, "closeness"),
            ({"pof": [0, 999], "best_index": 999, "closeness": [[0, 1.0], [999, 0.5]]},
             "outside"),
            ({"best_index": 5}, "best_index"),
            ({"iterations_used": 0}, "iterations_used"),
            ({"iterations_used": 2}, "iterations_used"),
            ({"pof": [0, 0]}, "pof"),
            ({"closeness": [[0, 1.0], [0, 0.25]]}, "closeness"),
        ],
        ids=[
            "closeness-misses-pof", "pof-outside-archive", "best-not-on-front",
            "iterations-used-short", "iterations-used-long", "pof-repeats", "closeness-repeats",
        ],
    )
    def test_result_line_inconsistent_with_the_archive_is_a_runtime_error(
        self, tmp_path, capsys, change, culprit
    ):
        result = dict(self.RESULT, **change)
        assert self.front_of(tmp_path, self.HEADER, self.OBSERVATION, result) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3" in err and culprit in err

    def test_result_line_with_an_infeasible_front_member_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        infeasible = dict(self.OBSERVATION, feasible=False)
        assert self.front_of(tmp_path, self.HEADER, infeasible, self.RESULT) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3" in err and "pof" in err and "infeasible" in err

    @pytest.mark.parametrize(
        "after",
        [dict(OBSERVATION, values={"x": 0.25}, encoded=[0.25]), RESULT],
        ids=["observation", "second-result"],
    )
    def test_line_after_the_result_line_is_a_runtime_error(self, tmp_path, capsys, after):
        docs = (self.HEADER, self.OBSERVATION, self.RESULT, after)
        assert self.front_of(tmp_path, *docs) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 4" in err and "follows the result line" in err

    def test_torn_line_after_the_result_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        docs = (self.HEADER, self.OBSERVATION, self.RESULT)
        path.write_text("".join(json.dumps(d) + "\n" for d in docs) + '{"kind": "obser')
        record = load_record(str(path))
        assert len(record.archive) == 1 and record.result.pof == [0]


class TestVerify:
    def test_unknown_name_is_a_config_error(self, tmp_path):
        assert main(["verify", "unknown-thing", "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("args", [[], ["binh-korn", "--all"]], ids=["neither", "both"])
    def test_needs_exactly_one_of_name_and_all(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:  # an argparse usage error
            main(["verify", *args, "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG

    @pytest.fixture
    def stub_studies(self, monkeypatch):
        """Replace the three studies with instant stubs; returns the names to fail."""
        import moboga.cli as cli

        failing = set()

        def study(name, out_dir):
            return name not in failing, {"benchmark": name}

        monkeypatch.setattr(cli, "_verify_study", study)
        return failing

    def test_all_runs_every_study_into_out_dir(self, tmp_path, stub_studies):
        assert main(["verify", "--all", "--out-dir", str(tmp_path)]) == EXIT_OK
        for name in ("binh-korn", "constr-ex", "sinusoid-1d"):
            metrics = json.loads(
                (tmp_path / f"verify_{name.replace('-', '_')}" / "metrics.json").read_text()
            )
            assert metrics == {"benchmark": name, "pass": True}

    @pytest.mark.parametrize("bad", ["binh-korn", "sinusoid-1d"])
    def test_all_exits_5_when_any_study_fails(self, tmp_path, capsys, stub_studies, bad):
        stub_studies.add(bad)
        assert main(["verify", "--all", "--out-dir", str(tmp_path)]) == EXIT_VERIFY_FAILED
        # the other studies still ran
        assert len(list(tmp_path.glob("verify_*/metrics.json"))) == 3
        assert f"verification FAILED for {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, header, counts",
        [
            ("constr-ex", "q1,q2", {"moboga_front.csv": "front_size", "oracle_front.csv": None}),
            ("sinusoid-1d", "x,q", {"moboga_queries.csv": "evaluations", "oracle_curve.csv": 1000}),
        ],
        ids=["constr-ex", "sinusoid-1d"],
    )
    def test_study_writes_two_csvs_under_a_header_row(self, tmp_path, name, header, counts):
        """Each count of data rows is a metrics key, a number, or None for any."""
        assert main(["verify", name, "--out-dir", str(tmp_path)]) == EXIT_OK
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(counts)
        for filename, count in counts.items():
            lines = (tmp_path / filename).read_text().splitlines()
            assert lines[0] == header and len(lines) > 1
            if count is not None:
                assert len(lines) - 1 == (metrics[count] if isinstance(count, str) else count)

    @pytest.mark.parametrize("name", ["binh-korn", "constr-ex"])
    def test_the_canonical_config_is_the_study_it_stands_for(self, monkeypatch, name):
        """configs/<name>.ini builds the engine config that ``verify <name>`` runs."""
        import moboga.cli as cli

        monkeypatch.delenv("MOBOGA_SEED", raising=False)
        path = CONFIGS / f"{name.replace('-', '_')}.ini"
        cfg = cli._build_engine_config(load_config(str(path)), argparse.Namespace())
        assert cfg == cli._STUDIES[name][0]

    def test_problems_lists_builtins(self, capsys):
        assert main(["problems"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("binh-korn", "constr-ex", "sinusoid-1d"):
            assert name in out


class TestRecordRoundTrip:
    @pytest.mark.parametrize("next_pick", ["topsis", lambda pm: 0], ids=["topsis", "callable"])
    def test_header_holds_every_engine_field_and_a_callable_pick_as_custom(self, next_pick):
        cfg = EngineConfig(n_initial=3, max_iterations=9, delta=0.5, next_pick=next_pick, seed=4)
        fh = io.StringIO()
        problem = binh_korn_problem()
        RunRecordWriter(fh, problem_name=problem.name, space=problem.space,
                        objective_names=problem.objective_names, constraint_names=[],
                        cfg=cfg, weights=None)
        header = json.loads(fh.getvalue())
        assert header["engine"] == {"n_initial": 3, "max_iterations": 9, "delta": 0.5,
                                    "next_pick": "topsis" if next_pick == "topsis" else "custom",
                                    "seed": 4}
        assert list(header["engine"]) == [f.name for f in dataclasses.fields(cfg) if f.name != "ga"]

    def test_exploit_is_rerunnable_from_the_record_alone(self, tmp_path):
        problem = binh_korn_problem()
        cfg = EngineConfig(
            n_initial=5, max_iterations=9, ga=GaConfig(population_size=16, generations=5),
            seed=13,
        )
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            writer = RunRecordWriter(
                fh,
                problem_name=problem.name,
                space=problem.space,
                objective_names=problem.objective_names,
                constraint_names=[c.name for c in problem.constraints],
                cfg=cfg,
                weights=None,
            )
            archive = explore(problem, cfg, on_observation=writer.observation)
            result = exploit(archive)
            writer.result(result)

        record = load_record(str(path))
        replayed = exploit(record.archive, record.weights)
        assert replayed.pof == result.pof
        assert replayed.best_index == result.best_index
        assert replayed.closeness == pytest.approx(result.closeness)
        loaded = record.result
        assert isinstance(loaded, RunResult) and loaded.archive is record.archive
        assert (loaded.pof, loaded.best_index) == (result.pof, result.best_index)
        assert loaded.closeness == result.closeness
        assert record.archive.stop_reason == archive.stop_reason

    def test_mixed_space_record_reloads_with_the_same_encodings(self, tmp_path):
        space = SearchSpace((
            ContinuousParam("rate", 0.0, 0.6),
            DiscreteParam("width", (16, 32, 64)),
            CategoricalParam("act", ("relu", "tanh", "gelu")),
        ))
        problem = Problem(
            space,
            lambda c: (c["rate"] + c["width"] / 64, float(c["act"] == "relu") - c["rate"]),
            ("a", "b"),
        )
        cfg = EngineConfig(
            n_initial=4, max_iterations=6, ga=GaConfig(population_size=8, generations=2),
            seed=3,
        )
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            writer = RunRecordWriter(
                fh,
                problem_name="mixed",
                space=space,
                objective_names=problem.objective_names,
                constraint_names=[],
                cfg=cfg,
                weights=[1, 2.5],
            )
            archive = explore(problem, cfg, on_observation=writer.observation)
            writer.result(exploit(archive, [1, 2.5]))

        record = load_record(str(path))
        assert record.weights == [1, 2.5]
        assert len(record.archive) == len(archive)
        for got, want in zip(record.archive.observations, archive.observations):
            assert got.candidate.values == want.candidate.values
            assert np.array_equal(got.encoded, want.encoded)


def run_python(*args):
    """Run the interpreter on args with this checkout's moboga importable."""
    src = Path(moboga.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_moboga_runs_the_cli():
    done = run_python("-m", "moboga", "--help")
    assert done.returncode == EXIT_OK, done.stderr
    assert "verify" in done.stdout


def test_custom_problem_example_prints_a_front():
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_custom_problem.py"
    done = run_python(str(script), "--budget", "10")
    assert done.returncode == 0, done.stderr
    assert "front:" in done.stdout.splitlines()


def test_all_is_every_public_name_of_the_package_and_no_module():
    public = {name for name, value in vars(moboga).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == moboga.__all__
    assert len(moboga.__all__) == 46
    for name in moboga.__all__:
        assert hasattr(moboga, name) and not name.startswith("_")
        assert not isinstance(getattr(moboga, name), types.ModuleType)


def test_import_loads_no_scipy_module():
    done = run_python("-c", "import sys, moboga, moboga.cli; "
                            "print([m for m in sys.modules if m.startswith('scipy')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
