"""Command-line front end: run, front, verify, problems.

Exit codes: 0 success, 2 configuration error (the message names the offending
key or path), 3 runtime error, 4 no feasible result, 5 verification thresholds
missed.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import Any, Optional, Sequence

import numpy as np

from .engine import (
    EngineConfig,
    EngineError,
    NoFeasibleResultError,
    RunResult,
    exploit,
    run as run_engine,
)
from .objectives import EvaluationError, Problem, all_satisfied
from .pareto import generational_distance, objective_diagonal
from .problems import (
    BUILTIN_PROBLEMS,
    BenchmarkConfigError,
    get_problem,
    grid_reference_front,
    sinusoid_1d,
)
from .record import LoadedRecord, RecordError, RunRecordWriter, load_record
from .space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
)
from .surrogate import GpNumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_FEASIBLE = 4
EXIT_VERIFY_FAILED = 5

SEED_ENV_VAR = "MOBOGA_SEED"

_VERIFY_SEEDS = {"binh-korn": 7, "constr-ex": 7, "sinusoid-1d": 3}


class ConfigError(ValueError):
    """Bad config file or command-line setting; message names the culprit."""


# ---------------------------------------------------------------------------
# config file parsing


_ENGINE_KEYS = {"seed", "n_initial", "max_iterations", "delta", "next_pick"}
_GA_KEYS = {
    "population_size",
    "generations",
    "crossover_prob",
    "mutation_prob",
    "sbx_eta",
    "pm_eta",
    "seed",
}


def _parse_number(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None


def _parse_float_list(section: str, key: str, raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None


def _space_from_config(parser: configparser.ConfigParser) -> Optional[SearchSpace]:
    params = []
    for section in parser.sections():
        if not section.startswith("param."):
            continue
        name = section[len("param."):]
        kind = parser.get(section, "type", fallback=None)
        if kind == "continuous":
            lo = _parse_number(section, "lo", parser.get(section, "lo"), float)
            hi = _parse_number(section, "hi", parser.get(section, "hi"), float)
            params.append(ContinuousParam(name, lo, hi))
        elif kind == "discrete":
            values = _parse_float_list(section, "values", parser.get(section, "values"))
            params.append(DiscreteParam(name, tuple(values)))
        elif kind == "categorical":
            labels = [t.strip() for t in parser.get(section, "labels").split(",") if t.strip()]
            params.append(CategoricalParam(name, tuple(labels)))
        else:
            raise ConfigError(f"{section}.type: unknown parameter type {kind!r}")
    if not params:
        return None
    return SearchSpace(tuple(params))


def load_config(path: Optional[str]) -> dict[str, Any]:
    """Read the INI-style config into a plain settings dict."""
    settings: dict[str, Any] = {
        "problem": None,
        "evaluator": None,
        "constraints": None,
        "space": None,
        "engine": {},
        "ga": {},
        "weights": None,
    }
    if path is None:
        return settings
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if parser.has_section("problem"):
        for key in parser.options("problem"):
            if key not in ("name", "evaluator", "constraints"):
                raise ConfigError(f"problem.{key}: unknown key")
        settings["problem"] = parser.get("problem", "name", fallback=None)
        settings["evaluator"] = parser.get("problem", "evaluator", fallback=None)
        settings["constraints"] = parser.get("problem", "constraints", fallback=None)

    if parser.has_section("engine"):
        for key in parser.options("engine"):
            if key not in _ENGINE_KEYS:
                raise ConfigError(f"engine.{key}: unknown key")
            raw = parser.get("engine", key)
            if key in ("seed", "n_initial", "max_iterations"):
                settings["engine"][key] = _parse_number("engine", key, raw, int)
            elif key == "delta":
                settings["engine"][key] = _parse_number("engine", key, raw, float)
            else:
                settings["engine"][key] = raw

    if parser.has_section("ga"):
        for key in parser.options("ga"):
            if key not in _GA_KEYS:
                raise ConfigError(f"ga.{key}: unknown key")
            raw = parser.get("ga", key)
            if key in ("population_size", "generations", "seed"):
                settings["ga"][key] = _parse_number("ga", key, raw, int)
            else:
                settings["ga"][key] = _parse_number("ga", key, raw, float)

    if parser.has_section("objectives"):
        for key in parser.options("objectives"):
            if key != "weights":
                raise ConfigError(f"objectives.{key}: unknown key")
        settings["weights"] = _parse_float_list(
            "objectives", "weights", parser.get("objectives", "weights")
        )

    settings["space"] = _space_from_config(parser)
    return settings


def _build_problem(settings: dict[str, Any], cli_problem: Optional[str]) -> Problem:
    from .problems import CONSTRAINT_SETS, EVALUATORS

    name = cli_problem or settings["problem"]
    evaluator_name = settings.get("evaluator")
    if name is None and evaluator_name is None:
        raise ConfigError("problem.name: no problem selected (use --problem or the config file)")

    if name is not None:
        try:
            problem = get_problem(name)
        except BenchmarkConfigError as exc:
            raise ConfigError(f"problem.name: {exc}") from exc
    elif settings["space"] is None:
        raise ConfigError("problem.evaluator: needs [param.*] sections for the space")
    if evaluator_name is not None:
        if evaluator_name not in EVALUATORS:
            raise ConfigError(f"problem.evaluator: unknown evaluator {evaluator_name!r}")
        evaluator, objective_names = EVALUATORS[evaluator_name]
        if name is None:
            # evaluator-by-name over a custom space
            problem = Problem(
                settings["space"], evaluator, objective_names, (), name=evaluator_name
            )
        else:
            problem = dataclasses.replace(
                problem, evaluator=evaluator, objective_names=objective_names
            )
    if settings.get("constraints") is not None:
        cname = settings["constraints"]
        if cname not in CONSTRAINT_SETS:
            raise ConfigError(f"problem.constraints: unknown constraint set {cname!r}")
        problem = dataclasses.replace(problem, constraints=tuple(CONSTRAINT_SETS[cname]()))
    if settings["space"] is not None:
        problem = dataclasses.replace(problem, space=settings["space"])
    return problem


def _build_engine_config(
    settings: dict[str, Any], args: argparse.Namespace
) -> EngineConfig:
    engine_kwargs = dict(settings["engine"])
    ga_kwargs = dict(settings["ga"])

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        engine_kwargs["seed"] = _parse_number("env", SEED_ENV_VAR, env_seed, int)
    if getattr(args, "seed", None) is not None:
        engine_kwargs["seed"] = args.seed
    if getattr(args, "iters", None) is not None:
        engine_kwargs["max_iterations"] = args.iters

    try:
        ga = dataclasses.replace(EngineConfig().ga, **ga_kwargs)
        return EngineConfig(ga=ga, **engine_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"engine settings invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _print_result(problem: Problem, result: RunResult) -> None:
    names = list(problem.space.names)
    obj_names = list(problem.objective_names)
    head = ["id"] + names + obj_names + ["closeness"]
    rows = []
    for idx in result.pof:
        obs = result.archive.observations[idx]
        row = [str(idx)]
        row += [_fmt(obs.candidate.values[n]) for n in names]
        row += [_fmt(v) for v in obs.objectives]
        row.append(_fmt(result.closeness[idx]))
        rows.append(row)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(head)]
    print("Pareto-optimal observations:")
    print("  " + "  ".join(h.ljust(w) for h, w in zip(head, widths)))
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    best = result.archive.observations[result.best_index]
    print(f"best candidate (id {result.best_index}): {best.candidate.values}")
    print(
        f"stop reason: {result.stop_reason}; evaluations: {result.iterations_used}; "
        f"front size: {len(result.pof)}"
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def cmd_run(args: argparse.Namespace) -> int:
    settings = load_config(args.config)
    problem = _build_problem(settings, args.problem)
    cfg = _build_engine_config(settings, args)
    weights = settings["weights"]
    if weights is not None and len(weights) != problem.n_objectives:
        raise ConfigError(
            f"objectives.weights: expected {problem.n_objectives} entries, got {len(weights)}"
        )

    out_path = args.out or "moboga_run.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        writer = RunRecordWriter(
            fh,
            problem_name=problem.name,
            space=problem.space,
            objective_names=problem.objective_names,
            constraint_names=[c.name for c in problem.constraints],
            cfg=cfg,
            weights=weights,
        )
        result = run_engine(problem, cfg, weights=weights, on_observation=writer.observation)
        writer.result(result)
    _print_result(problem, result)
    print(f"run record written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# front


def _front_rows(record: LoadedRecord) -> tuple[list[str], list[list[str]]]:
    archive = record.archive
    if record.result is not None:
        res = record.result
        pof, best, closeness = res["pof"], res["best_index"], res["closeness"]
    else:
        # interrupted run: recompute the front from the observation prefix
        try:
            res = exploit(archive, record.weights)
            pof, best, closeness = res.pof, res.best_index, res.closeness
        except NoFeasibleResultError:
            pof, best, closeness = [], -1, {}

    param_names = list(record.space.names)
    header = ["candidate_id"] + param_names + record.objective_names
    header += ["on_front", "is_best", "closeness"]
    rows = []
    for idx, obs in enumerate(archive.observations):
        row = [str(idx)]
        row += [_csv_value(obs.candidate.values[n]) for n in param_names]
        row += [repr(float(v)) for v in obs.objectives]
        on_front = idx in pof
        row.append("1" if on_front else "0")
        row.append("1" if idx == best else "0")
        row.append(repr(closeness[idx]) if on_front else "")
        rows.append(row)
    return header, rows


def _csv_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def cmd_front(args: argparse.Namespace) -> int:
    record = load_record(args.record)
    header, rows = _front_rows(record)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    with out as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    if args.out:
        print(f"front data written to {args.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _write_objectives_csv(path: str, names: Sequence[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        for row in np.atleast_2d(rows):
            w.writerow([repr(float(v)) for v in row])


def _verify_front_benchmark(name: str, out_dir: str) -> tuple[bool, dict[str, Any]]:
    problem = get_problem(name)
    # the reference study runs a fixed 50-iteration exploration, so delta sits
    # at the duplicate-detection floor and the budget does the stopping
    cfg = EngineConfig(
        n_initial=8,
        max_iterations=58,  # 8 initial + 50 exploration evaluations
        delta=1e-12,
        seed=_VERIFY_SEEDS[name],
    )
    started = time.perf_counter()
    result = run_engine(problem, cfg)
    elapsed = time.perf_counter() - started

    oracle = grid_reference_front(problem, 400)
    front = result.archive.objective_matrix()[result.pof]
    gd = generational_distance(front, oracle)
    diag = objective_diagonal(oracle)
    violations = sum(
        not all_satisfied(problem.hard_constraints, obs.candidate)
        for obs in result.archive.observations
    )

    _write_objectives_csv(
        os.path.join(out_dir, "moboga_front.csv"), problem.objective_names, front
    )
    _write_objectives_csv(
        os.path.join(out_dir, "oracle_front.csv"), problem.objective_names, oracle
    )
    metrics = {
        "benchmark": name,
        "seed": cfg.seed,
        "evaluations": result.iterations_used,
        "front_size": len(result.pof),
        "generational_distance": gd,
        "gd_threshold": 0.05 * diag,
        "objective_diagonal": diag,
        "hard_violations": violations,
        "elapsed_seconds": elapsed,
    }
    passed = gd <= 0.05 * diag and violations == 0
    return passed, metrics


def _verify_sinusoid(out_dir: str) -> tuple[bool, dict[str, Any]]:
    problem = get_problem("sinusoid-1d")
    cfg = EngineConfig(
        n_initial=1,
        max_iterations=16,  # seed point + 15 exploration evaluations
        delta=1e-12,
        seed=_VERIFY_SEEDS["sinusoid-1d"],
    )
    started = time.perf_counter()
    result = run_engine(problem, cfg, initial_candidates=[Candidate({"x": 0.1})])
    elapsed = time.perf_counter() - started

    xs = np.array([obs.candidate["x"] for obs in result.archive.observations])
    in_hard_band = int(np.sum((xs >= 0.2) & (xs <= 0.6)))
    in_soft_tail = int(np.sum(xs > 0.6))
    feasible_q = [
        float(obs.objectives[0])
        for obs in result.archive.observations
        if obs.feasible
    ]
    best_q = min(feasible_q) if feasible_q else float("inf")

    grid = np.linspace(0.0, 1.2, 10_000)
    feasible_mask = (grid < 0.2)  # hard band and soft tail both excluded
    oracle_min = float(sinusoid_1d(grid[feasible_mask]).min())
    basin_bound = float(sinusoid_1d(0.08))

    _write_objectives_csv(
        os.path.join(out_dir, "moboga_queries.csv"),
        ["x", "q"],
        np.column_stack([xs, [float(o.objectives[0]) for o in result.archive.observations]]),
    )
    _write_objectives_csv(
        os.path.join(out_dir, "oracle_curve.csv"),
        ["x", "q"],
        np.column_stack([grid[::10], sinusoid_1d(grid[::10])]),
    )
    metrics = {
        "benchmark": "sinusoid-1d",
        "seed": cfg.seed,
        "evaluations": result.iterations_used,
        "hard_band_queries": in_hard_band,
        "soft_tail_queries": in_soft_tail,
        "best_feasible_q": best_q,
        "oracle_feasible_min": oracle_min,
        "basin_bound": basin_bound,
        "elapsed_seconds": elapsed,
    }
    passed = (
        in_hard_band == 0
        and in_soft_tail >= 1
        and best_q <= basin_bound
        and abs(best_q - oracle_min) <= 0.05
    )
    return passed, metrics


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.all and args.which not in BUILTIN_PROBLEMS:
        raise ConfigError(
            f"unknown benchmark {args.which!r}; choose from {', '.join(sorted(BUILTIN_PROBLEMS))}"
        )
    code = EXIT_OK
    for name in sorted(BUILTIN_PROBLEMS) if args.all else [args.which]:
        default = f"verify_{name.replace('-', '_')}"
        out_dir = os.path.join(args.out_dir or "", default) if args.all else args.out_dir or default
        os.makedirs(out_dir, exist_ok=True)
        if name == "sinusoid-1d":
            passed, metrics = _verify_sinusoid(out_dir)
        else:
            passed, metrics = _verify_front_benchmark(name, out_dir)
        metrics["pass"] = passed
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        for key, value in metrics.items():
            print(f"{key}: {value}")
        if passed:
            print(f"verification passed for {name}")
        else:
            print(f"verification FAILED for {name}", file=sys.stderr)
            code = EXIT_VERIFY_FAILED
    return code


# ---------------------------------------------------------------------------
# problems


def cmd_problems(_: argparse.Namespace) -> int:
    for name in sorted(BUILTIN_PROBLEMS):
        problem = BUILTIN_PROBLEMS[name]()
        dims = ", ".join(problem.space.names)
        objs = ", ".join(problem.objective_names)
        print(f"{name}: parameters [{dims}] -> objectives [{objs}], "
              f"{len(problem.constraints)} constraints")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moboga",
        description="Constraint-aware multi-objective Bayesian optimization harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="explore + exploit a problem and write a run record")
    p_run.add_argument("--config", help="INI config file")
    p_run.add_argument("--problem", help="built-in problem name")
    p_run.add_argument("--iters", type=int, help="total evaluation budget")
    p_run.add_argument("--seed", type=int, help="override the run seed")
    p_run.add_argument("-o", "--out", help="run record path (default moboga_run.jsonl)")
    p_run.set_defaults(func=cmd_run)

    p_front = sub.add_parser("front", help="export a run record as CSV scatter data")
    p_front.add_argument("record", help="run record path")
    p_front.add_argument("-o", "--out", help="CSV output path (default stdout)")
    p_front.set_defaults(func=cmd_front)

    p_verify = sub.add_parser("verify", help="reproduce a benchmark study and check thresholds")
    study = p_verify.add_mutually_exclusive_group(required=True)
    study.add_argument("which", nargs="?", help="binh-korn | constr-ex | sinusoid-1d")
    study.add_argument("--all", action="store_true", help="every study, into <out-dir>/verify_*")
    p_verify.add_argument("--out-dir", help="directory for CSVs and metrics")
    p_verify.set_defaults(func=cmd_verify)

    p_problems = sub.add_parser("problems", help="list built-in problems")
    p_problems.set_defaults(func=cmd_problems)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, ValidationError, BenchmarkConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoFeasibleResultError as exc:
        print(f"no feasible result: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except (
        EngineError, EvaluationError, GpNumericalError, RecordError, OSError
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
