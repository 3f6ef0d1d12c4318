"""Command-line front end: run, front, verify, problems.

Exit codes: 0 success, 2 configuration error (the message names the offending
key or path), 3 runtime error, 4 no feasible result, 5 verification thresholds
missed.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import IO, Any, Iterable, Optional, Sequence

import numpy as np

from .engine import (
    DUPLICATE_TOL,
    EngineConfig,
    EngineError,
    NoFeasibleResultError,
    RunResult,
    exploit,
    run as run_engine,
)
from .nsga2 import GaConfig
from .objectives import Batch, EvaluationError, Problem, all_satisfied
from .pareto import generational_distance, objective_diagonal
from .problems import (
    BUILTIN_PROBLEMS,
    CONSTRAINT_SETS,
    EVALUATORS,
    BenchmarkConfigError,
    get_problem,
    grid_reference_front,
    sinusoid_1d,
)
from .record import LoadedRecord, RecordError, RunRecordWriter, load_record, space_from_json
from .space import Candidate, CategoricalParam
from .surrogate import GpNumericalError
from .topsis import TopsisError, check_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_FEASIBLE = 4
EXIT_VERIFY_FAILED = 5

SEED_ENV_VAR = "MOBOGA_SEED"


class ConfigError(ValueError):
    """Bad config file or command-line setting; message names the culprit."""


# ---------------------------------------------------------------------------
# config file parsing


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# every key of the fixed sections, with the cast that parses its value
_CONFIG_KEYS = {
    "problem": {"name": str, "evaluator": str, "constraints": str},
    "engine": {
        "seed": int, "n_initial": int, "max_iterations": int, "delta": float, "next_pick": str,
    },
    "ga": {
        "population_size": int,
        "generations": int,
        "crossover_prob": float,
        "mutation_prob": float,
        "sbx_eta": float,
        "pm_eta": float,
    },
    "objectives": {"weights": _float_list},
}


def _label_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# every key a [param.<name>] section may hold; which ones a type needs is the
# record's space reader's rule
_PARAM_KEYS = {"type": str, "lo": float, "hi": float,
               "values": _float_list, "labels": _label_list}


def _parse_value(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None


def _read_section(parser: configparser.ConfigParser, section: str, casts) -> dict[str, Any]:
    """The keys of a section, each parsed by its cast; any other key is an error."""
    values = {}
    for key in parser.options(section) if parser.has_section(section) else ():
        if key not in casts:
            raise ConfigError(f"{section}.{key}: unknown key")
        values[key] = _parse_value(section, key, parser.get(section, key), casts[key])
    return values


def load_config(path: Optional[str]) -> dict[str, Any]:
    """Read the INI-style config into a plain settings dict."""
    # no header names the empty section, so [DEFAULT] is read as a section of
    # its own instead of being merged into every other one
    parser = configparser.ConfigParser(default_section="")
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _CONFIG_KEYS and not section.startswith("param."):
            expected = ", ".join(_CONFIG_KEYS)
            raise ConfigError(f"[{section}]: unknown section (expected {expected} or param.<name>)")

    values = {section: _read_section(parser, section, casts)
              for section, casts in _CONFIG_KEYS.items()}
    params = [
        {"name": section[len("param."):], **_read_section(parser, section, _PARAM_KEYS)}
        for section in parser.sections()
        if section.startswith("param.")
    ]
    problem = values["problem"]
    return {
        "problem": problem.get("name"),
        "evaluator": problem.get("evaluator"),
        "constraints": problem.get("constraints"),
        "space": space_from_json(params) if params else None,
        "engine": values["engine"],
        "ga": values["ga"],
        "weights": values["objectives"].get("weights"),
    }


def _build_problem(settings: dict[str, Any], cli_problem: Optional[str]) -> Problem:
    name = cli_problem or settings["problem"]
    evaluator_name, constraints_name = settings["evaluator"], settings["constraints"]
    named = None
    if name is not None:
        try:
            named = get_problem(name)
        except BenchmarkConfigError as exc:
            raise ConfigError(f"problem.name: {exc}") from exc
    elif evaluator_name is None:
        raise ConfigError("problem.name: no problem selected (use --problem or the config file)")
    elif settings["space"] is None:
        raise ConfigError("problem.evaluator: needs [param.*] sections for the space")
    space = settings["space"] or named.space

    # each part comes from its own key, else from the named built-in; a
    # built-in part reads its problem's parameters, each as a number
    kinds = dict(zip(space.names, space.params))
    for part, table, noun in (("evaluator", EVALUATORS, "evaluator"),
                              ("constraints", CONSTRAINT_SETS, "constraint set")):
        key, source = (part, settings[part]) if settings[part] else ("name", name)
        if key == part and source not in table:
            raise ConfigError(f"problem.{key}: unknown {noun} {source!r}")
        for n in get_problem(source).space.names if source in BUILTIN_PROBLEMS else ():
            if n not in kinds or isinstance(kinds[n], CategoricalParam):
                what = "lacks" if n not in kinds else "makes categorical"
                raise ConfigError(f"problem.{key}: {source!r} reads parameter {n!r} "
                                  f"as a number, which the space {what}")

    evaluator, objective_names = (EVALUATORS[evaluator_name] if evaluator_name
                                  else (named.evaluator, named.objective_names))
    constraints = (CONSTRAINT_SETS[constraints_name]() if constraints_name
                   else named.constraints if named else ())
    return Problem(space, evaluator, objective_names, constraints, name=name or evaluator_name)


def _build_engine_config(
    settings: dict[str, Any], args: argparse.Namespace
) -> EngineConfig:
    engine_kwargs = dict(settings["engine"])
    ga_kwargs = dict(settings["ga"])

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        engine_kwargs["seed"] = _parse_value("env", SEED_ENV_VAR, env_seed, int)
    if getattr(args, "seed", None) is not None:
        engine_kwargs["seed"] = args.seed
    if getattr(args, "iters", None) is not None:
        engine_kwargs["max_iterations"] = args.iters

    try:
        return EngineConfig(ga=GaConfig(**ga_kwargs), **engine_kwargs)
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
        f"stop reason: {result.archive.stop_reason}; evaluations: {len(result.archive)}; "
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
    if weights is not None:
        try:
            check_weights(weights, problem.n_objectives)
        except TopsisError as exc:
            raise ConfigError(f"objectives.weights: {exc}") from None

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
    archive, res = record.archive, record.result
    if res is None and archive.feasible_indices():
        # interrupted run: recompute the front from the observation prefix
        res = exploit(archive, record.weights)
    pof, best, closeness = ([], -1, {}) if res is None else (res.pof, res.best_index, res.closeness)

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


def _write_csv(fh: IO[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def cmd_front(args: argparse.Namespace) -> int:
    record = load_record(args.record)
    header, rows = _front_rows(record)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    with out as fh:
        _write_csv(fh, header, rows)
    if args.out:
        print(f"front data written to {args.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _front_checks(problem: Problem, result: RunResult) -> tuple[bool, dict, dict]:
    """GD of the engine front to the grid oracle's, and no hard violation."""
    oracle = grid_reference_front(problem, 400)
    front = result.archive.objective_matrix()[result.pof]
    gd = generational_distance(front, oracle)
    diag = objective_diagonal(oracle)
    cands = [obs.candidate for obs in result.archive.observations]
    violations = int(np.count_nonzero(~all_satisfied(problem.hard_constraints, Batch.of(cands))))
    metrics = {
        "front_size": len(result.pof),
        "generational_distance": gd,
        "gd_threshold": 0.05 * diag,
        "objective_diagonal": diag,
        "hard_violations": violations,
    }
    names = problem.objective_names
    csvs = {"moboga_front.csv": (names, front), "oracle_front.csv": (names, oracle)}
    return gd <= 0.05 * diag and violations == 0, metrics, csvs


def _sinusoid_checks(problem: Problem, result: RunResult) -> tuple[bool, dict, dict]:
    """No query in the hard band, one in the soft tail, and the best feasible
    query in the oracle's basin."""
    observations = result.archive.observations
    (param,) = problem.space.params
    queries = Batch.of([obs.candidate for obs in observations])
    xs, qs = queries.columns[param.name], result.archive.objective_matrix()[:, 0]
    soft = [c for c in problem.constraints if not c.is_hard]
    in_hard_band = int(np.count_nonzero(~all_satisfied(problem.hard_constraints, queries)))
    in_soft_tail = int(np.count_nonzero(~all_satisfied(soft, queries)))
    feasible_q = [float(q) for q, obs in zip(qs, observations) if obs.feasible]
    best_q = min(feasible_q) if feasible_q else float("inf")

    grid = np.linspace(param.lo, param.hi, 10_000)
    on_grid = Batch(grid.size, lambda: {param.name: grid},
                    lambda: [Candidate({param.name: x}) for x in grid.tolist()])
    oracle_min = float(sinusoid_1d(grid[all_satisfied(problem.constraints, on_grid)]).min())
    basin_bound = float(sinusoid_1d(0.08))

    metrics = {
        "hard_band_queries": in_hard_band,
        "soft_tail_queries": in_soft_tail,
        "best_feasible_q": best_q,
        "oracle_feasible_min": oracle_min,
        "basin_bound": basin_bound,
    }
    csvs = {
        "moboga_queries.csv": (["x", "q"], np.column_stack([xs, qs])),
        "oracle_curve.csv": (["x", "q"], np.column_stack([grid[::10], sinusoid_1d(grid[::10])])),
    }
    passed = (
        in_hard_band == 0
        and in_soft_tail >= 1
        and best_q <= basin_bound
        and abs(best_q - oracle_min) <= 0.05
    )
    return passed, metrics, csvs


# each study's engine config, given initial candidates and checks. delta sits at
# the duplicate-detection floor, so the budget (initial design included) does the
# stopping: the front studies run 8 initial + 50 exploration evaluations,
# sinusoid-1d its seed point + 15
def _study(seed: int, n_initial: int, budget: int) -> EngineConfig:
    return EngineConfig(n_initial=n_initial, max_iterations=budget, delta=DUPLICATE_TOL, seed=seed)


_STUDIES = {
    "binh-korn": (_study(7, 8, 58), (), _front_checks),
    "constr-ex": (_study(7, 8, 58), (), _front_checks),
    "sinusoid-1d": (_study(3, 1, 16), (Candidate({"x": 0.1}),), _sinusoid_checks),
}


def _verify_study(name: str, out_dir: str) -> tuple[bool, dict[str, Any]]:
    """Run one study, time it and write the CSVs its checks return."""
    cfg, given, checks = _STUDIES[name]
    problem = get_problem(name)
    started = time.perf_counter()
    result = run_engine(problem, cfg, initial_candidates=given)
    elapsed = time.perf_counter() - started

    passed, checked, csvs = checks(problem, result)
    for filename, (header, rows) in csvs.items():
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, header, ([repr(float(v)) for v in row] for row in rows))
    metrics = {"benchmark": name, "seed": cfg.seed, "evaluations": len(result.archive),
               **checked, "elapsed_seconds": elapsed}
    return passed, metrics


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.all and args.which not in _STUDIES:
        raise ConfigError(f"unknown benchmark {args.which!r}; choose from {', '.join(_STUDIES)}")
    code = EXIT_OK
    for name in _STUDIES if args.all else [args.which]:
        default = f"verify_{name.replace('-', '_')}"
        out_dir = os.path.join(args.out_dir or "", default) if args.all else args.out_dir or default
        os.makedirs(out_dir, exist_ok=True)
        passed, metrics = _verify_study(name, out_dir)
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
    study.add_argument("which", nargs="?", help=" | ".join(_STUDIES))
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
