"""Run-record persistence: one JSON document per line.

The first line is a header (format version, config snapshot, space, seed), one
line follows per observation as it is evaluated, and a final line carries the
exploitation result, which must be the last line. Appending whole lines means
a killed run leaves a record whose observation list is a valid prefix; the
loader also tolerates a torn trailing line.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, IO, Optional, Sequence

import numpy as np

from .engine import (MAX_ITERATIONS, STOP_THRESHOLD, Archive, EngineConfig, EngineError,
                     Observation, RunResult)
from .space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    encode,
)
from .topsis import check_weights

FORMAT_VERSION = 1


class RecordError(RuntimeError):
    """The record file is missing, malformed, or from an unknown version."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# the record's name for each parameter type; an entry holds the parameter's
# name, this type name and the type's other fields, in that order
_PARAM_KINDS = {"continuous": ContinuousParam, "discrete": DiscreteParam,
                "categorical": CategoricalParam}


def space_to_json(space: SearchSpace) -> list[dict[str, Any]]:
    kinds = {cls: kind for kind, cls in _PARAM_KINDS.items()}
    return [{"name": p.name, "type": kinds[type(p)], **dataclasses.asdict(p)} for p in space.params]


def space_from_json(items: Sequence[dict[str, Any]]) -> SearchSpace:
    """Each entry must hold a name, a known type and exactly that type's
    fields; the ValueError for a missing or unknown key names ``param.<name>.<key>``."""
    params = []
    for item in items:
        cls = _PARAM_KINDS.get(item.get("type")) if isinstance(item, dict) else None
        if cls is None:
            raise ValueError(f"space entry {item!r} is not an object with a known type")
        keys = [f.name for f in dataclasses.fields(cls)]
        wrong = sorted(item.keys() ^ {"type", *keys})
        if wrong:
            state = "unknown" if wrong[0] in item else "missing"
            raise ValueError(f"param.{item.get('name')}.{wrong[0]}: {state} key for {item['type']}")
        params.append(cls(*(item[key] for key in keys)))
    return SearchSpace(tuple(params))


class RunRecordWriter:
    """Writes the header eagerly and flushes every line as it lands."""

    def __init__(
        self,
        fh: IO[str],
        *,
        problem_name: str,
        space: SearchSpace,
        objective_names: Sequence[str],
        constraint_names: Sequence[str],
        cfg: EngineConfig,
        weights: Sequence[float] | None,
    ) -> None:
        self._fh = fh
        header = {
            "kind": "header",
            "format_version": FORMAT_VERSION,
            "problem": problem_name,
            "space": space_to_json(space),
            "objective_names": list(objective_names),
            "constraint_names": list(constraint_names),
            "engine": {
                "n_initial": cfg.n_initial,
                "max_iterations": cfg.max_iterations,
                "delta": cfg.delta,
                "next_pick": cfg.next_pick if isinstance(cfg.next_pick, str) else "custom",
                "seed": cfg.seed,
            },
            "ga": dataclasses.asdict(cfg.ga),
            "weights": list(weights) if weights is not None else None,
            "started_at": _now(),
        }
        self._write(header)

    def _write(self, doc: dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc) + "\n")
        self._fh.flush()

    def observation(self, obs: Observation) -> None:
        self._write(
            {
                "kind": "observation",
                "iteration": obs.iteration,
                "values": obs.candidate.values,
                "encoded": [float(v) for v in obs.encoded],
                "objectives": [float(v) for v in obs.objectives],
                "feasible": obs.feasible,
                "timestamp": _now(),
            }
        )

    def result(self, res: RunResult) -> None:
        self._write(
            {
                "kind": "result",
                "pof": list(res.pof),
                "best_index": res.best_index,
                "closeness": [[i, res.closeness[i]] for i in sorted(res.closeness)],
                "stop_reason": res.archive.stop_reason,
                "iterations_used": len(res.archive),
                "finished_at": _now(),
            }
        )


@dataclass(frozen=True)
class LoadedRecord:
    header: dict[str, Any]
    space: SearchSpace
    archive: Archive
    result: Optional[RunResult]

    @property
    def objective_names(self) -> list[str]:
        return list(self.header["objective_names"])

    @property
    def weights(self) -> Optional[list[float]]:
        return self.header.get("weights")


def _result_from_json(doc: dict[str, Any], archive: Archive) -> RunResult:
    """The result line as a result over the loaded archive, whose stop reason it
    sets; ValueError if the line disagrees with the archive."""
    n = len(archive)
    if int(doc["iterations_used"]) != n:
        raise ValueError(f"iterations_used {doc['iterations_used']} differs from the "
                         f"{n} observations")
    if doc["stop_reason"] not in (STOP_THRESHOLD, MAX_ITERATIONS):
        raise ValueError(f"stop_reason {doc['stop_reason']!r} is neither "
                         f"{STOP_THRESHOLD!r} nor {MAX_ITERATIONS!r}")
    pof = [int(i) for i in doc["pof"]]
    if not all(0 <= i < n for i in pof):
        raise ValueError(f"pof {pof} has an index outside the {n} observations")
    if len(set(pof)) != len(pof):
        raise ValueError(f"pof {pof} repeats an index")
    if not all(archive.observations[i].feasible for i in pof):
        raise ValueError(f"pof {pof} names an infeasible observation")
    best_index = int(doc["best_index"])
    if best_index not in pof:
        raise ValueError(f"best_index {best_index} is not in pof")
    closeness = {int(i): float(v) for i, v in doc["closeness"]}
    if len(closeness) != len(doc["closeness"]):
        raise ValueError("closeness repeats an index")
    if set(closeness) != set(pof):
        raise ValueError("closeness keys differ from the pof indices")
    archive.stop_reason = doc["stop_reason"]
    return RunResult(archive, pof, best_index, closeness)


def load_record(path: str) -> LoadedRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise RecordError(f"cannot read record {path!r}: {exc}") from exc
    if not lines:
        raise RecordError(f"record {path!r} is empty")

    docs: list[tuple[int, dict[str, Any]]] = []  # (1-based line number, document)
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            doc = None
        if not isinstance(doc, dict):
            if i == len(lines) - 1:
                break  # torn trailing line from an interrupted run
            raise RecordError(f"record {path!r}: malformed line {i + 1}")
        docs.append((i + 1, doc))

    if not docs or docs[0][1].get("kind") != "header":
        raise RecordError(f"record {path!r}: missing header line")
    lineno, header = docs[0]
    if header.get("format_version") != FORMAT_VERSION:
        raise RecordError(
            f"record {path!r}: format_version {header.get('format_version')!r} unsupported"
        )

    archive = Archive()
    result: Optional[RunResult] = None
    try:
        space = space_from_json(header["space"])
        header["objective_names"] = list(header["objective_names"])
        if header.get("weights") is not None:
            check_weights(header["weights"], len(header["objective_names"]))
        for lineno, doc in docs[1:]:
            kind = doc.get("kind")
            if result is not None:
                raise RecordError(f"record {path!r}: line {lineno} follows the result line")
            if kind == "observation":
                candidate = Candidate(dict(doc["values"]))
                encoded = encode(space, candidate)
                if not np.array_equal(np.asarray(doc["encoded"], dtype=float), encoded):
                    raise ValueError(f"encoded {doc['encoded']!r} does not match values")
                archive.append(
                    Observation(
                        candidate=candidate,
                        objectives=np.asarray(doc["objectives"], dtype=float),
                        feasible=bool(doc["feasible"]),
                        iteration=int(doc["iteration"]),
                        encoded=encoded,
                    )
                )
            elif kind == "result":
                result = _result_from_json(doc, archive)
            else:
                raise RecordError(f"record {path!r}: unknown line kind {kind!r}")
    # Archive.append raises EngineError for a repeated encoding or a falling iteration
    except (EngineError, KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"record {path!r}: bad field on line {lineno}: {exc!r}") from exc

    return LoadedRecord(header=header, space=space, archive=archive, result=result)
