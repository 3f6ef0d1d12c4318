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

from .engine import Archive, EngineConfig, Observation, RunResult
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
                "stop_reason": res.stop_reason,
                "iterations_used": res.iterations_used,
                "finished_at": _now(),
            }
        )


@dataclass(frozen=True)
class LoadedRecord:
    header: dict[str, Any]
    space: SearchSpace
    archive: Archive
    result: Optional[dict[str, Any]]

    @property
    def objective_names(self) -> list[str]:
        return list(self.header["objective_names"])

    @property
    def weights(self) -> Optional[list[float]]:
        return self.header.get("weights")


def _check_result(result: dict[str, Any], n_observations: int) -> None:
    if result["iterations_used"] != n_observations:
        raise ValueError(
            f"iterations_used {result['iterations_used']} differs from the "
            f"{n_observations} observations"
        )
    pof = result["pof"]
    if not all(0 <= i < n_observations for i in pof):
        raise ValueError(f"pof {pof} has an index outside the {n_observations} observations")
    if result["best_index"] not in pof:
        raise ValueError(f"best_index {result['best_index']} is not in pof")
    if set(result["closeness"]) != set(pof):
        raise ValueError("closeness keys differ from the pof indices")


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
    result: Optional[dict[str, Any]] = None
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
                result = doc
                archive.stop_reason = result["stop_reason"]
                result["iterations_used"] = int(result["iterations_used"])
                result["pof"] = [int(i) for i in result["pof"]]
                result["best_index"] = int(result["best_index"])
                result["closeness"] = {int(i): float(v) for i, v in result["closeness"]}
                _check_result(result, len(archive))
            else:
                raise RecordError(f"record {path!r}: unknown line kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"record {path!r}: bad field on line {lineno}: {exc!r}") from exc

    return LoadedRecord(header=header, space=space, archive=archive, result=result)
