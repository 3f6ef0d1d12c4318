"""Per-layer spans around the moboga modules, installed from outside them.

Each hook replaces a public function in the module that calls it (for
example ``moboga.engine.gp_fit``, the name ``propose_next`` looks up), so the
library itself is unchanged. A span records its name, parent span and
monotonic start and end in nanoseconds; spans stay in memory until the run
ends, and self time is computed from them afterwards: a span's duration
minus the durations of its direct children. The layer of a span is the
prefix of its name before the first dot, which is the ``src/moboga`` module
the hooked function belongs to.

A hook whose target name no longer exists is skipped and every metric that
depends on it is reported absent, never as 0.
"""
from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

import moboga.acquisition
import moboga.engine
import moboga.nsga2
import moboga.pareto
import moboga.surrogate

PROPOSE = "engine.propose_next"
LAYERS = ("engine", "surrogate", "acquisition", "space", "objectives", "nsga2", "pareto", "topsis")


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Spans of one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack: list[int] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hooked: set[str] = set()
        self.missing: set[str] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple], tuple] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``.

        ``before`` may rewrite the positional arguments; ``after`` sees the
        return value. Both run outside the span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        self.hooked.add(name)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.t1.append(0)
            stack.append(idx)
            self.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[idx] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _patch(self, module, attr: str, name: str, before=None, after=None) -> None:
        target = f"{module.__name__}.{attr}"
        if not hasattr(module, attr):
            self.missing.add(name)
            print(f"# trace: hook target {target} not found; {name} metrics absent")
            return
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    def install(self) -> None:
        e, a = moboga.engine, moboga.acquisition
        s = self.samples
        noise = getattr(moboga.surrogate, "DEFAULT_NOISE", None)

        def on_proposal(p) -> None:
            s["pool"].append(len(p.pm))
            pool = [c.values for c, _ in p.pm]
            s["fallback"].append(float(p.picked[0].values not in pool))

        def on_fit(model) -> None:
            s["log_evidence"].append(model.log_evidence)
            if noise is not None:
                s["jitter"].append(float(model.hyper.noise_variance > noise))

        def on_posterior(args: tuple) -> tuple:
            s["posterior_rows"].append(_rows(args[1]))
            return args

        def on_score(args: tuple) -> tuple:
            s["score_rows"].append(_rows(args[0]))
            return args

        def wrap_score(args: tuple) -> tuple:
            return (self.wrap("nsga2.score", args[0], before=on_score),) + args[1:]

        self._patch(e, "propose_next", PROPOSE, after=on_proposal)
        self._patch(e, "_initial_design", "engine.initial_design")
        self._patch(e, "exploit", "engine.exploit")
        self._patch(e, "gp_fit", "surrogate.gp_fit", after=on_fit)
        self._patch(a, "gp_posterior", "surrogate.gp_posterior", before=on_posterior)
        self._patch(e, "ca_ei", "acquisition.ca_ei", after=lambda v: s["ei"].append(v))
        self._patch(e, "decode", "space.decode")
        self._patch(e, "encode", "space.encode")
        self._patch(a, "encode", "space.encode")
        self._patch(a, "soft_factor", "objectives.constraint")
        self._patch(e, "all_satisfied", "objectives.constraint")
        self._patch(e, "evaluate_candidate", "objectives.evaluate")
        self._patch(e, "nsga2_run", "nsga2.nsga2_run", before=wrap_score)
        self._patch(moboga.nsga2, "fast_nondominated_sort", "pareto.fast_nondominated_sort")
        self._patch(moboga.pareto, "crowding_distance", "pareto.crowding_distance")
        self._patch(e, "pareto_front", "pareto.pareto_front")
        self._patch(e, "topsis_rank", "topsis.topsis_rank")
        # a name with one binding missing would be undercounted
        self.hooked -= self.missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.t1, dtype=np.int64) - np.frombuffer(self.t0, dtype=np.int64)) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, parent, dur, dur - child

    def metrics(self, extra: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this run as name -> (value, unit)."""
        names, parent, dur, self_s = self._arrays()
        nid = self._name_ids
        out: dict[str, tuple[float, str]] = {}

        def mask(span: str) -> np.ndarray:
            return names == nid.get(span, -1)

        def put(metric: str, spans: tuple[str, ...], unit: str, value: Callable[[], float]) -> None:
            # absent, not 0, when a hook is missing or its span never ran
            if all(sp in self.hooked for sp in spans):
                with np.errstate(all="ignore"):
                    v = float(value())
                if math.isfinite(v):
                    out[metric] = (v, unit)

        def calls(span: str) -> None:
            put(f"{span}.calls", (span,), "count", lambda: mask(span).sum())

        def self_time(span: str) -> None:
            put(f"{span}.self_s", (span,), "s", lambda: self_s[mask(span)].sum())

        def frac(key: str) -> float:
            return float(np.mean(self.samples[key])) if self.samples[key] else math.nan

        s = self.samples
        for span in (PROPOSE, "surrogate.gp_fit", "surrogate.gp_posterior", "acquisition.ca_ei",
                     "space.decode", "space.encode", "objectives.constraint", "nsga2.nsga2_run",
                     "pareto.fast_nondominated_sort", "topsis.topsis_rank"):
            calls(span)
            self_time(span)
        for span in ("engine.exploit", "pareto.crowding_distance", "pareto.pareto_front",
                     "record.write", "record.load"):
            self_time(span)
        calls("objectives.evaluate")
        put("engine.initial_design_s", ("engine.initial_design",), "s",
            lambda: dur[mask("engine.initial_design")].sum())
        put("engine.pool_size.p50", (PROPOSE,), "count", lambda: np.median(s["pool"]))
        put("engine.pool_size.min", (PROPOSE,), "count", lambda: min(s["pool"], default=math.nan))
        put("engine.fallback_frac", (PROPOSE,), "1", lambda: frac("fallback"))
        put("surrogate.gp_fit.p50_s", ("surrogate.gp_fit",), "s",
            lambda: np.median(dur[mask("surrogate.gp_fit")]))
        if s["jitter"]:
            put("surrogate.gp_fit.jitter_frac", ("surrogate.gp_fit",), "1", lambda: frac("jitter"))
        put("surrogate.gp_fit.log_evidence_mean", ("surrogate.gp_fit",), "nats",
            lambda: np.mean(s["log_evidence"]))
        put("surrogate.gp_posterior.rows_per_call", ("surrogate.gp_posterior",), "rows",
            lambda: np.mean(s["posterior_rows"]))
        put("acquisition.zero_frac", ("acquisition.ca_ei",), "1",
            lambda: np.mean(np.asarray(s["ei"]) == 0.0))
        put("nsga2.score.genomes", ("nsga2.nsga2_run",), "count", lambda: sum(s["score_rows"]))
        put("nsga2.score.rows_per_call", ("nsga2.nsga2_run",), "rows",
            lambda: np.mean(s["score_rows"]))

        # where proposal time goes: self time of every span under propose_next
        if PROPOSE in self.hooked:
            propose_id = nid[PROPOSE]
            under = np.zeros(len(names), dtype=bool)
            for i in range(len(names)):
                p = parent[i]
                under[i] = names[i] == propose_id or (p >= 0 and under[p])
            total = dur[names == propose_id].sum()
            layer_of = np.array([n.split(".")[0] for n in self.names])[names]
            for layer in LAYERS:
                out[f"{layer}.propose_share"] = (
                    float(self_s[under & (layer_of == layer)].sum() / total), "1")
            out["trace.propose_coverage"] = (1.0 - float(self_s[names == propose_id].sum() / total), "1")
        out.update(extra)
        return out

    def dump(self, path: str, run_id: str) -> None:
        """Write every span as CSV: run, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.t0)):
                fh.write(f"{run_id},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.t0[i]},{self.t1[i]}\n")
