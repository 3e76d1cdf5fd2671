"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install` rebinds each traced public function wherever a `stopcost`
module (or the package itself) holds a reference to it, e.g.
`stopcost.cli.drce_finite` and `stopcost.scenarios.drce_finite`, so calls go
through a wrapper that records a span: name, start, end, parent span, op
index, and a few counts taken from the call's arguments or result. Spans stay
in memory; `write` stores them as JSON lines once the run is over.
`uninstall` restores every original binding.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


def _shape_points(args, kwargs):
    m = np.asarray(args[0])
    horizon = kwargs.get("horizon", args[3] if len(args) > 3 else 0)
    return {"points": int(horizon) * int(m.shape[0]) ** 2}


def _rollout_steps(args, kwargs):
    copies = int(kwargs.get("copies", 1))
    return {"rollout_steps": int(sum(int(t) for t in args[3])) * copies}


def _lp_size(args, kwargs):
    lp = args[0]
    return {"rows": int(lp.ineq_lhs.shape[0] + lp.eq_lhs.shape[0]), "cols": int(lp.objective.shape[0])}


# (module, function) -> (span name, counts from the arguments, counts from the result)
TRACED: dict[tuple[str, str], tuple[str, Callable | None, Callable | None]] = {
    ("cli", "main"): ("cli.main", None, None),
    ("cli", "load_model"): ("cli.load_model", None, None),
    ("cli", "load_nominal"): ("cli.load_nominal", None, None),
    ("scenarios", "compare_report"): ("scenarios.compare_report", _rollout_steps, None),
    ("scenarios", "build_csoc_overtime"): ("scenarios.build_csoc_overtime", None, None),
    ("scenarios", "build_health_chain"): ("scenarios.build_health_chain", None, None),
    ("finite_horizon", "cost_sequence_naive"): ("finite_horizon.cost_sequence", _shape_points, None),
    ("finite_horizon", "cost_sequence_strided"): ("finite_horizon.cost_sequence", _shape_points, None),
    ("wasserstein", "drce_finite"): ("wasserstein.drce_finite", None,
                                     lambda r: {"lp": int(r.case_used == "lp")}),
    ("wasserstein", "w1_distance"): ("wasserstein.w1_distance", None, None),
    ("lp_solver", "lp_solve"): ("lp_solver.lp_solve", _lp_size, None),
    ("infinite_horizon", "decompose"): ("infinite_horizon.decompose", None, None),
    ("infinite_horizon", "find_t0"): ("infinite_horizon.find_t0", None,
                                      lambda r: {"scan_len": int(r.n0 or 0)}),
    ("infinite_horizon", "find_n0"): ("infinite_horizon.find_n0", None, lambda r: {"scan_len": int(r)}),
    ("infinite_horizon", "rce_infinite"): ("infinite_horizon.rce_infinite", None, None),
    ("infinite_horizon", "geometric_drce"): ("infinite_horizon.geometric_drce", None, None),
    ("matrix_core", "real_jordan"): ("matrix_core.real_jordan", None,
                                     lambda r: {"perturbed": int(r.perturbation > 0)}),
    ("matrix_core", "mat_pow"): ("matrix_core.mat_pow", None, None),
    ("markov_gas", "stationary"): ("markov_gas.stationary", None, None),
    ("markov_gas", "to_gas"): ("markov_gas.to_gas", None, None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)
    failed: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0                       # index of the op being run; set by the runner
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, from_args, from_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            if from_args is not None:
                span.counts.update(from_args(args, kwargs))
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if from_result is not None:
                span.counts.update(from_result(result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if (key == "stopcost" or key.startswith("stopcost.")) and mod is not None]
        for (module, func), (name, from_args, from_result) in TRACED.items():
            original = getattr(sys.modules[f"stopcost.{module}"], func)
            wrapper = self._wrap(original, name, from_args, from_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                     "op": s.op, "counts": s.counts, "failed": s.failed}) + "\n")


class _Layer:
    def __init__(self):
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.failed = 0
        self.counts: dict[str, float] = defaultdict(float)


def summarize(spans: list[Span]) -> dict[str, _Layer]:
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for i, s in enumerate(spans):
        layer = layers[s.name]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        layer.self_time += s.end - s.start - child_time[i]
        if p is not None:                 # nested inside a span of the same name: already counted
            continue
        layer.busy += s.end - s.start
        layer.calls += 1
        layer.failed += s.failed
        for key, value in s.counts.items():
            layer.counts[key] += value
    return layers


# metric -> (layers it reads, quantity, unit). Quantities: "ms" busy time, "self_ms"
# busy time minus child spans, "calls" and "failed" per traced op; "count:<key>" a
# count per traced op; "mean:<key>" a count per call; "share:<key>" the share of
# returned results that set <key>.
PER_LAYER: dict[str, tuple[tuple[str, ...], str, str]] = {
    "scenarios.compare_report.self_ms": (("scenarios.compare_report",), "self_ms", "ms"),
    "scenarios.rollout_steps": (("scenarios.compare_report",), "count:rollout_steps", "count"),
    "scenarios.build_csoc_overtime.ms": (("scenarios.build_csoc_overtime",), "ms", "ms"),
    "scenarios.build_health_chain.ms": (("scenarios.build_health_chain",), "ms", "ms"),
    "finite_horizon.cost_sequence.ms": (("finite_horizon.cost_sequence",), "ms", "ms"),
    "finite_horizon.cost_sequence.calls": (("finite_horizon.cost_sequence",), "calls", "count"),
    "finite_horizon.cost_sequence.points": (("finite_horizon.cost_sequence",), "count:points", "count"),
    "wasserstein.drce_finite.ms": (("wasserstein.drce_finite",), "ms", "ms"),
    "wasserstein.drce_finite.self_ms": (("wasserstein.drce_finite",), "self_ms", "ms"),
    "wasserstein.drce_finite.lp_share": (("wasserstein.drce_finite",), "share:lp", "share"),
    "wasserstein.w1_distance.ms": (("wasserstein.w1_distance",), "ms", "ms"),
    "lp_solver.lp_solve.ms": (("lp_solver.lp_solve",), "ms", "ms"),
    "lp_solver.lp_solve.calls": (("lp_solver.lp_solve",), "calls", "count"),
    "lp_solver.lp_solve.rows": (("lp_solver.lp_solve",), "mean:rows", "count"),
    "lp_solver.lp_solve.cols": (("lp_solver.lp_solve",), "mean:cols", "count"),
    "infinite_horizon.decompose.self_ms": (("infinite_horizon.decompose",), "self_ms", "ms"),
    "infinite_horizon.find_t0.ms": (("infinite_horizon.find_t0",), "ms", "ms"),
    "infinite_horizon.rce_infinite.self_ms": (("infinite_horizon.rce_infinite",), "self_ms", "ms"),
    "infinite_horizon.scan_len": (("infinite_horizon.find_t0", "infinite_horizon.find_n0"),
                                  "count:scan_len", "count"),
    "infinite_horizon.geometric_drce.ms": (("infinite_horizon.geometric_drce",), "ms", "ms"),
    "matrix_core.real_jordan.ms": (("matrix_core.real_jordan",), "ms", "ms"),
    "matrix_core.real_jordan.failed": (("matrix_core.real_jordan",), "failed", "count"),
    "matrix_core.real_jordan.perturbed_share": (("matrix_core.real_jordan",), "share:perturbed", "share"),
    "matrix_core.mat_pow.ms": (("matrix_core.mat_pow",), "ms", "ms"),
    "matrix_core.mat_pow.calls": (("matrix_core.mat_pow",), "calls", "count"),
    "markov_gas.stationary.ms": (("markov_gas.stationary",), "ms", "ms"),
    "markov_gas.to_gas.self_ms": (("markov_gas.to_gas",), "self_ms", "ms"),
    "cli.load_model.ms": (("cli.load_model",), "ms", "ms"),
    "cli.load_nominal.ms": (("cli.load_nominal",), "ms", "ms"),
    "cli.main.self_ms": (("cli.main",), "self_ms", "ms"),
}


def per_layer_metrics(spans: list[Span], ops: int) -> tuple[dict[str, float], list[str]]:
    """Every PER_LAYER value over `ops` traced ops, and the metrics whose layers never ran."""
    layers = summarize(spans)
    values, absent = {}, []
    for metric, (names, quantity, _) in PER_LAYER.items():
        parts = [layers[n] for n in names if n in layers]
        if not parts:
            absent.append(metric)
        kind, _, key = quantity.partition(":")
        calls = sum(p.calls for p in parts)
        returned = calls - sum(p.failed for p in parts)
        count = sum(p.counts[key] for p in parts) if key else 0.0
        if kind == "ms":
            value = 1e3 * sum(p.busy for p in parts) / ops
        elif kind == "self_ms":
            value = 1e3 * sum(p.self_time for p in parts) / ops
        elif kind in ("calls", "failed"):
            value = sum(getattr(p, kind) for p in parts) / ops
        elif kind == "count":
            value = count / ops
        elif kind == "mean":
            value = count / calls if calls else 0.0
        else:
            value = count / returned if returned else 0.0
        values[metric] = value
    return values, absent
