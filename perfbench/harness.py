"""Measurement: set-up time, the closed-loop timed run, oracle checks and the report.

Load model: one process, one caller, closed loop (the next op starts when the
previous one returns). The timed loop repeats whole rounds of the workload's
ops until the run length is reached, so every run sees the same op mix.
After every op it also times a fixed reference kernel, and the latency
metrics in the JSON object are op latencies in units of that kernel's time.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spans as tracing
from workloads import WORKLOADS, Draws, Op

SETUP_REPEATS = 7
# Fixed, so the tails keep their meaning when a faster program fits more rounds
# into a run. For op_tail_ms it is the highest of p50/p75/p90 that leaves ten
# ops beyond it in a slow run.
TAIL_PCT = 75.0
TAIL_MIN_BEYOND = 10
# Latencies are normalised by the reference kernel times within this many ops
# either side, so the op and its yardstick see the same host speed.
REF_WINDOW = 10
REF_STEPS = 400
# End-to-end metrics in the final JSON object. fail_share and wrong_share are
# printed only: they are 0 on a correct program and feed `failed` instead.
# The wall-clock latencies (ops_per_s, op_p50_ms, op_tail_ms) are printed only.
# On a shared 2-vCPU host the same op took anywhere from 170 to 600 ms as the
# host's speed changed, and the host's mean speed moved by 40% between two
# sets of runs a few minutes apart. Wall-clock metrics spread by 0.1-0.44
# across ten runs; the same latencies in units of the reference kernel spread
# by 0.02-0.06.
END_TO_END = ("setup_s", "op_mean_ref", "op_tail_ref", "peak_rss_mb")

_REF_GEN = np.random.default_rng(0)
_REF_MATRIX = _REF_GEN.random((48, 48))
_REF_MATRIX /= _REF_MATRIX.sum(axis=0)
_REF_CUM = np.cumsum(_REF_GEN.random(48))
_REF_START = _REF_GEN.random(48)
_REF_LEFT = _REF_GEN.random((256, 256))
_REF_RIGHT = _REF_GEN.random((256, 256))

# Runs in a fresh interpreter: import the CLI, then one untimed warm-up op.
_SETUP_CHILD = """\
import contextlib, io, json, sys, time
start = time.perf_counter()
import stopcost.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    stopcost.cli.main(json.loads(sys.argv[1]))
print(json.dumps(time.perf_counter() - start))
"""


@dataclass
class Record:
    op: Op
    seconds: float
    code: int
    text: str
    ref_seconds: float


def reference_kernel(steps: int = REF_STEPS) -> float:
    """A fixed yardstick of host speed: 4-7 ms on a shared 2-vCPU x86-64 host, as its load varies.

    It mixes what the program's ops spend their time on: about three fifths
    interpreter loops and numpy calls on scalars, like the rollouts and the
    simplex, and two fifths BLAS matrix products, like the dense Kronecker
    chains. The host's slow spells slow these two kinds of work by different
    amounts. The kernel shares no code with `stopcost`, so a change to the
    program cannot move it.
    """
    gen = np.random.default_rng(1)
    v = _REF_START.copy()
    total = 0
    for _ in range(steps):
        v = _REF_MATRIX @ v
        total += int(np.searchsorted(_REF_CUM, gen.random() * _REF_CUM[-1]))
        total += sum(i * i for i in range(20))
    product = _REF_LEFT
    for _ in range(2):
        product = (product @ _REF_RIGHT) * 1e-2
    return total + float(product[0, 0])


class SetupSampler:
    """Set-up times, each from a fresh interpreter, spread evenly over the timed loop.

    The host's speed swings last seconds, so set-up runs made back to back
    all see the same speed. Spread over the run, their median sees the mix
    of speeds the ops see.
    """

    def __init__(self, root: Path, argv: list[str], repeats: int, seconds: float):
        self.root, self.argv, self.repeats, self.seconds = root, argv, repeats, seconds
        self.times: list[float] = []
        self.spent = 0.0                 # wall time of the set-up runs, children included

    def _once(self) -> None:
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, json.dumps(self.argv)],
                              cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(json.loads(proc.stdout.strip().splitlines()[-1]))  # a failing op shows in the loop
        self.spent += time.perf_counter() - t0

    def due(self, busy: float) -> None:
        """Called between rounds with the op time so far; runs the set-ups now due."""
        while len(self.times) < self.repeats and busy >= len(self.times) * self.seconds / self.repeats:
            self._once()

    def finish(self) -> list[float]:
        while len(self.times) < self.repeats:
            self._once()
        return self.times


def timed_loop(ops: list[Op], seconds: float, tracer: tracing.Tracer | None = None,
               setup: SetupSampler | None = None) -> tuple[list[Record], float]:
    """Whole rounds of `ops` until they and the reference kernel after each op have taken `seconds`.

    Returns the records and that busy time; set-up runs between rounds do not count.
    """
    records: list[Record] = []
    busy = 0.0
    while True:
        if setup is not None:
            setup.due(busy)
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            code, text = op.run()
            t1 = time.perf_counter()
            reference_kernel()
            t2 = time.perf_counter()
            records.append(Record(op, t1 - t0, code, text, t2 - t1))
            busy += t2 - t0
        if busy >= seconds:
            return records, busy


class Checker:
    """Oracle verdicts, computed once per distinct (op, output text)."""

    def __init__(self):
        self._seen: dict[tuple[int, str], bool] = {}

    def ok(self, rec: Record) -> bool:
        key = (id(rec.op), rec.text)
        if key not in self._seen:
            self._seen[key] = rec.op.verify(rec.text)
        return self._seen[key]

    def tally(self, records: list[Record]) -> tuple[int, int, int]:
        """(correct answers, failed ops, wrong answers)."""
        failed = sum(r.code != 0 for r in records)
        wrong = sum(r.code == 0 and not self.ok(r) for r in records)
        return len(records) - failed - wrong, failed, wrong


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def in_ref_units(records: list[Record]) -> list[float]:
    """Each op's latency over the median reference time of the ops around it."""
    refs = [r.ref_seconds for r in records]
    return [r.seconds / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, r in enumerate(records)]


def mean_in_ref_units(records: list[Record]) -> float:
    return sum(r.seconds for r in records) / sum(r.ref_seconds for r in records)


def tail_in_ref_units(records: list[Record]) -> tuple[float, int]:
    """p75 over the distinct ops of each op's median latency in ref units, and the op count.

    Taking each op's median over its repeats first keeps the host's swings
    out of the tail: on a busy host, the p75 of single latencies mostly
    measured how unevenly the host ran during the run.
    """
    per_op: dict[int, list[float]] = {}
    for rec, value in zip(records, in_ref_units(records)):
        per_op.setdefault(id(rec.op), []).append(value)
    medians = [statistics.median(values) for values in per_op.values()]
    return nearest_rank(medians, TAIL_PCT), len(medians)


def environment(root: Path, blas_threads: int, round_len: int) -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": blas_threads,
            "nproc": os.cpu_count(), "ops_per_round": round_len}


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else "")


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A temporary directory for generated inputs, inside the checkout and removed afterwards."""
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            yield Path(tmp)
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass                         # another run still uses it


def run(root: Path, workload: str, seed: int, seconds: int, trace: bool, blas_threads: int,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and print its report; returns the final JSON object."""
    wl = WORKLOADS[workload]
    with scratch_dir(root) as tmp:
        ops, probes = wl.build(Draws(seed), tmp)
        return _measure(root, wl, ops, probes, seed, seconds, trace, blas_threads, setup_repeats)


def _first_of_each_kind(ops: list[Op]) -> list[Op]:
    kinds = {}
    for op in ops:
        kinds.setdefault(op.label.split()[0], op)
    return list(kinds.values())


def _measure(root, wl, ops, probes, seed, seconds, trace, blas_threads, setup_repeats) -> dict:
    print("env " + json.dumps(environment(root, blas_threads, len(ops))))
    print(f"workload {wl.name} seed {seed}: {wl.why}")
    checker = Checker()
    stages = {}
    t0 = time.perf_counter()
    warm, _ = timed_loop(_first_of_each_kind(ops), 0.0)   # lazy imports and first-call costs settle
    stages["warm-up"] = time.perf_counter() - t0

    tracer, plain_wrong = None, 0
    if trace:
        plain, _ = timed_loop(ops, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records, busy = timed_loop(ops, seconds / 2, tracer)
            probe_records, _ = timed_loop(probes, 0.0, tracer) if probes else ([], 0.0)
            tracer.op = len(records) + len(probe_records)
        finally:
            tracer.uninstall()
    else:
        sampler = SetupSampler(root, ops[0].argv, setup_repeats, seconds)
        records, busy = timed_loop(ops, seconds, setup=sampler)
        setup = sampler.finish()
        stages["setup"] = sampler.spent
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_records, _ = timed_loop(probes, 0.0) if probes else ([], 0.0)

    t0 = time.perf_counter()
    good, failed, wrong = checker.tally(records)
    warm_wrong = checker.tally(warm)[2]
    _, probe_failed, probe_wrong = checker.tally(probe_records)
    stages["oracles"] = time.perf_counter() - t0
    n = len(records)
    print(f"ops {n} in {n // len(ops)} rounds of {len(ops)}, timed loop busy {busy:.3f} s; "
          + ", ".join(f"{k} {v:.2f} s" for k, v in stages.items()))
    for rec in records:
        if rec.code != 0 or not checker.ok(rec):
            print(f"first bad op {rec.op.label}: exit {rec.code}" + ("" if rec.code else ", wrong answer"))
            break
    for rec in probe_records:
        verdict = "" if rec.code else ", correct" if checker.ok(rec) else ", wrong answer"
        print(f"probe {rec.op.label}: exit {rec.code}{verdict}")

    latencies = [r.seconds for r in records]
    beyond = n - math.ceil(TAIL_PCT / 100.0 * n)
    tail_note = (f"p{TAIL_PCT:g} of {n} ops, {beyond} beyond"
                 + ("" if beyond >= TAIL_MIN_BEYOND else f"; fewer than {TAIL_MIN_BEYOND}"))
    op_mean_ref = mean_in_ref_units(records)
    op_tail_ref, distinct = tail_in_ref_units(records)
    e2e = {"op_mean_ref": (op_mean_ref, "ref", f"mean of {n} ops over the mean reference time"),
           "op_tail_ref": (op_tail_ref, "ref",
                           f"p{TAIL_PCT:g} over {distinct} distinct ops of each op's median over "
                           f"its {n // distinct} repeats; each run over the median reference time "
                           f"of the {2 * REF_WINDOW} ops around it"),
           "ref_ms": (1e3 * statistics.median(r.ref_seconds for r in records), "ms",
                      f"median reference kernel time, {REF_STEPS} steps"),
           "ops_per_s": (good / sum(latencies), "1/s", "correct ops over the summed op latency"),
           "op_p50_ms": (1e3 * statistics.median(latencies), "ms", f"median of {n} ops"),
           "op_tail_ms": (1e3 * nearest_rank(latencies, TAIL_PCT), "ms", tail_note)}
    if not trace:
        e2e = {"setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
               **e2e, "peak_rss_mb": (peak_rss_mb, "MB", "")}
    e2e["fail_share"] = (failed / n, "share", f"of {n} ops")
    e2e["wrong_share"] = (wrong / n, "share", f"of {n} ops")
    if probes:
        e2e["probe_fail_share"] = (probe_failed / len(probe_records), "share",
                                   f"of {len(probe_records)} untimed packaged-model probes, a known defect")
    for name, (value, unit, note) in e2e.items():
        print(_line(name, value, unit, note))

    if trace:
        layer_values, absent = tracing.per_layer_metrics(tracer.spans, tracer.op)
        plain_wrong = checker.tally(plain)[2]
        plain_mean_ref = mean_in_ref_units(plain)
        metrics = {name: (layer_values[name], unit) for name, (_, _, unit) in tracing.PER_LAYER.items()}
        metrics["trace.overhead"] = (op_mean_ref / plain_mean_ref - 1.0, "share")
        for name, (value, unit) in metrics.items():
            print(_line(name, value, unit))
        print(f"traced ops {tracer.op}; untraced op_mean_ref {plain_mean_ref!r}, traced {op_mean_ref!r}")
        if absent:
            print("absent (layer never called on this workload, reported as 0): " + " ".join(absent))
        spans_path = root / ".perfbench_out" / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(root)}")
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items() if name in END_TO_END}

    correct = wrong == 0 and warm_wrong == 0 and probe_wrong == 0 and plain_wrong == 0
    return {"correct": correct, "attempted": n, "failed": failed + wrong,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
