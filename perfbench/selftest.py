"""Quick self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload for one round, untraced and traced, and checks that each
metric named in BENCHMARK.json is printed with its unit and reported in the
final JSON object. Then proves the oracle checks are live: a correct answer
of every op kind passes and the same answer with a corrupted value fails.
Finally it cross-checks the two LP forms of the Wasserstein worst case.
Exits 0 when everything holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run

PRINTED_ONLY = {"ref_ms": "ms", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                "fail_share": "share", "wrong_share": "share"}


def _printed(text: str) -> dict[str, str]:
    return {m.group(1): m.group(2) for m in re.finditer(r"^metric (\S+) \S+ (\S+)", text, re.M)}


def _corrupt(text: str, field: int, delta: float) -> str:
    header, row = text.strip().splitlines()
    cells = row.split(",")
    cells[field] = repr(float(cells[field]) + delta)
    return f"{header}\n{','.join(cells)}\n"


# op kind (first word of the label) -> (CSV field holding a value, corruption); None: bare number
CORRUPTIONS = {
    "rce": [(1, 1e-3)],
    "drce": [(0, 1e-3)],
    "w1_distance": [(None, 1e-3)],
    "rce-inf": [(2, 1e-3)],
    "drce-geom": [(1, 1e-3)],
    "scenario": [(0, 1e-3), (1, 1e-3), (3, 25.0)],
}


def _check_oracles(name, ops, expect) -> list[str]:
    """Run the first op of each kind; its answer must pass and its corruptions fail."""
    seen = set()
    for op in ops:
        kind = op.label.split()[0]
        if kind in seen:
            continue
        seen.add(kind)
        code, text = op.run()
        expect(code == 0 and op.verify(text), f"{name} {op.label}: true answer accepted")
        for field, delta in CORRUPTIONS[kind]:
            bad = repr(float(text) + delta) if field is None else _corrupt(text, field, delta)
            expect(not op.verify(bad), f"{name} {op.label}: field {field} +{delta:g} rejected")
    return sorted(seen)


def main() -> int:
    run.prepare()
    import numpy as np

    import harness
    import oracles
    from workloads import WORKLOADS, Draws

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)
            print("FAIL " + what)

    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES),
           "BENCHMARK.json and run.py name every workload")
    for trace, section, extra in ((False, "end_to_end", PRINTED_ONLY), (True, "per_layer", {})):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = harness.run(run.ROOT, name, seed=0, seconds=0, trace=trace,
                                     blas_threads=run.BLAS_THREADS, setup_repeats=1)
            printed = _printed(out.getvalue())
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            expect(reported == wanted, f"{tag}: JSON metrics are exactly the {section} list")
            expect(all(printed.get(k) == u for k, u in {**wanted, **extra}.items()),
                   f"{tag}: every metric printed with its unit")
            expect(result["correct"] and result["failed"] == 0, f"{tag}: all ops answered correctly")
            print(f"ok {tag}: {result['attempted']} ops")

    for name, wl in WORKLOADS.items():
        with harness.scratch_dir(run.ROOT) as tmp:
            ops, _ = wl.build(Draws(0), tmp)
            kinds = _check_oracles(name, ops, expect)
        print(f"ok {name}: oracles reject corrupted answers of {kinds}")

    rng = np.random.default_rng(7)
    for horizon in (15, 60, 120):
        g = np.cumsum(rng.normal(size=horizon))
        p_hat = rng.dirichlet(np.ones(horizon))
        for xi in (0.01, 2.0, 30.0):
            plan = oracles._worst_case_plan(g, p_hat, xi)
            flow = oracles._worst_case_flow(g, p_hat, xi)
            expect(abs(plan - flow) <= 1e-9 * max(1.0, float(np.abs(g).max())),
                   f"transport plan and edge flow agree at T={horizon} xi={xi}")
    print("ok transport-plan and edge-flow LP forms agree")

    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
