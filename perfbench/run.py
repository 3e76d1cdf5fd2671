"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Workloads: queue-study, epidemic-study, long-horizon, unbounded (see
perfbench/README.md). Exits 2 without a result when the `stopcost` sources
are not beside the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# listed here because workloads.py imports numpy, which must wait for the BLAS pin
WORKLOAD_NAMES = ("queue-study", "epidemic-study", "long-horizon", "unbounded")
BLAS_THREADS = 1                          # fixed, and no higher than nproc on any machine


def prepare() -> None:
    """Pin BLAS threads before numpy loads and put the package sources on the path."""
    if not (ROOT / "src" / "stopcost" / "cli.py").is_file():
        raise FileNotFoundError(f"no stopcost sources under {ROOT / 'src'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stopcost benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    result = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
