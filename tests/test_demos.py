"""Each demo script runs to completion with its default arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 5


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert run_demo(demo).strip()


LONG_RUN_GOLDEN = """\
oscillation terms of g(t):
  amplitude 1.0000, modulus 0.9000, step angle 30.0000 deg (30/1 deg), phase 0.0000 deg

witness  t0 = 1 with g(t0) = 0.779423  [complex]
cutoff   n0 = 4: beyond this, |g(t)| < g(t0) always
optimum  t* = 1 with supremum 0.779423

robust geometric stopping law around rho_hat = 0.3:
  radius   worst rho   robust cost   trunc. bound
    0.00    0.300000      0.208457       2.14e-40
    0.10    0.309278      0.219625       1.52e-41
    0.50    0.352941      0.272665       3.69e-47
    1.00    0.428571      0.363028       7.56e-58
    2.00    0.750000      0.654688      6.20e-129
"""


# Printed before the unbounded-horizon searches stopped early; must not move.
def test_long_run_output_is_pinned():
    assert run_demo(ROOT / "demos" / "long_run.py") == LONG_RUN_GOLDEN
