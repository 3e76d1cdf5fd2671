import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stopcost
from stopcost.cli import main
from stopcost.finite_horizon import CostSequence, cost_sequence_naive
from stopcost.scenarios import ComparisonReport
from stopcost.wasserstein import AmbiguitySet, drce_finite

from helpers import lazy_cycle

TWO_STATE = {
    "kind": "markov", "n": 2,
    "matrix": [0.8, 0.1, 0.2, 0.9],
    "cost": [1.0, 0.0],
    "x0": [1.0, 0.0],
}
SCALAR_GAS = {
    "kind": "gas", "n": 1,
    "matrix": [0.5],
    "cost": [1.0],
    "x0": [1.0],
}
ROTATION_GAS = {
    "kind": "gas", "n": 2,
    "matrix": [0.0, -0.5, 0.5, 0.0],
    "cost": [1.0, 0.0],
    "x0": [1.0, 0.0],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- convert ---

def test_convert_two_state_chain(tmp_path, capsys):
    model = write_json(tmp_path / "chain.json", TWO_STATE)
    out_path = tmp_path / "gas.json"
    code, out, err = run_cli(capsys, "convert", "--model", model,
                             "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    data = json.loads(out_path.read_text())
    assert data["kind"] == "gas" and data["n"] == 1
    assert data["matrix"][0] == pytest.approx(0.7, abs=1e-12)
    np.testing.assert_allclose(data["stationary"], [1.0 / 3.0, 2.0 / 3.0],
                               atol=1e-10)
    assert data["a_op"] == [1.0, 0.0]
    assert data["b_op"] == [1.0, -1.0]
    assert data["cost_offset"] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_convert_preserves_finite_horizon_answers(tmp_path, capsys):
    model = write_json(tmp_path / "chain.json", TWO_STATE)
    gas_path = tmp_path / "gas.json"
    assert run_cli(capsys, "convert", "--model", model,
                   "--out", str(gas_path))[0] == 0
    code_m, out_m, _ = run_cli(capsys, "rce", "--model", model, "--horizon", "12")
    code_g, out_g, _ = run_cli(capsys, "rce", "--model", str(gas_path),
                               "--horizon", "12")
    assert code_m == code_g == 0
    t_m, v_m = out_m.strip().split("\n")[1].split(",")
    t_g, v_g = out_g.strip().split("\n")[1].split(",")
    assert t_m == t_g
    assert float(v_g) == pytest.approx(float(v_m), abs=1e-9)


def test_convert_rejects_gas_input(tmp_path, capsys):
    model = write_json(tmp_path / "gas.json", SCALAR_GAS)
    code, out, err = run_cli(capsys, "convert", "--model", model)
    assert code == 2 and out == "" and err.startswith("error:")


def test_bad_columns_exit_code(tmp_path, capsys):
    broken = dict(TWO_STATE, matrix=[0.8, 0.1, 0.3, 0.9])
    model = write_json(tmp_path / "broken.json", broken)
    code, out, err = run_cli(capsys, "convert", "--model", model)
    assert code == 2 and out == "" and "error:" in err


def test_model_file_validation(tmp_path, capsys):
    model = tmp_path / "bad.json"
    model.write_text("{not json")
    assert run_cli(capsys, "rce", "--model", str(model), "--horizon", "3")[0] == 2
    missing = dict(SCALAR_GAS)
    del missing["cost"]
    path = write_json(tmp_path / "nocost.json", missing)
    assert run_cli(capsys, "rce", "--model", path, "--horizon", "3")[0] == 2


# -------------------------------------------------------------- rce / drce ---

def test_rce_scalar_both_algorithms(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    for algo in ("naive", "sabs"):
        code, out, err = run_cli(capsys, "rce", "--model", model,
                                 "--horizon", "3", "--algo", algo)
        assert code == 0 and err == ""
        assert out == "t_star,value\n1,0.5\n"


def test_rce_rejects_bad_horizon(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    assert run_cli(capsys, "rce", "--model", model, "--horizon", "0")[0] == 2


def test_drce_matches_library(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    p_hat = np.array([13.0 / 30.0, 7.0 / 30.0, 10.0 / 30.0])
    rows = ["t,probability"] + [f"{t},{p:.17g}" for t, p in enumerate(p_hat, 1)]
    nominal.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "drce", "--model", model,
                             "--nominal", str(nominal), "--radius", "0.1")
    assert code == 0
    header, row, _ = out.split("\n")
    assert header == "value,case_used"
    value_text, case_text = row.split(",")
    seq = cost_sequence_naive(np.array([[0.5]]), [1.0], [1.0], 3)
    expected = drce_finite(seq, AmbiguitySet(p_hat, 0.1))
    assert float(value_text) == pytest.approx(expected.value, abs=1e-10)
    assert case_text == expected.case_used


def test_drce_rejects_nonfinite_radius(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,0.5\n2,0.5\n")
    for radius in ("nan", "inf"):
        code, out, err = run_cli(capsys, "drce", "--model", model,
                                 "--nominal", str(nominal), "--radius", radius)
        assert code == 2 and out == "" and "radius" in err


def test_drce_rejects_duplicate_rows(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,0.5\n1,0.5\n")
    assert run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                   "--radius", "0.1")[0] == 2


# ------------------------------------------------------- unbounded horizon ---

def test_rce_inf_rotation(tmp_path, capsys):
    model = write_json(tmp_path / "rot.json", ROTATION_GAS)
    code, out, err = run_cli(capsys, "rce-inf", "--model", model)
    assert code == 0
    assert out == "kind,t_star,value\nattained,4,0.0625\n"


def test_rce_inf_markov_model_adds_offset(tmp_path, capsys):
    model = write_json(tmp_path / "chain.json", TWO_STATE)
    code, out, _ = run_cli(capsys, "rce-inf", "--model", model)
    assert code == 0
    kind, t_star, value = out.strip().split("\n")[1].split(",")
    assert kind in ("attained", "supremum-at-infinity")
    # raw chain costs are nonnegative, and so is their long-run mean
    assert float(value) >= 0.0
    if kind == "attained":
        direct = [0.0]
        m = np.array([[0.8, 0.1], [0.2, 0.9]])
        state = np.array([1.0, 0.0])
        for _ in range(200):
            state = m @ state
            direct.append(float(state[0]))
        assert float(value) == pytest.approx(max(direct[1:]), abs=1e-9)
        assert int(t_star) == int(np.argmax(direct[1:])) + 1


def test_drce_geom_scalar(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    code, out, err = run_cli(capsys, "drce-geom", "--model", model,
                             "--rho", "0.5", "--radius", "0.5")
    assert code == 0
    header, row, _ = out.split("\n")
    assert header == "rho_star,value,truncation_bound"
    rho_star, value, bound = (float(tok) for tok in row.split(","))
    assert rho_star == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert value == pytest.approx(0.4, abs=1e-6)
    assert 0.0 <= bound <= 1e-9


# Rows printed before the optimizer stopped restarts at their fixed points and
# the first-positive scan grew its windows; both must leave them byte for byte.
UNBOUNDED_GOLDEN_ROWS = {
    (32, "rce-inf"): "attained,8,0.492856287829",
    (32, "drce-geom"): "0.0181818181818,0.429817201252,4.48997732853e-21",
    (64, "rce-inf"): "attained,2,0.740580638173",
    (64, "drce-geom"): "0.0222222222222,0.581953873953,2.85962543072e-28",
    (128, "rce-inf"): "attained,16,0.639555691547",
    (128, "drce-geom"): "0.0222222222222,0.534834229929,2.8545818907e-30",
}


@pytest.mark.parametrize("n, command", sorted(UNBOUNDED_GOLDEN_ROWS))
def test_unbounded_rows_are_pinned(n, command, tmp_path, capsys):
    m, c, x0 = lazy_cycle(np.random.default_rng(5 + n), n)
    model = write_json(tmp_path / "cycle.json", {"kind": "markov", "n": n,
                                                  "matrix": m.ravel().tolist(),
                                                  "cost": c.tolist(), "x0": x0.tolist()})
    extra = ("--rho", "0.02", "--radius", "5") if command == "drce-geom" else ()
    code, out, err = run_cli(capsys, command, "--model", model, *extra)
    assert code == 0, err
    header = "kind,t_star,value" if command == "rce-inf" else "rho_star,value,truncation_bound"
    assert out == header + "\n" + UNBOUNDED_GOLDEN_ROWS[n, command] + "\n"


def test_drce_geom_rejects_nonfinite_radius_and_eps(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    for radius, eps, name in (("nan", "1e-9", "radius"), ("inf", "1e-9", "radius"),
                              ("0.5", "nan", "eps"), ("0.5", "inf", "eps")):
        code, out, err = run_cli(capsys, "drce-geom", "--model", model, "--rho", "0.5",
                                 "--radius", radius, "--eps", eps)
        assert code == 2 and out == "" and name in err, (radius, eps, err)


# ----------------------------------------------------- scenarios and bench ---

def test_scenario_sir_output(tmp_path, capsys):
    code, out, err = run_cli(capsys, "scenario", "sir",
                             "--samples", "100", "--seed", "42", "--xi", "0.5")
    assert code == 0
    header, row, _ = out.split("\n")
    assert header == ComparisonReport.CSV_HEADER
    fields = row.split(",")
    assert len(fields) == 7
    empirical, drce_cost = float(fields[0]), float(fields[1])
    assert 0.0 < empirical < 5.0
    assert 0.0 < drce_cost < 5.0          # at most the whole population infected
    assert int(fields[6]) == 42


def test_scenario_csoc_runs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scenario", "csoc",
                           "--samples", "20", "--seed", "3", "--xi", "1.0")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[1]) >= float(row[0]) - 1e-9   # robust >= plug-in here
    assert 1 <= int(row[4]) <= 120


# Rows printed by the per-sample scalar rollout loop that the batched
# rollouts replaced; the batched draws must reproduce them byte for byte.
SCENARIO_GOLDEN_ROWS = {
    "csoc": "0.573429053239,0.63134453283,43.4,33.8,60,4,1",
    "sir": "0.7497612,3.1381943717,62.4,1.6,8,4,1",
    "svir": "0.6894468,1.35825127724,56.4,16.6,8,4,1",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN_ROWS))
def test_scenario_rows_are_pinned(name, capsys):
    code, out, err = run_cli(capsys, "scenario", name,
                             "--samples", "500", "--xi", "4", "--seed", "1")
    assert code == 0, err
    assert out == ComparisonReport.CSV_HEADER + "\n" + SCENARIO_GOLDEN_ROWS[name] + "\n"


def test_drce_and_scenario_do_not_import_the_lp_solver(tmp_path):
    # scipy.optimize takes about half as long to import as the package itself
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,1.0\n2,0.0\n3,0.0\n")
    script = (
        "import sys\n"
        "from stopcost.cli import main\n"
        f"assert main(['drce', '--model', {model!r}, '--nominal', {str(nominal)!r},"
        " '--radius', '0.5']) == 0\n"
        "assert main(['scenario', 'csoc', '--samples', '20', '--xi', '0']) == 0\n"
        "import numpy as np\n"
        "from stopcost import AmbiguitySet, CostSequence, GroundDistance, drce_finite\n"
        "d = GroundDistance.explicit([[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
        "sol = drce_finite(CostSequence(3, np.array([0.0, 1.0, 0.0])),\n"
        "                  AmbiguitySet(np.array([1.0, 0.0, 0.0]), 0.5, d))\n"
        "assert sol.case_used == 'lp' and abs(sol.value - 0.5) <= 1e-12, sol\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(Path(stopcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ",lp\n" in proc.stdout       # drce took the dual (ball meets boundary) path


def test_bench_output_parses(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "4,8", "--horizon", "64")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("n,horizon,naive_seconds,sabs_seconds,"
                        "markov_pow_seconds,gas_pow_seconds")
    assert len(lines) == 3
    for line in lines[1:]:
        n, horizon, *timings = line.split(",")
        assert int(horizon) == 64
        assert all(float(tok) > 0.0 for tok in timings)


def test_bench_rejects_bad_sizes(capsys):
    assert run_cli(capsys, "bench", "--sizes", "4,two")[0] == 2
    assert run_cli(capsys, "bench", "--sizes", "1,4")[0] == 2


# ------------------------------------------------------------ output paths ---

def test_out_file_matches_stdout(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    _, stdout_text, _ = run_cli(capsys, "rce", "--model", model, "--horizon", "5")
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "rce", "--model", model, "--horizon", "5",
                           "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == stdout_text


def test_failure_writes_nothing(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    out_path = tmp_path / "result.csv"
    code, _, _ = run_cli(capsys, "rce", "--model", model, "--horizon", "0",
                         "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
