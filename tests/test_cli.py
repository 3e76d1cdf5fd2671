import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import stopcost
from stopcost import cli, markov_gas, matrix_core, scenarios
from stopcost.cli import build_parser, main
from stopcost.finite_horizon import CostSequence, cost_sequence_naive
from stopcost.infinite_horizon import rce_infinite
from stopcost.scenarios import ComparisonReport, CsocParams, HealthParams, build_csoc_overtime, \
    build_health_chain
from stopcost.wasserstein import AmbiguitySet, drce_finite

from helpers import geometric_grid_oracle, lazy_cycle, load_nominal_rows, random_stable, \
    rce_infinite_own_squares

TWO_STATE = {
    "kind": "markov", "n": 2,
    "matrix": [0.8, 0.1, 0.2, 0.9],
    "cost": [1.0, 0.0],
    "x0": [1.0, 0.0],
}
# two absorbing states, and the periodic 2-cycle: no unique stationary law
TWO_ABSORBING = {
    "kind": "markov", "n": 3,
    "matrix": [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0],
    "cost": [1.0, 2.0, 2.0],
    "x0": [0.0, 1.0, 0.0],
}
TWO_CYCLE = {
    "kind": "markov", "n": 2,
    "matrix": [0.0, 1.0, 1.0, 0.0],
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


@pytest.mark.parametrize("name,value", [
    ("n", [1]), ("n", 1.7), ("n", True), ("matrix", {"a": 1}), ("cost", {"a": 1}),
    ("x0", "one"), ("cost_offset", None), ("cost_offset", [1]), ("cost_offset", "1"),
    ("cost_offset", math.nan), ("cost_offset", math.inf), ("cost_offset", 10 ** 400)])
def test_malformed_model_fields_are_invalid_input(name, value, tmp_path, capsys):
    """A field of the wrong JSON type, or a NaN offset (which json.load
    accepts), is invalid input that names the field, not a traceback or a nan."""
    model = write_json(tmp_path / "bad.json", dict(SCALAR_GAS, **{name: value}))
    for argv in (["rce-inf"], ["drce-geom", "--rho", "0.5", "--radius", "0.5"],
                 ["rce", "--horizon", "3"]):
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert code == 2 and out == "", (argv, out)
        assert err.startswith("error:") and f"{name} " in err and "Traceback" not in err, err


# -------------------------------------------------------------- rce / drce ---

def test_rce_scalar(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    assert run_cli(capsys, "rce", "--model", model, "--horizon", "3") == \
        (0, "t_star,value\n1,0.5\n", "")


def test_rce_and_drce_have_no_algo_option(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("t,probability\n1,1\n")
    for argv in (("rce", "--horizon", "3"), ("drce", "--nominal", str(nominal), "--radius", "0.5")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--model", model, "--algo", "naive"])
        assert exc.value.code == 2


def test_finite_horizon_commands_answer_chains_without_a_stationary_law(
        tmp_path, capsys, monkeypatch):
    """rce and drce check a Markov file as a stochastic matrix only; the
    commands that need the mean-shifted form still reject it (exit 2)."""
    absorbing = write_json(tmp_path / "absorbing.json", TWO_ABSORBING)
    cycle = write_json(tmp_path / "cycle.json", TWO_CYCLE)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("t,probability\n1,0.5\n2,0.3\n3,0.2\n")
    for argv in (("rce-inf",), ("drce-geom", "--rho", "0.5", "--radius", "0.5"), ("convert",)):
        for model in (absorbing, cycle):
            code, out, err = run_cli(capsys, *argv, "--model", model)
            assert code == 2 and out == "" and "not ergodic enough" in err, argv

    def forbidden(*args, **kwargs):
        raise AssertionError("a finite-horizon op reached the stationary law")

    # the one squaring loop, wherever cli, markov_gas and matrix_core look it up
    monkeypatch.setattr(cli, "MarkovChain", forbidden)
    monkeypatch.setattr(cli, "stable_squares", forbidden)
    monkeypatch.setattr(markov_gas, "_stationary", forbidden)
    monkeypatch.setattr(markov_gas, "_reduce", forbidden)
    monkeypatch.setattr(markov_gas, "stable_squares", forbidden)
    monkeypatch.setattr(matrix_core, "stable_squares", forbidden)
    assert run_cli(capsys, "rce", "--model", absorbing, "--horizon", "4") == \
        (0, "t_star,value\n1,1.5\n", "")
    assert run_cli(capsys, "rce", "--model", cycle, "--horizon", "4") == \
        (0, "t_star,value\n2,1\n", "")
    assert run_cli(capsys, "drce", "--model", cycle, "--nominal", str(nominal),
                   "--radius", "0.5") == (0, "value,case_used\n0.8,lp\n", "")


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "model file must be a JSON object"),
    ({"kind": "chain", "n": 1, "matrix": [0.5]}, "kind must be 'markov' or 'gas', got 'chain'"),
    ({"kind": "gas", "matrix": [0.5], "cost": [1.0], "x0": [1.0]},
     "model file needs 'n' and 'matrix' fields"),
    ({"kind": "gas", "n": 2, "matrix": [0.5, 0.0, 0.5]}, "matrix has 3 entries, expected 4"),
])
def test_load_model_rejections_name_the_file(tmp_path, capsys, payload, message):
    model = write_json(tmp_path / "model.json", payload)
    assert run_cli(capsys, "rce", "--model", model, "--horizon", "3") == \
        (2, "", f"error: {model}: {message}\n")


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


@pytest.mark.parametrize("text,line", [
    ("1,0.25\nt,p\n2,0.5\nx,0.1\n3,0.25\n", 2),     # a header only on the first row
    ("t,p\n1,0.5\n2.5,0.5\n", 3),                     # a fractional t is not dropped
    ("t,p\n\n1,0.5\nx,0.5\n", 4),                     # line numbers count blank lines
])
def test_drce_rejects_a_non_integer_t_past_the_first_row(text, line, tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text(text)
    code, out, err = run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                             "--radius", "0.1")
    assert code == 2 and out == ""
    assert f"line {line} " in err and "non-integer stopping time" in err


@pytest.mark.parametrize("text,line,shown", [
    ("t,p\n1,0.5\n2,abc\n", 3, "2,abc"),
    ("1,0.5\n\n2,\n", 3, "2,"),                     # an empty probability
    ("1,nan\n2,0.5\n", 1, "1,nan"),
    ("1,0.5\n2,inf\n", 2, "2,inf"),
    # rows that parse but that AmbiguitySet would reject: the line of the first
    # negative probability, or (line None) the total
    ("1,-0.5\n2,1.5\n", 1, "1,-0.5"),
    ("t,p\n3,0.75\n\n1,-0.25\n2,0.25\n4,-1\n", 4, "1,-0.25"),
    ("1,0.5\n2,nan\n3,-0.5\n", 2, "2,nan"),        # a non-finite row is reported first
    ("1,0.2\n2,0.2\n", None, "0.4"),
    ("2,0.5\n1,0.5\n3,1e-8\n", None, "1.00000001"),
])
def test_drce_names_the_line_of_a_bad_probability(text, line, shown, tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text(text)
    code, out, err = run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                             "--radius", "0.1")
    assert code == 2 and out == ""
    if line is None:
        assert err == f"error: {nominal}: probabilities sum to {shown}, not 1\n"
    elif "-" in shown:
        assert err == f"error: {nominal}: line {line} ({shown!r}) has a negative probability\n"
    else:
        assert err == (f"error: {nominal}: line {line} ({shown!r}) "
                       "has a probability that is not a finite number\n")


def test_drce_keeps_a_probability_within_the_clamp_below_zero(tmp_path, capsys):
    # -1e-13 is within entry_clamp and the total within balance: AmbiguitySet
    # clamps the entry, so the file answers as the clean one does
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    answers = []
    for text in ("1,0.5\n2,0.5\n3,0\n", "1,0.5\n2,0.5\n3,-1e-13\n"):
        nominal.write_text(text)
        answers.append(run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                               "--radius", "0.1"))
    assert answers[0][0] == 0 and answers[0] == answers[1]


_T_FORMS = ("{}", " {} ", "+{}", "0{}", '"{}"')
_P_FORMS = ("{!r}", " {!r}", '"{!r}"', "{:.17g} ")
_BAD_T = ("x", "2.5", "0", "-1", "", " ")
_BAD_P = ("nan", "inf", "-inf", "abc", "", "-0.5", "-1e-13", '"0.2\n5"', "1e-300")


def _random_nominal_text(rng, plain=False) -> str:
    """A (t, probability) CSV with headers, blank rows, spaced, signed and quoted
    fields and rows out of order; some rows, probabilities or totals are broken.
    A plain text has no quote, `\r`, blank row, short row or third column, and
    may lack its final newline."""
    t_forms, p_forms, bad_p = (tuple(f for f in forms if '"' not in f) if plain else forms
                               for forms in (_T_FORMS, _P_FORMS, _BAD_P))
    support = rng.permutation(np.arange(1, int(rng.integers(1, 9)) + 1))
    support = support[:int(rng.integers(1, support.size + 1))]
    if rng.random() < 0.5:
        probs = [2.0 ** -int(k) for k in rng.integers(1, 4, size=support.size)]
        probs[-1] = 1.0 - sum(probs[:-1])       # exact dyadic total; may be negative
    else:
        w = rng.random(support.size) + 0.01
        probs = list(w / w.sum())
    if rng.random() < 0.1:
        probs[0] *= 1.5
    rows = [[t_forms[rng.integers(len(t_forms))].format(int(t)),
             p_forms[rng.integers(len(p_forms))].format(float(p))]
            for t, p in zip(support, probs)]
    for _ in range(int(rng.poisson(0.7))):      # breakages
        i = int(rng.integers(len(rows)))
        kind = (0, 1, 4)[rng.integers(3)] if plain else rng.integers(5)
        if kind == 0:
            rows[i][0] = _BAD_T[rng.integers(len(_BAD_T))]
        elif kind == 1:
            rows[i][1:] = [bad_p[rng.integers(len(bad_p))]]
        elif kind == 2:
            del rows[i][1:]
        elif kind == 3:
            rows[i].append("extra")
        else:
            rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
    if plain:
        if rng.random() < 0.4:
            rows.insert(0, [["t", "p"], ["time", " probability"]][rng.integers(2)])
        text = "".join(",".join(row) + "\n" for row in rows)
        return text[:-1] if rng.random() < 0.3 else text
    for _ in range(int(rng.poisson(1.0))):      # blank rows and rows with a blank t
        rows.insert(int(rng.integers(len(rows) + 1)), [["", " ", " ,0.5"][rng.integers(3)]])
    if rng.random() < 0.4:
        rows.insert(0, [["t", "p"], ["time", " probability"], ["t"]][rng.integers(3)])
    ends = ("\n", "\r\n")
    return "".join(",".join(row) + ends[rng.integers(2)] for row in rows)


def _check_against_the_row_loop(path) -> str:
    """Assert that `load_nominal` reads `path` as helpers.load_nominal_rows, the
    row-by-row loop it replaced, does: the same array bit for bit, or the same
    error; a law the loop returns that AmbiguitySet rejects is rejected by
    load_nominal, with the file named. Returns which of the three it was."""
    try:
        expected = load_nominal_rows(str(path))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            cli.load_nominal(str(path))
        assert str(got.value) == str(exc)
        return "row error"
    except csv.Error as exc:    # a NUL before Python 3.11: invalid input, the file named
        with pytest.raises(ValueError) as got:
            cli.load_nominal(str(path))
        assert str(got.value) == f"{path}: {exc}"
        return "row error"
    try:
        AmbiguitySet(expected, 0.0)
    except ValueError:
        with pytest.raises(ValueError) as got:
            cli.load_nominal(str(path))
        assert str(got.value).startswith(f"{path}: ")
        assert "negative probability" in str(got.value) or "sum to" in str(got.value)
        return "law error"
    got = cli.load_nominal(str(path))
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    return "answered"


def test_load_nominal_matches_the_row_loop(tmp_path):
    rng = np.random.default_rng(20241021)
    path = tmp_path / "nominal.csv"
    outcomes = {"answered": 0, "row error": 0, "law error": 0}
    for _ in range(1500):
        path.write_bytes(_random_nominal_text(rng).encode())
        outcomes[_check_against_the_row_loop(path)] += 1
    assert min(outcomes.values()) >= 150, outcomes
    # plain texts take the bulk split; count those that do
    split = 0
    for _ in range(700):
        text = _random_nominal_text(rng, plain=True)
        path.write_bytes(text.encode())
        _check_against_the_row_loop(path)
        split += cli._plain_columns(text) is not None
    assert split >= 500, split


def test_plain_nominal_files_build_no_csv_reader(tmp_path, monkeypatch):
    # long-horizon-style files, with and without a header and a final newline
    rng = np.random.default_rng(20241022)
    path = tmp_path / "nominal.csv"
    cases = []
    for horizon in (1, 2, 120, 600):
        p = rng.random(horizon) + 0.05
        rows = "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(p / p.sum(), 1))
        for text in (rows, rows[:-1], "t,probability\n" + rows, "t,probability\n" + rows[:-1]):
            path.write_text(text)
            cases.append((text, load_nominal_rows(str(path))))

    def no_reader(*args, **kwargs):
        raise AssertionError("a plain file built a csv reader")

    monkeypatch.setattr(csv, "reader", no_reader)
    for text, expected in cases:
        path.write_text(text)
        assert cli.load_nominal(str(path)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("data", [
    b" ,0.5\nt,p\n1,1\n",           # csv skips the blank-t row; the next one is the header
    b" ,0.5\n1,0.25\n2,0.75\n",
    b"t,p\ntime,probability\n1,1\n",
    b"t,p\r\n1,0.5\r\n2,0.5\r\n",
    b'1,"0.5"\n2,0.5\n',
    b"1,0.5,x\n2,0.5,y\n",
    b"1,0.5,2\n0.5\n",               # a comma moved a line down: no split pairs these fields
    b"t,p,1\n0.5\n2,0.5\n",
    b"1,0.5\n\n2,0.5\n",
    b"1,0.5\r2,0.5\n",
    b"1,0.5\x00\n2,0.5\n",
    b"1_0,0.5\n2,0.5\n",
    b" 5 ,0.5\n2,0.5\n",
    b"+3,0.5\n2,0.5\n",
    b"t,p\n" + b"".join(b"%d,0.001\n" % t for t in range(1, 1001)) + b"\xff,1\n",
], ids=["blank-t-first", "blank-t-first-no-header", "two-headers", "crlf", "quoted",
        "third-column", "comma-moved-down", "header-comma-moved-down", "blank-line", "lone-cr", "nul", "underscore-t", "spaced-t",
        "plus-t", "late-undecodable-byte"])
def test_load_nominal_matches_the_row_loop_on_edge_files(tmp_path, data):
    path = tmp_path / "nominal.csv"
    path.write_bytes(data)
    _check_against_the_row_loop(path)


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


def test_cost_offset_applies_on_every_subcommand(tmp_path, capsys):
    """A Markov file's cost_offset shifts every answer, and `convert` writes it
    into the gas file's offset, whose rce-inf row is then the Markov file's."""
    model = write_json(tmp_path / "offset.json", {**TWO_STATE, "cost_offset": 5})
    assert run_cli(capsys, "rce", "--model", model, "--horizon", "3") == \
        (0, "t_star,value\n1,5.8\n", "")
    rce_inf = run_cli(capsys, "rce-inf", "--model", model)
    assert rce_inf == (0, "kind,t_star,value\nattained,1,5.8\n", "")
    drce_geom = run_cli(capsys, "drce-geom", "--model", model, "--rho", "0.5", "--radius", "0.5")
    assert drce_geom[0] == 0
    assert drce_geom[1].split("\n")[1].split(",")[:2] == ["0.666666666667", "5.73913043478"]
    gas = tmp_path / "gas.json"
    assert run_cli(capsys, "convert", "--model", model, "--out", str(gas))[0] == 0
    assert json.loads(gas.read_text())["cost_offset"] == pytest.approx(5 + 1.0 / 3.0, abs=1e-12)
    assert run_cli(capsys, "rce-inf", "--model", str(gas)) == rce_inf
    assert run_cli(capsys, "drce-geom", "--model", str(gas), "--rho", "0.5",
                   "--radius", "0.5") == drce_geom
    costless = write_json(tmp_path / "costless.json", {**TWO_STATE, "cost": None, "cost_offset": 5})
    code, out, _ = run_cli(capsys, "convert", "--model", costless)
    assert code == 0 and json.loads(out)["cost_offset"] == 5


def _shifted_cases():
    """(model, m_bar): lazy-cycle Markov files, random stable gas files, and a gas
    rotation whose |M^k|_inf < 1 first at k > 4,096, past the row table."""
    for n in (32, 64, 128):
        m, c, x0 = lazy_cycle(np.random.default_rng(5 + n), n)
        a_op, b_op = markov_gas.build_ab(n)
        yield cli.ModelFile("markov", n, m, c, x0, 0.0), a_op @ m @ b_op
    rng = np.random.default_rng(389)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        m = random_stable(rng, n, rho_max=0.999)
        yield cli.ModelFile("gas", n, m, rng.standard_normal(n), rng.standard_normal(n), 0.0), m
    rng = np.random.default_rng(379)
    m = scipy.linalg.block_diag(*(0.99999 * np.array([[math.cos(t), -math.sin(t)],
                                                      [math.sin(t), math.cos(t)]])
                                  for t in rng.uniform(0.2, 1.3, 10)))
    x = rng.standard_normal(20)
    yield cli.ModelFile("gas", 20, m, x, x, 0.0), m


def test_rce_inf_shared_squares_are_bit_identical():
    """The CLI path scans with the squares that certified the model; its result
    equals, with ==, rce_infinite run afresh on (m_bar, c_bar, v0_bar) and the
    scan that squared on its own before the squares were shared."""
    for model, m_bar in _shifted_cases():
        squares, cost, x0, _ = cli._to_shifted(model)
        assert np.array_equal(squares.matrix, m_bar)
        result = rce_infinite(squares, cost, x0)
        assert result == rce_infinite(m_bar, cost, x0)
        assert (result.kind, result.t_star, result.value) == \
            rce_infinite_own_squares(m_bar, cost, x0)


def test_rce_inf_on_a_markov_file_squares_once(tmp_path, capsys, monkeypatch):
    """One rce-inf forms A M B once and runs one squaring pass: every |M^k| row-sum
    norm of the 63 x 63 reduced matrix's squares is taken once, up to k = 256."""
    m, c, x0 = lazy_cycle(np.random.default_rng(69), 64)
    model = write_json(tmp_path / "cycle.json", {"kind": "markov", "n": 64,
                                                  "matrix": m.ravel().tolist(),
                                                  "cost": c.tolist(), "x0": x0.tolist()})
    expected = run_cli(capsys, "rce-inf", "--model", model)
    a_op, b_op = markov_gas.build_ab(64)
    k = matrix_core.stable_squares(a_op @ markov_gas._validate_transition(m) @ b_op).k
    assert k == 256
    calls = {"build_ab": 0, "abs": 0}
    build_ab, np_abs = markov_gas.build_ab, np.abs

    def counting_build_ab(n):
        calls["build_ab"] += 1
        return build_ab(n)

    def counting_abs(a, *args, **kwargs):
        calls["abs"] += np.shape(a) == (63, 63)
        return np_abs(a, *args, **kwargs)

    monkeypatch.setattr(markov_gas, "build_ab", counting_build_ab)
    monkeypatch.setattr(np, "abs", counting_abs)
    assert run_cli(capsys, "rce-inf", "--model", model) == expected
    assert calls == {"build_ab": 1, "abs": k.bit_length()}


def test_unbounded_ops_reject_unit_radius_gas_model(tmp_path, capsys, monkeypatch):
    """A 243-state chain with two closed classes, reduced to gas form: its powers
    tend to a norm-1 projector that rounding leaves under 1, on which rce_infinite's
    own `< 1` test passes and its scan never ends. The model is rejected first."""
    rng = np.random.default_rng(1)
    m = np.zeros((243, 243))
    for lo, hi in ((0, 121), (121, 243)):
        raw = rng.random((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = raw / raw.sum(axis=0)
    m_bar = np.tril(np.ones((242, 243))) @ m @ (np.eye(243, 242) - np.eye(243, 242, -1))
    model = write_json(tmp_path / "two-class.json", {
        "kind": "gas", "n": 242, "matrix": m_bar.ravel().tolist(),
        "cost": rng.standard_normal(242).tolist(), "x0": rng.standard_normal(242).tolist()})

    def unreachable(*args, **kwargs):
        raise AssertionError("a unit-radius model reached the unbounded solvers")

    monkeypatch.setattr("stopcost.cli.rce_infinite", unreachable)
    monkeypatch.setattr("stopcost.cli.geometric_drce_exact", unreachable)
    for argv in (("rce-inf",), ("drce-geom", "--rho", "0.02", "--radius", "5")):
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, out) == (2, "")
        assert "spectral radius must be strictly below 1" in err


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


# Pinned byte for byte. drce-geom's third column is the Chebyshev tail estimate
# of the exact resolvent: here the rounding floor, 64 ulps of max(1, max|F|) = 1.
UNBOUNDED_GOLDEN_ROWS = {
    (32, "rce-inf"): "attained,8,0.492856287829",
    (32, "drce-geom"): "0.0181818181818,0.429817201252,1.42108547152e-14",
    (64, "rce-inf"): "attained,2,0.740580638173",
    (64, "drce-geom"): "0.0222222222222,0.581953873953,1.42108547152e-14",
    (128, "rce-inf"): "attained,16,0.639555691547",
    (128, "drce-geom"): "0.0222222222222,0.534834229929,1.42108547152e-14",
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


def test_drce_geom_names_a_ball_below_the_rate_floor(tmp_path, capsys):
    # {1e-13} is a ball, but every rate in it lies below the smallest rate
    # supported; the same ball at 1e-11 answers
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    code, out, err = run_cli(capsys, "drce-geom", "--model", model,
                             "--rho", "1e-13", "--radius", "0")
    assert (code, out) == (2, "")
    assert err == ("error: every rate within radius 0.0 of rho_hat = 1e-13 lies below "
                   "1e-12, the smallest rate supported\n")
    code, out, err = run_cli(capsys, "drce-geom", "--model", model,
                             "--rho", "1e-11", "--radius", "0")
    assert code == 0, err
    assert out.split("\n")[1].split(",")[0] == "1e-11"


def test_drce_geom_exits_1_when_the_interpolant_needs_more_nodes(tmp_path, capsys, monkeypatch):
    model, _ = _lazy_cycle_files(tmp_path)
    argv = ("drce-geom", "--model", model, "--rho", "0.5", "--radius", "2")
    assert run_cli(capsys, *argv)[0] == 0          # degree 32 on [0.25, 1]
    monkeypatch.setattr("stopcost.infinite_horizon._CHEB_MAX_DEGREE", 16)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "Chebyshev tail" in err and "degree 16" in err


EIGENSOLVERS = [(np.linalg, "eig"), (np.linalg, "eigvals"),
                (scipy.linalg, "eig"), (scipy.linalg, "eigvals"), (scipy.linalg, "schur")]


def _lazy_cycle_files(tmp_path, n=48):
    m, c, x0 = lazy_cycle(np.random.default_rng(43), n)
    model = write_json(tmp_path / "cycle.json", {"kind": "markov", "n": n,
                                                  "matrix": m.ravel().tolist(),
                                                  "cost": c.tolist(), "x0": x0.tolist()})
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("t,p\n" + "".join(f"{t},{p}\n" for t, p in enumerate([0.1, 0.2, 0.4, 0.2, 0.1], 1)))
    return model, str(nominal)


def test_markov_ops_run_no_eigensolver(tmp_path, capsys, monkeypatch):
    """Stability of a Markov file is certified by squaring (rce and drce need
    none): rce-inf, convert, rce and drce answer as before with every
    eigensolver disabled."""
    model, nominal = _lazy_cycle_files(tmp_path)
    runs = [("rce-inf", "--model", model), ("convert", "--model", model),
            ("rce", "--model", model, "--horizon", "300"),
            ("drce", "--model", model, "--nominal", nominal, "--radius", "0.5")]
    expected = [run_cli(capsys, *argv) for argv in runs]
    assert all(code == 0 for code, _, _ in expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Markov op reached an eigensolver")

    for module, name in EIGENSOLVERS:
        monkeypatch.setattr(module, name, forbidden)
    assert [run_cli(capsys, *argv) for argv in runs] == expected


def test_drce_geom_eigensolves_only_in_real_jordan(tmp_path, capsys, monkeypatch):
    """drce-geom evaluates the resolvent from the certificate's squares, with a
    direct solve for any rate that fails its backward-error check: it answers as
    before with every eigensolver disabled, and np.linalg.eig is never reached,
    not even through real_jordan."""
    model, _ = _lazy_cycle_files(tmp_path)
    runs = [("drce-geom", "--model", model, "--rho", "0.02", "--radius", "5"),
            ("drce-geom", "--model", model, "--rho", "0.5", "--radius", "0.2")]
    expected = [run_cli(capsys, *argv) for argv in runs]
    assert all(code == 0 for code, _, _ in expected), expected
    callers = []
    eig = np.linalg.eig

    def traced(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_globals["__name__"]))
        return eig(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("drce-geom reached an eigensolver outside real_jordan")

    for module, name in EIGENSOLVERS:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(np.linalg, "eig", traced)
    assert [run_cli(capsys, *argv) for argv in runs] == expected
    assert set(callers) <= {("real_jordan", stopcost.matrix_core.__name__)}
    assert callers == []


PACKAGED_MODELS = {
    "csoc-cap10": lambda: build_csoc_overtime(CsocParams(queue_cap=10)),
    "csoc-cap100": lambda: build_csoc_overtime(CsocParams(queue_cap=100)),
    "sir-pop5": lambda: build_health_chain(HealthParams(model="sir", population=5)),
    "svir-pop3": lambda: build_health_chain(HealthParams(model="svir", population=3)),
}


@pytest.mark.parametrize("label", sorted(PACKAGED_MODELS))
def test_rce_inf_answers_packaged_models(label, tmp_path, capsys):
    m, x0, c = PACKAGED_MODELS[label]()
    model = write_json(tmp_path / "model.json", {"kind": "markov", "n": m.shape[0],
                                                  "matrix": m.ravel().tolist(),
                                                  "cost": c.tolist(), "x0": x0.tolist()})
    code, out, err = run_cli(capsys, "rce-inf", "--model", model)
    assert code == 0, err
    header, row, _ = out.split("\n")
    assert header == "kind,t_star,value"
    kind, t_star, value = row.split(",")
    direct, state = np.empty(5000), x0.copy()
    for t in range(direct.size):
        state = m @ state
        direct[t] = c @ state
    scale = max(1.0, float(np.abs(direct).max()))
    if kind == "attained":
        assert int(t_star) == int(np.argmax(direct)) + 1
        assert float(value) == pytest.approx(direct.max(), abs=1e-9 * scale)
    else:
        assert kind == "supremum-at-infinity" and t_star == ""
        assert direct.max() <= float(value) + 1e-9 * scale
        assert float(value) == pytest.approx(direct[-1], abs=1e-9 * scale)


# Worst rates and values at (rho_hat, xi) = (0.02, 5), where real_jordan gave up
PACKAGED_DRCE_GEOM = {
    "csoc-cap10": "0.0222222222222,0.209432000114",
    "csoc-cap100": "0.0222222222222,0.38326877597",
    "sir-pop5": "0.0222222222222,0.89282433773",
    "svir-pop3": "0.0222222222222,0.435674185632",
}


@pytest.mark.parametrize("label", sorted(PACKAGED_MODELS))
def test_drce_geom_answers_packaged_models(label, tmp_path, capsys):
    m, x0, c = PACKAGED_MODELS[label]()
    model = write_json(tmp_path / "model.json", {"kind": "markov", "n": m.shape[0],
                                                  "matrix": m.ravel().tolist(),
                                                  "cost": c.tolist(), "x0": x0.tolist()})
    code, out, err = run_cli(capsys, "drce-geom", "--model", model,
                             "--rho", "0.02", "--radius", "5")
    assert code == 0, err
    header, row, _ = out.split("\n")
    assert header == "rho_star,value,truncation_bound"
    rho_star, value, tail = row.split(",")
    assert f"{rho_star},{value}" == PACKAGED_DRCE_GEOM[label]
    assert 0.0 < float(tail) <= 1e-9
    grid = geometric_grid_oracle(m, c, x0, np.linspace(0.02 / 1.1, 0.02 / 0.9, 4001))
    scale = max(1.0, float(np.abs(c).max()))
    assert float(value) >= grid.max() - 1e-12 * scale
    assert float(value) == pytest.approx(grid[-1], abs=1e-12 * scale)


# --------------------------------------------------------------- scenarios ---

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


def test_scenario_csoc_row_over_several_rollout_blocks_is_pinned(capsys, monkeypatch):
    """2000 samples of up to 242 draws take four rollout blocks of at most 541
    samples; the row was printed before the start states were computed in bulk."""
    blocks = []
    monkeypatch.setattr(scenarios, "_draw_streams",
                        lambda *args, _draw=scenarios._draw_streams: blocks.append(1) or
                        _draw(*args))
    code, out, err = run_cli(capsys, "scenario", "csoc",
                             "--samples", "2000", "--xi", "4", "--seed", "1")
    assert code == 0, err
    assert out == (ComparisonReport.CSV_HEADER + "\n"
                   + "0.564478072867,0.624694633666,47.6,35.8,61,4,1\n")
    assert len(blocks) == 4


# sir and svir at 2000 samples: one rollout block of ~18k draws of at most 16
# per stream, so three chunks of short-stream cells. Printed before the short
# streams were drawn as one flat run of cells.
EPIDEMIC_2000_SAMPLE_ROWS = {
    "sir": "0.7497612,3.1098881197,60.1,2.2,8,4,1",
    "svir": "0.6894468,1.35031103412,56.25,17.1,8,4,1",
}


@pytest.mark.parametrize("name", sorted(EPIDEMIC_2000_SAMPLE_ROWS))
def test_epidemic_rows_over_several_short_stream_chunks_are_pinned(name, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(scenarios, "_draw_streams",
                        lambda *args, _draw=scenarios._draw_streams: draws.append(sum(args[2])) or
                        _draw(*args))
    code, out, err = run_cli(capsys, "scenario", name,
                             "--samples", "2000", "--xi", "4", "--seed", "1")
    assert code == 0, err
    assert out == ComparisonReport.CSV_HEADER + "\n" + EPIDEMIC_2000_SAMPLE_ROWS[name] + "\n"
    assert len(draws) == 1
    assert 2 * scenarios._SHORT_CHUNK_CELLS < draws[0] <= 3 * scenarios._SHORT_CHUNK_CELLS


# Seeds of two and five uint32 words, printed before the per-sample
# SeedSequence was replaced by the vectorized replica of its seeding.
MULTIWORD_SEED_ROWS = {
    2**32: "0.573429053239,0.636500206663,44.6,31,60,4,4294967296",
    2**128 + 1: "0.555591818375,0.617061379188,44.4,33.6,62,4,"
                "340282366920938463463374607431768211457",
}


@pytest.mark.parametrize("seed", sorted(MULTIWORD_SEED_ROWS))
def test_scenario_rows_are_pinned_at_multiword_seeds(seed, capsys):
    code, out, err = run_cli(capsys, "scenario", "csoc",
                             "--samples", "500", "--xi", "4", "--seed", str(seed))
    assert code == 0, err
    assert out == ComparisonReport.CSV_HEADER + "\n" + MULTIWORD_SEED_ROWS[seed] + "\n"


# sir and svir at the same seeds, printed before their short streams were
# computed as arrays rather than drawn through a generator.
EPIDEMIC_MULTIWORD_SEED_ROWS = {
    ("sir", 2**32): "0.7497612,3.16127379998,62.2,3.8,8,4,4294967296",
    ("svir", 2**32): "0.6894468,1.3647250739,52,15.6,8,4,4294967296",
    ("sir", 2**128 + 1): "0.7497612,3.07834220329,58,2.8,8,4,"
                         "340282366920938463463374607431768211457",
    ("svir", 2**128 + 1): "0.6894468,1.34146077767,53.6,13.6,8,4,"
                          "340282366920938463463374607431768211457",
}


@pytest.mark.parametrize("name,seed", sorted(EPIDEMIC_MULTIWORD_SEED_ROWS))
def test_epidemic_rows_are_pinned_at_multiword_seeds(name, seed, capsys):
    code, out, err = run_cli(capsys, "scenario", name,
                             "--samples", "500", "--xi", "4", "--seed", str(seed))
    assert code == 0, err
    assert out == (ComparisonReport.CSV_HEADER + "\n"
                   + EPIDEMIC_MULTIWORD_SEED_ROWS[name, seed] + "\n")


def test_scenario_svir_builds_no_joint_chain(monkeypatch, capsys):
    def refuse(*_, **__):
        raise AssertionError("dense joint chain built")
    monkeypatch.setattr(stopcost.scenarios, "build_health_chain", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    code, out, err = run_cli(capsys, "scenario", "svir",
                             "--samples", "500", "--xi", "4", "--seed", "1")
    assert code == 0, err
    assert out == ComparisonReport.CSV_HEADER + "\n" + SCENARIO_GOLDEN_ROWS["svir"] + "\n"


@pytest.mark.parametrize("name", ["csoc", "sir"])
@pytest.mark.parametrize("option,value", [("--samples", "0"), ("--seed", "-1")])
def test_scenario_errors_name_the_option(name, option, value, capsys):
    code, out, err = run_cli(capsys, "scenario", name, option, value)
    assert code == 2 and out == ""
    assert option.lstrip("-") in err, err


def test_drce_and_scenario_do_not_import_the_lp_solver(tmp_path):
    """No subcommand, and no drce_finite call, loads scipy: in a fresh
    interpreter on a 2-vCPU host `import stopcost.cli` takes ~0.3 s, numpy
    included, `import scipy.linalg` adds ~0.3 s and `scipy.optimize` ~0.65 s."""
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    chain = write_json(tmp_path / "chain.json", {
        "kind": "markov", "n": 3, "matrix": [0.5, 0.25, 0.25, 0.25, 0.5, 0.25, 0.25, 0.25, 0.5],
        "cost": [0.0, 1.0, 3.0], "x0": [0.0, 0.0, 1.0]})
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,1.0\n2,0.0\n3,0.0\n")
    script = (
        "import sys\n"
        "from stopcost.cli import main\n"
        f"assert main(['drce', '--model', {model!r}, '--nominal', {str(nominal)!r},"
        " '--radius', '0.5']) == 0\n"
        "assert main(['scenario', 'csoc', '--samples', '20', '--xi', '0']) == 0\n"
        "for argv in (['rce', '--horizon', '5'], ['rce-inf'], ['convert'],\n"
        "             ['drce-geom', '--rho', '0.5', '--radius', '0.5']):\n"
        f"    assert main(argv + ['--model', {chain!r}]) == 0, argv\n"
        "import numpy as np\n"
        "from stopcost import AmbiguitySet, CostSequence, GroundDistance, drce_finite\n"
        "d = GroundDistance.explicit([[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
        "sol = drce_finite(CostSequence(3, np.array([0.0, 1.0, 0.0])),\n"
        "                  AmbiguitySet(np.array([1.0, 0.0, 0.0]), 0.5, d))\n"
        "assert sol.case_used == 'lp' and abs(sol.value - 0.5) <= 1e-12, sol\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        "loaded = [name for name in sys.modules if name.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(stopcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ",lp\n" in proc.stdout       # drce took the dual (ball meets boundary) path
    assert "attained,1,1.75\n" in proc.stdout


def test_cli_import_leaves_single_use_modules_to_first_use():
    # `import stopcost.cli` pays for no module that one subcommand alone needs;
    # the comparison with numpy, argparse and json alone keeps what numpy itself
    # imports out of the count (numpy 1.24 loads numpy.polynomial)
    script = (
        "import sys\n"
        "import argparse, json, numpy\n"
        "before = set(sys.modules)\n"
        "import stopcost.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(stopcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    extra = proc.stdout.split()
    first_use = {"dataclasses", "fractions", "decimal", "_decimal", "_pydecimal", "csv", "_csv"}
    loaded = [name for name in extra if name in first_use
              or name.partition(".")[0] == "scipy" or name.startswith("numpy.polynomial")]
    assert not loaded, loaded
    # the package's own modules stay eager: the span tracer rebinds them in sys.modules
    own = {f"stopcost.{name}" for name in ("config", "finite_horizon", "infinite_horizon",
                                            "lp_solver", "markov_gas", "matrix_core",
                                            "scenarios", "wasserstein", "cli")}
    assert own <= set(extra), own - set(extra)


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


@pytest.mark.parametrize("target", ["missing/result.csv", "."])
def test_unwritable_out_is_invalid_input(target, tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    code, out, err = run_cli(capsys, "rce", "--model", model, "--horizon", "5",
                             "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_unallocatable_horizon_is_a_computational_failure(tmp_path, capsys):
    """A horizon of 1e14 steps needs a 728 TiB cost array, which numpy refuses
    at once with a MemoryError; main reports it and exits 1."""
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("100000000000000,0.0\n")
    for argv in (["rce", "--horizon", "100000000000000"],
                 ["drce", "--nominal", str(nominal), "--radius", "1"]):
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "Traceback" not in err, err


def test_drce_names_the_file_of_an_unindexable_stopping_time(tmp_path, capsys):
    """A t past any array's length is invalid input: exit 2, naming the file and t."""
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("100000000000000000000,1\n")
    code, out, err = run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                             "--radius", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {nominal}: stopping time 100000000000000000000 "), err


def test_drce_names_the_file_of_a_field_past_the_csv_limit(tmp_path, capsys):
    """A probability field longer than the csv reader's 131,072-character
    limit is invalid input: exit 2, an error line naming the file, no traceback."""
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,0.5\n2," + "1" * 200_000 + "\n")
    code, out, err = run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                             "--radius", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {nominal}: field larger than field limit"), err
    assert "Traceback" not in err


def test_drce_names_the_file_of_an_unallocatable_stopping_time(tmp_path, capsys, monkeypatch):
    """A t whose vector cannot be allocated is a computational failure: exit 1,
    naming the file and t. The allocation is made to fail, so nothing asks for
    terabytes."""
    real_zeros = np.zeros

    def refusing_zeros(shape, *args, **kwargs):
        if np.prod(shape) >= 10 ** 12:
            raise MemoryError("Unable to allocate 7.28 TiB")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing_zeros)
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1000000000000,1\n")
    code, out, err = run_cli(capsys, "drce", "--model", model, "--nominal", str(nominal),
                             "--radius", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {nominal}: stopping time 1000000000000 "), err
    assert "Unable to allocate 7.28 TiB" in err


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    out_path = tmp_path / "result.csv"
    assert run_cli(capsys, "rce", "--model", model, "--horizon", "5",
                   "--out", str(out_path)) == (0, "", "")
    written = out_path.read_text()
    code, out, _ = run_cli(capsys, "rce", "--model", model, "--horizon", "5")
    assert code == 0 and out == written
    assert out_path.read_text() == written

    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,0.5\n2,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["drce", "--model", model, "--nominal", str(nominal)])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, "drce", "--model", model,
                             "--nominal", str(nominal), "--radius", "0.1")
    assert code == 0 and err == ""
    assert out.startswith("value,case_used\n")

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


def test_main_builds_no_parser_after_the_first_call(tmp_path, capsys, monkeypatch):
    model = write_json(tmp_path / "scalar.json", SCALAR_GAS)
    nominal = tmp_path / "nominal.csv"
    nominal.write_text("1,0.5\n2,0.5\n")
    calls = [
        ["rce", "--model", model, "--horizon", "5"],
        ["drce", "--model", model, "--nominal", str(nominal), "--radius", "0.1"],
        ["rce-inf", "--model", model],
        ["drce-geom", "--model", model, "--rho", "0.5", "--radius", "0.5"],
        ["scenario", "sir", "--samples", "5"],
    ]
    assert main(calls[0]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [main(argv) for argv in calls] == [0] * len(calls)
    assert built == []


def test_every_subcommand_answers_a_question(capsys):
    # every subcommand prints an answer; `bench`, which printed only timings, is not one
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert "{convert,rce,drce,rce-inf,drce-geom,scenario}" in build_parser().format_help()


def test_unbounded_model_help_names_the_ergodicity_exit(capsys):
    for command in ("rce-inf", "drce-geom"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--model MODEL gas or markov model JSON; a markov chain needs a unique " \
               "stationary law" in help_text, command
        assert 'exits 2 ("not ergodic enough")' in help_text, command
