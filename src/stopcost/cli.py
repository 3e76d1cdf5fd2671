"""Command-line front end.

Subcommands wrap the library: `convert` rewrites a Markov model file in
mean-shifted coordinates, `rce`/`drce` run the finite-horizon estimators,
`rce-inf` and `drce-geom` the unbounded-horizon ones, and `scenario` reproduces
the packaged queue/epidemic studies. `rce`/`drce` take any column-stochastic
Markov matrix and run `cost_sequence_strided`, the recurrence below horizon
max(4, n). The unbounded-horizon ones run no eigensolver: stability is
certified by squaring the stable matrix once (`stable_squares`), `rce-inf`
scans with those squares to a certified tail bound, and `drce-geom` maximizes
the exact resolvent form of the geometric objective (`geometric_drce_exact`),
evaluated from the same squares for all the rates of a round at once, and
reports the Chebyshev tail estimate of its interpolant in the third column.

Model files are JSON with fields kind ("markov" or "gas"), an integer n,
matrix (row-major), optional cost/x0 vectors, an optional finite cost_offset,
and for gas models the optional projection operators produced by `convert`.
The cost_offset is added to every cost on every subcommand, for Markov and
gas files alike; `convert` writes a Markov file's offset plus <cost, pi>. Nominal
distributions are two-column CSV (t, probability) with an optional header.
All results are written as CSV with 12-significant-digit reals, buffered so
failures produce no partial output; an `--out` path that cannot be written
is invalid input. Exit codes: 0 success, 1 computational failure (a memory
error included: a horizon too large to allocate), 2 invalid input (a nominal
stopping time that no array can index, and a nominal file the csv reader
refuses, such as one with a field past its 131,072-character limit, included).

`main` parses with one parser per process: the first call builds it and
later calls reuse it. `build_parser` still returns a fresh parser.

Start-up is most of a one-question call, so `import stopcost.cli` loads numpy,
the standard modules imported below and every module of the package, and no
more. The records are named tuples: a class of three fields takes ~0.07 ms to
build, against ~0.7 ms as a frozen dataclass. What one path alone needs loads
on first use: `csv` in `load_nominal` (drce), and only for a nominal file that
is not plain (see there); `numpy.polynomial.chebyshev` in the geometric
maximizer (drce-geom), `fractions` in `decompose`'s angle test, and scipy in
`lp_solve`. The package's own modules stay eager: the span tracer
of `perfbench/spans.py` rebinds functions in every `stopcost` module in
`sys.modules`, and would miss one loaded later.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS
from .finite_horizon import CostSequence, cost_sequence_strided, rce_finite
from .infinite_horizon import geometric_drce_exact, rce_infinite
from .markov_gas import MarkovChain, _validate_transition, project_state, to_gas, transfer_cost
from .matrix_core import StableSquares, stable_squares
from .scenarios import CsocParams, HealthParams, build_csoc_overtime, \
    compare_report, health_person, sample_horizons
from .wasserstein import AmbiguitySet, drce_finite


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


class ModelFile(NamedTuple):
    kind: str
    n: int
    matrix: np.ndarray
    cost: np.ndarray | None
    x0: np.ndarray | None
    cost_offset: float


def load_model(path: str) -> ModelFile:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: model file must be a JSON object")
    kind = data.get("kind")
    if kind not in ("markov", "gas"):
        raise ValueError(f"{path}: kind must be 'markov' or 'gas', got {kind!r}")
    if "n" not in data or data.get("matrix") is None:
        raise ValueError(f"{path}: model file needs 'n' and 'matrix' fields")
    n = data["n"]
    if type(n) is not int or n < 1:      # a JSON integer: neither a bool nor a float
        raise ValueError(f"{path}: n must be an integer >= 1, got {n!r}")
    offset = data.get("cost_offset", 0.0)
    # abs(x) <= the largest float fails for NaN, infinities and larger integers
    if type(offset) not in (int, float) or not abs(offset) <= sys.float_info.max:
        raise ValueError(f"{path}: cost_offset must be a finite number, got {offset!r}")

    def field(name: str, ndim: int) -> np.ndarray | None:
        if data.get(name) is None:
            return None
        try:
            v = np.asarray(data[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {name} must hold numbers ({exc})") from None
        if v.size != n ** ndim:
            raise ValueError(f"{path}: {name} has {v.size} entries, expected {n ** ndim}")
        return v.reshape((n,) * ndim)

    return ModelFile(kind, n, field("matrix", 2), field("cost", 1), field("x0", 1), float(offset))


def _require(model: ModelFile, name: str) -> np.ndarray:
    value = getattr(model, name)
    if value is None:
        raise ValueError(f"model file lacks a '{name}' vector")
    return value


# every byte but the five that decide whether a nominal file is plain
_UNMARKED = bytes(b for b in range(256) if b not in b',\n"\r\0')


def load_nominal(path: str) -> np.ndarray:
    """Two-column CSV (t, probability) -> dense nominal vector on 1..max t.

    Only the first non-blank row may be a header: a later row whose t is not
    an integer is an error. The columns are converted and checked in bulk:
    every t an integer >= 1 and not repeated, every row with a finite
    probability, none below -entry_clamp, and a total within `balance` of 1,
    as `AmbiguitySet` requires, but with the file named. A largest t that no
    array can index is invalid input (ValueError); one whose vector cannot be
    allocated is a MemoryError; both name the file and t.

    The text is read once. A plain file, with exactly one comma on every
    line, `\n` line ends only (the last one optional) and no `"`, `\r`, NUL
    or blank line, is split in bulk (`_plain_columns`): there the csv reader
    would give each line as the two fields around its comma. Any other file,
    and a plain one whose columns fail a check or whose first t is blank (the
    csv reader skips that row, so it is no header), is parsed by
    `csv.reader`, the only use of `csv`; a `csv.Error` there (a field past
    the reader's size limit) is invalid input, a ValueError naming the file.
    That one pass keeps each row's line number, so when its columns fail a
    check, the same rows are walked again to name the first bad row and its
    line (`_first_bad_row`)."""
    with open(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:          # raised at the offset the line reader names
            fh.seek(0)
            text = "".join(fh)
    columns = _plain_columns(text)
    checked = columns and _checked_columns(*columns)
    if not checked:
        import csv
        import io

        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [(reader.line_num, row) for row in reader if row and row[0].strip()]
        except csv.Error as exc:            # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from None
        checked = _checked_columns([row[0] for _, row in rows],
                                   [row[1] if len(row) > 1 else "" for _, row in rows])
        if not checked:
            raise _first_bad_row(path, rows)
    ts, probs = checked
    horizon = max(ts)
    try:
        nominal = np.zeros(horizon)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: stopping time {horizon} is beyond any array ({exc})") from None
    except MemoryError as exc:
        raise MemoryError(f"{path}: stopping time {horizon} needs a horizon that cannot be "
                          f"allocated ({exc})") from None
    nominal[np.array(ts) - 1] = probs
    total = nominal.sum()
    if abs(total - 1.0) > DEFAULT_TOLS.balance:
        raise ValueError(f"{path}: probabilities sum to {_fmt(total)}, not 1")
    return nominal


def _plain_columns(text: str):
    """The t and probability fields of a plain nominal file, or None for any
    other text or a plain one whose first t is blank."""
    body = text[:-1] if text.endswith("\n") else text
    marks = body.encode().translate(None, _UNMARKED)
    if marks != b",\n" * (len(marks) // 2) + b",":
        return None
    fields = body.replace("\n", ",").split(",")
    return (fields[0::2], fields[1::2]) if fields[0].strip() else None


def _checked_columns(t_fields, p_fields):
    """(ts, probs) of the non-blank rows' fields, a first row whose t is not an
    integer dropped as the header, or None when a row fails a check."""
    try:
        int(t_fields[0])
    except ValueError:                      # header line
        t_fields, p_fields = t_fields[1:], p_fields[1:]
    except IndexError:                      # no rows
        return None
    try:
        ts = list(map(int, t_fields))
        probs = list(map(float, p_fields))
        clean = min(ts) >= 1 and len(set(ts)) == len(ts) and all(map(math.isfinite, probs)) \
            and min(probs) >= -DEFAULT_TOLS.entry_clamp
    except ValueError:                      # a field that does not parse, or no rows
        return None
    return (ts, probs) if clean else None


def _first_bad_row(path: str, numbered_rows) -> ValueError:
    """The error of `load_nominal` for rows that fail one of its row checks,
    given each row with its line number in file order.

    The first row that fails a check is reported, by the first check it
    fails: t an integer, a probability column, t >= 1, t not repeated, the
    probability a finite number. Only when every row passes these is the
    first probability below -entry_clamp reported."""
    seen, negative, first = set(), None, True
    for line, row in numbered_rows:
        if not row or not row[0].strip():
            continue
        try:
            t = int(row[0])
        except ValueError:
            if first:
                first = False
                continue                    # header line
            return ValueError(f"{path}: line {line} ({','.join(row)!r}) "
                              f"has a non-integer stopping time")
        first = False
        if len(row) < 2:
            return ValueError(f"{path}: row for t={t} lacks a probability column")
        if t < 1:
            return ValueError(f"{path}: stopping times must be >= 1, got {t}")
        if t in seen:
            return ValueError(f"{path}: duplicate row for t={t}")
        seen.add(t)
        try:
            prob = float(row[1])
        except ValueError:
            prob = math.nan
        if not math.isfinite(prob):
            return ValueError(f"{path}: line {line} ({','.join(row)!r}) "
                              f"has a probability that is not a finite number")
        if negative is None and prob < -DEFAULT_TOLS.entry_clamp:
            negative = ValueError(f"{path}: line {line} ({','.join(row)!r}) "
                                  f"has a negative probability")
    if not seen:
        return ValueError(f"{path}: no (t, probability) rows found")
    return negative


def _cost_sequence(model: ModelFile, horizon: int) -> CostSequence:
    matrix = _validate_transition(model.matrix) if model.kind == "markov" else model.matrix
    seq = cost_sequence_strided(matrix, _require(model, "x0"), _require(model, "cost"), horizon)
    if model.cost_offset != 0.0:
        seq = CostSequence(horizon, seq.values + model.cost_offset)
    return seq


def cmd_convert(args) -> str:
    model = load_model(args.model)
    if model.kind != "markov":
        raise ValueError("convert expects a markov model file")
    chain = MarkovChain.from_transition(model.matrix)
    gas = to_gas(chain)
    out = {
        "kind": "gas",
        "n": model.n - 1,
        "matrix": gas.m_bar.ravel().tolist(),
        "a_op": gas.a_op.ravel().tolist(),
        "b_op": gas.b_op.ravel().tolist(),
        "stationary": gas.stationary.tolist(),
    }
    if model.cost is not None:
        shifted_cost, offset = transfer_cost(gas, model.cost)
        out["cost"] = shifted_cost.tolist()
        out["cost_offset"] = offset + model.cost_offset
    elif model.cost_offset != 0.0:
        out["cost_offset"] = model.cost_offset
    if model.x0 is not None:
        out["x0"] = project_state(gas, model.x0).tolist()
    return json.dumps(out, indent=2) + "\n"


def cmd_rce(args) -> str:
    model = load_model(args.model)
    if args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    seq = _cost_sequence(model, args.horizon)
    t_star, value = rce_finite(seq)
    return f"t_star,value\n{t_star},{_fmt(value)}\n"


def cmd_drce(args) -> str:
    model = load_model(args.model)
    nominal = load_nominal(args.nominal)
    seq = _cost_sequence(model, nominal.shape[0])
    solution = drce_finite(seq, AmbiguitySet(nominal, args.radius))
    return f"value,case_used\n{_fmt(solution.value)},{solution.case_used}\n"


def _to_shifted(model: ModelFile) -> tuple[StableSquares, np.ndarray, np.ndarray, float]:
    """(squares of the certified stable matrix, cost, x0, offset) for
    unbounded-horizon work; the offset includes the file's cost_offset."""
    if model.kind == "gas":
        return stable_squares(model.matrix), _require(model, "cost"), _require(model, "x0"), \
            model.cost_offset
    gas = to_gas(MarkovChain.from_transition(model.matrix))
    shifted_cost, offset = transfer_cost(gas, _require(model, "cost"))
    v0 = project_state(gas, _require(model, "x0"))
    return gas.squares, shifted_cost, v0, offset + model.cost_offset


def cmd_rce_inf(args) -> str:
    squares, cost, x0, offset = _to_shifted(load_model(args.model))
    result = rce_infinite(squares, cost, x0)
    t_star = "" if result.t_star is None else str(result.t_star)
    return f"kind,t_star,value\n{result.kind},{t_star},{_fmt(result.value + offset)}\n"


def cmd_drce_geom(args) -> str:
    squares, cost, x0, offset = _to_shifted(load_model(args.model))
    rho_star, value, tail = geometric_drce_exact(squares, cost, x0, args.rho, args.radius, args.eps)
    return ("rho_star,value,truncation_bound\n"
            f"{_fmt(rho_star)},{_fmt(value + offset)},{_fmt(tail)}\n")


def cmd_scenario(args) -> str:
    if args.name == "csoc":
        params = CsocParams()
        matrix, x0, cost = build_csoc_overtime(params)
        samples = sample_horizons(params.overtime_min, params.overtime_max,
                                  params.overtime_mean, args.samples, args.seed)
        report = compare_report(matrix, x0, cost, samples, args.xi, args.seed,
                                copies=params.analysts,
                                support_max=params.overtime_max)
    else:
        params = HealthParams(model=args.name)
        person, init, cost = health_person(params)
        samples = sample_horizons(params.horizon_min, params.horizon_max,
                                  params.horizon_mean, args.samples, args.seed)
        report = compare_report(person, init, cost, samples, args.xi, args.seed,
                                population=params.population,
                                support_max=params.horizon_max)
    return report.CSV_HEADER + "\n" + report.csv_row() + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopcost",
        description="Robust cost estimation for linear systems with uncertain stopping times.")
    sub = parser.add_subparsers(dest="command", required=True)
    model_help = ("gas or markov model JSON; a markov matrix may be any column-stochastic one "
                  "(costs by cost_sequence_strided: the recurrence below horizon max(4, n))")
    unbounded_model_help = ("gas or markov model JSON; a markov chain needs a unique stationary "
                            "law and no other eigenvalue of modulus 1, or the command exits 2 "
                            "(\"not ergodic enough\")")

    convert = sub.add_parser("convert", help="rewrite a Markov model in mean-shifted coordinates")
    convert.add_argument("--model", required=True, help="input markov model JSON")
    convert.add_argument("--out", help="output path (default stdout)")
    convert.set_defaults(run=cmd_convert)

    rce = sub.add_parser("rce", help="best single stopping time over a finite horizon")
    rce.add_argument("--model", required=True, help=model_help)
    rce.add_argument("--horizon", type=int, required=True)
    rce.add_argument("--out")
    rce.set_defaults(run=cmd_rce)

    drce = sub.add_parser("drce", help="worst horizon distribution near a nominal one")
    drce.add_argument("--model", required=True, help=model_help)
    drce.add_argument("--nominal", required=True, help="two-column CSV (t, probability)")
    drce.add_argument("--radius", type=float, required=True)
    drce.add_argument("--out")
    drce.set_defaults(run=cmd_drce)

    rce_inf = sub.add_parser("rce-inf", help="supremum cost over an unbounded horizon")
    rce_inf.add_argument("--model", required=True, help=unbounded_model_help)
    rce_inf.add_argument("--out")
    rce_inf.set_defaults(run=cmd_rce_inf)

    geom = sub.add_parser(
        "drce-geom", help="worst geometric stopping law near a nominal rate",
        description="Worst Geom(rho) stopping law with |1/rho - 1/rho_hat| <= radius. Prints "
                    "rho_star, the value and, in the truncation_bound column, the Chebyshev "
                    "tail estimate of the interpolated objective (its interpolation error).")
    geom.add_argument("--model", required=True, help=unbounded_model_help)
    geom.add_argument("--rho", type=float, required=True, help="nominal success rate")
    geom.add_argument("--radius", type=float, required=True)
    geom.add_argument("--eps", type=float, default=1e-9,
                      help="target of the Chebyshev tail estimate, relative to max(1, max|F|); "
                           "at least 64 ulps (1.42e-14)")
    geom.add_argument("--out")
    geom.set_defaults(run=cmd_drce_geom)

    scenario = sub.add_parser("scenario", help="packaged queue/epidemic comparison studies")
    scenario.add_argument("name", choices=("csoc", "sir", "svir"))
    scenario.add_argument("--samples", type=int, default=100)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--xi", type=float, default=0.0)
    scenario.add_argument("--out")
    scenario.set_defaults(run=cmd_scenario)
    return parser


# The parser depends on no input, so one per process serves every call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        text = args.run(args)
        if out:
            with open(out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:     # a computation that cannot finish
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
