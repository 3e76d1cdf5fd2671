"""Shared generators for randomized tests and independent reference oracles."""
import csv
import functools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.optimize import linprog

from stopcost.config import DEFAULT_TOLS
from stopcost.markov_gas import _validate_transition


def random_chain(rng, n):
    """Column-stochastic transition matrix with strictly positive entries."""
    raw = rng.random((n, n)) + 0.05
    return raw / raw.sum(axis=0)


def random_stable(rng, n, rho_max=0.9):
    """Dense matrix rescaled to a random spectral radius below rho_max."""
    m = rng.standard_normal((n, n))
    radius = np.abs(np.linalg.eigvals(m)).max()
    if radius < 1e-9:
        m = m + np.eye(n)
        radius = np.abs(np.linalg.eigvals(m)).max()
    target = rho_max * (0.3 + 0.7 * rng.random())
    return m * (target / radius)


def lazy_cycle(rng, n):
    """(M, c, x0): a slow-mixing lazy walk on a directed n-cycle with 1% uniform
    restarts, a uniform random cost and a start in state 0."""
    hold = rng.uniform(0.4, 0.6)
    walk = hold * np.eye(n) + (1.0 - hold) * np.roll(np.eye(n), 1, axis=0)
    x0 = np.zeros(n)
    x0[0] = 1.0
    return 0.99 * walk + 0.01 / n, rng.random(n), x0


def two_closed_classes_reduced():
    """A m B for a 243-state chain with closed classes of 121 and 122 states: its
    powers tend to a projector of norm exactly 1, which rounding leaves under 1."""
    rng = np.random.default_rng(1)
    m = np.zeros((243, 243))
    for lo, hi in ((0, 121), (121, 243)):
        raw = rng.random((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = raw / raw.sum(axis=0)
    return np.tril(np.ones((242, 243))) @ m @ (np.eye(243, 242) - np.eye(243, 242, -1))


def rce_infinite_own_squares(m, c, x):
    """`rce_infinite` as it ran before it scanned with shared squares: its own
    squaring loop, to the least k = 2^j with |M^k|_inf < 1, builds the row table
    between the squarings. (kind, t_star, value) must agree bit for bit."""
    a, cv, xv = (np.asarray(v, dtype=float) for v in (m, c, x))
    power, k = a, 1
    rows, jump = (cv @ a)[None, :], a
    while (norm := float(np.abs(power).sum(axis=1).max())) >= 1.0:
        power, k = power @ power, 2 * k
        if k <= 4096:
            rows, jump = np.vstack([rows, rows @ jump]), power
    tail, chunk = float(np.abs(rows).sum(axis=1).max()), rows
    for _ in range(k // rows.shape[0] - 1):
        chunk = chunk @ jump
        tail = max(tail, float(np.abs(chunk).sum(axis=1).max()))
    while norm > 0.5 and rows.shape[0] < 4096:
        rows, jump, norm = np.vstack([rows, rows @ jump]), jump @ jump, norm * norm
    floor = DEFAULT_TOLS.positive_floor * max(1.0, tail * float(np.abs(xv).max()))
    best_t, best_val, t, v = None, -math.inf, 0, xv
    while tail * float(np.abs(v).max()) > max(best_val, floor):
        vals = rows @ v
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_t, best_val = t + i + 1, float(vals[i])
        v, t = jump @ v, t + rows.shape[0]
    if best_val > floor:
        return "attained", best_t, best_val
    return "supremum-at-infinity", None, 0.0


def random_distribution(rng, t):
    p = rng.random(t) + 1e-3
    return p / p.sum()


def csoc_cost_oracle(params):
    """Expected overtime cost of the documented queue study, t = 1..overtime_max.

    Rebuilt from the CsocParams constants alone by direct recurrence on the
    state distribution, with no matrix powers: per step an arrival
    (probability a) and a service (probability s) occur independently, so
    during the shift the backlog rises with a(1-s), falls with s(1-a) when
    nonempty, and clamps at both ends; shift_steps such steps from an empty
    queue give the shift-end backlog. In overtime arrivals stop, each nonempty
    queue serves one alert with probability s, and the cost is 0 when empty,
    0.5 at one alert, rising linearly to 1 at queue_cap. The result is scaled
    by the number of analysts, one queue each.
    """
    a = params.arrival_rate * params.step_seconds / 3600.0
    s = params.service_rate * params.step_seconds / 3600.0
    up, down = a * (1.0 - s), s * (1.0 - a)
    cap = params.queue_cap
    x = np.zeros(cap + 1)
    x[0] = 1.0
    for _ in range(params.shift_steps):
        nxt = x.copy()
        nxt[1:] += up * x[:-1]
        nxt[:-1] -= up * x[:-1]
        nxt[:-1] += down * x[1:]
        nxt[1:] -= down * x[1:]
        x = nxt
    cost = np.zeros(cap + 1)
    cost[1:] = (0.5 + 0.5 * np.arange(cap) / (cap - 1)) if cap > 1 else 1.0
    g = np.empty(params.overtime_max)
    for t in range(params.overtime_max):
        nxt = (1.0 - s) * x
        nxt[0] = x[0]
        nxt[:-1] += s * x[1:]
        x = nxt
        g[t] = cost @ x
    return g * params.analysts


def w1_ball_max_oracle(g, p_hat, xi):
    """max g.q over distributions q on 1..T with W1(q, p_hat) <= xi, by HiGHS.

    Beckmann edge-flow form on the line: q = p_hat + B(f+ - f-), where column
    i of B moves mass from point i to i+1, with sum(f+ + f-) <= xi and
    q, f+, f- >= 0.
    """
    g = np.asarray(g, dtype=float)
    t = g.size
    b = np.zeros((t, t - 1))
    b[np.arange(t - 1), np.arange(t - 1)] = -1.0
    b[np.arange(1, t), np.arange(t - 1)] = 1.0
    a_eq = np.hstack([np.eye(t), -b, b])
    a_ub = np.r_[np.zeros(t), np.ones(2 * (t - 1))][None, :]
    res = linprog(-np.r_[g, np.zeros(2 * (t - 1))], A_ub=a_ub, b_ub=[xi],
                  A_eq=a_eq, b_eq=p_hat, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"W1-ball LP failed: {res.message}")
    return float(-res.fun)


def _transport_plan_rows(t):
    """Row sums of a T x T transport plan flattened row-major (plan[t, s] at t*T + s)."""
    return sparse.kron(sparse.eye(t), np.ones((1, t)))


def explicit_ball_max_oracle(g, p_hat, xi, d):
    """max g.q over distributions q within W1 distance xi of p_hat under the metric d.

    Transport-plan form, by HiGHS: plan[t, s] >= 0 moves mass from t to s, its
    rows sum to p_hat, sum(plan * d) <= xi, and q is its column sums, so the
    objective is sum plan[t, s] g_s.
    """
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    t = g.size
    res = linprog(-np.tile(g, t), A_ub=d.reshape(1, -1), b_ub=[xi],
                  A_eq=_transport_plan_rows(t), b_eq=p_hat, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport-plan ball LP failed: {res.message}")
    return float(-res.fun)


def explicit_w1_oracle(p, q, d):
    """W1(p, q) under the metric d: the cheapest transport plan, by HiGHS."""
    d = np.asarray(d, dtype=float)
    t = d.shape[0]
    cols = sparse.kron(np.ones((1, t)), sparse.eye(t))
    res = linprog(d.ravel(), A_eq=sparse.vstack([_transport_plan_rows(t), cols]),
                  b_eq=np.r_[p, q], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def rollout_costs_oracle(m, x0, c, samples, seed, copies=1):
    """Realized cost of each sampled stopping time, one scalar draw at a time.

    Sample i draws from PCG64 seeded with SeedSequence(entropy=seed,
    spawn_key=(i,)). Each of its copies, in turn, draws its start state from
    x0 and then steps t_i times; a draw u moves to the first state whose
    cumulative probability (entries clipped at 0) exceeds u, or to the last
    state if none does. The copies' end-state costs are summed in order.
    """
    m = np.asarray(m, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    cum_cols = np.cumsum(np.clip(m, 0.0, None), axis=0)
    cum_x0 = np.cumsum(np.clip(np.asarray(x0, dtype=float), 0.0, None))
    costs = []
    for i, t in enumerate(samples):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        total = 0
        for _ in range(copies):
            state = min(int(np.searchsorted(cum_x0, rng.random(), side="right")), n - 1)
            for _ in range(int(t)):
                state = min(int(np.searchsorted(cum_cols[:, state], rng.random(),
                                                side="right")), n - 1)
            total += float(c[state])
        costs.append(total)
    return np.array(costs)


def oscillatory_values(s, ts):
    """g(t) of an OscillatorySum at the integers ts, term by term as the package sums it."""
    out = np.zeros(ts.shape[0])
    tf = ts.astype(float)
    for term in s.complex_terms:
        ang = np.mod(tf * term.theta_deg + term.eta_deg, 360.0)
        out += term.amplitude * term.magnitude ** tf * np.cos(np.deg2rad(ang))
    for term in s.real_terms:
        out += term.weight * np.sign(term.rate) ** ts * np.abs(term.rate) ** tf
    return out


def geometric_grid_oracle(m, c, x0, rhos):
    """sum_t rho (1-rho)^(t-1) <c, M^t x0> for each rho in `rhos`, by the plain
    recurrence on (M, c, x0) until (1 - min rho)^t drops below 1e-16."""
    rhos = np.asarray(rhos, dtype=float)
    low = float(rhos.min())
    horizon = 1 if low == 1.0 else math.ceil(math.log(1e-16) / math.log1p(-low)) + 1
    g, state = np.empty(horizon), np.asarray(x0, dtype=float)
    for t in range(horizon):
        state = m @ state
        g[t] = c @ state
    acc, q = np.zeros(rhos.shape[0]), 1.0 - rhos
    for value in g[::-1]:                        # Horner in q = 1 - rho
        acc = acc * q + value
    return rhos * acc

def exact_cost_values(a, q, c, x, horizon):
    """g(t) = <c, M^t x> for t = 1..horizon as exact Fractions, where M = a / q.

    a is a square matrix of Python ints and q a positive int; c and x hold ints
    or Fractions. The recurrence w_t = a w_{t-1} runs in integer (or Fraction)
    arithmetic with no rounding, and g(t) = <c, w_t> / q^t.
    """
    n = len(a)
    w = [Fraction(v) for v in x]
    values = []
    for t in range(1, horizon + 1):
        w = [sum(a[i][j] * w[j] for j in range(n)) for i in range(n)]
        values.append(sum(Fraction(ci) * wi for ci, wi in zip(c, w)) / q ** t)
    return values


def stationary_eigvals_oracle(m, scipy_lu=False):
    """`stationary` as it was before its stability certificate: the chain is
    accepted when exactly one eigenvalue has modulus >= 1 - 1e-9, then pi is
    found by the same shifted inverse iteration, each step solved by
    `numpy.linalg.solve` as the library does. With scipy_lu=True each step
    reuses one scipy LU factorization instead: a reference that shares no
    solver code with the library."""
    a = _validate_transition(m)
    n = a.shape[0]
    lam = np.linalg.eigvals(a)
    if int(np.sum(np.abs(lam) >= 1.0 - 1e-9)) != 1:
        raise ValueError("multiple unit-magnitude eigenvalues: chain is not ergodic enough")
    shift = 1.0 + 1e-11
    lhs = a - shift * np.eye(n)
    if scipy_lu:
        lu_piv = scipy.linalg.lu_factor(lhs)
        solve = functools.partial(scipy.linalg.lu_solve, lu_piv)
    else:
        solve = functools.partial(np.linalg.solve, lhs)
    v = np.full(n, 1.0 / n)
    best, best_res = None, np.inf
    for _ in range(100):
        y = solve(v)
        s = y.sum()
        if s == 0.0:
            raise RuntimeError("inverse iteration broke down")
        y /= s
        res = np.abs(a @ y - y).max()
        if res < best_res:
            best, best_res = y, res
        elif best_res <= DEFAULT_TOLS.stationary_residual:
            break
        v = y
    if best is None or best_res > DEFAULT_TOLS.stationary_residual:
        raise RuntimeError("inverse iteration did not converge")
    best = np.where(np.abs(best) < DEFAULT_TOLS.entry_clamp, 0.0, best)
    return best / best.sum()


def load_nominal_rows(path):
    """`cli.load_nominal` as a row-by-row loop: each row's t and probability are
    converted and checked as the row is read, and the first bad row raises. It
    applies the row checks only: a negative probability or a total away from 1
    is returned as read."""
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = True
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                t = int(row[0])
            except ValueError:
                if first:
                    first = False
                    continue        # header line
                raise ValueError(f"{path}: line {reader.line_num} ({','.join(row)!r}) "
                                 f"has a non-integer stopping time") from None
            first = False
            if len(row) < 2:
                raise ValueError(f"{path}: row for t={t} lacks a probability column")
            if t < 1:
                raise ValueError(f"{path}: stopping times must be >= 1, got {t}")
            if t in entries:
                raise ValueError(f"{path}: duplicate row for t={t}")
            try:
                prob = float(row[1])
            except ValueError:
                prob = math.nan
            if not math.isfinite(prob):
                raise ValueError(f"{path}: line {reader.line_num} ({','.join(row)!r}) "
                                 f"has a probability that is not a finite number")
            entries[t] = prob
    if not entries:
        raise ValueError(f"{path}: no (t, probability) rows found")
    nominal = np.zeros(max(entries))
    for t, prob in entries.items():
        nominal[t - 1] = prob
    return nominal
