"""Shared generators for randomized tests and independent reference oracles."""
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


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


def geometric_drce_oracle(s, rho_hat, xi, eps, fixed_steps=None):
    """Worst geometric stopping law by the full projected-gradient search.

    Every one of the 8 restarts takes all 500 steps, with no early exit, and
    the point each restart ends on is compared once more after its loop.
    Returns (rho_star, value, truncation error bound). If `fixed_steps` is a
    list, each restart appends to it the first step whose update left rho
    unchanged, or None if there was none.
    """
    lo = rho_hat / (1.0 + rho_hat * xi)
    hi = 1.0 if rho_hat * xi >= 1.0 else min(1.0, rho_hat / (1.0 - rho_hat * xi))
    lo = min(max(lo, 1e-12), 1.0 - 1e-12)
    total = s.amplitude_total
    zeta = s.top_magnitude
    if total <= 0.0 or zeta <= 0.0:
        n0 = 1
    else:
        n0 = max(1, math.ceil(math.log(min(eps / total, 1.0)) / math.log(zeta)) + 1)
    ts = np.arange(1, n0 + 1, dtype=np.int64)
    g_vals = oscillatory_values(s, ts)
    tf = ts.astype(float)

    def objective(rho):
        return float(np.sum(g_vals * (1.0 - rho) ** (tf - 1.0) * rho))

    def gradient(rho):
        base = (1.0 - rho) ** np.maximum(tf - 2.0, 0.0)
        dterm = np.where(ts == 1, 1.0, base * ((1.0 - rho) - (tf - 1.0) * rho))
        return float(np.sum(g_vals * dterm))

    def better(rho, val, best_rho, best_val):
        return val > best_val + 1e-15 or (abs(val - best_val) <= 1e-15 and rho < best_rho)

    step = 0.1 * (hi - lo)
    best_rho, best_val = lo, objective(lo)
    for start in np.linspace(lo, hi, 8):
        rho = float(start)
        fixed = None
        for k in range(500):
            val = objective(rho)
            if better(rho, val, best_rho, best_val):
                best_rho, best_val = rho, val
            if step == 0.0:
                break
            nxt = float(np.clip(rho + step * gradient(rho), lo, hi))
            if fixed is None and nxt == rho:
                fixed = k
            rho = nxt
        if fixed_steps is not None:
            fixed_steps.append(fixed)
        val = objective(rho)
        if better(rho, val, best_rho, best_val):
            best_rho, best_val = rho, val
    return best_rho, best_val, float(eps * (1.0 - best_rho) ** n0)
