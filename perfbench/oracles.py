"""Independent reference answers for every kind of benchmark op.

Each oracle recomputes an op's answer from the op's inputs by a method that
shares no code with the `stopcost` estimators: plain numpy recurrences on the
original chain, `scipy.optimize.linprog` (HiGHS) for the Wasserstein worst
case, a closed form for W1 on the line, brute-force scans with an L1
contraction stopping rule, and exact marginal laws for Monte Carlo
exceedance rates. The runner calls them outside the timed loop, once per
distinct input.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Value checks allow this much absolute error per unit of cost scale. Outputs
# carry 12 significant digits; a 1e-3 corruption is far outside.
VALUE_TOL = 1e-9
# Half-width of the Monte Carlo exceedance band, in binomial standard errors.
EXCEED_Z = 6.0
# Above this horizon the T^2-variable transport plan takes tens of seconds
# per solve; the equivalent edge-flow form on the line is used instead.
PLAN_MAX_T = 120


def cost_trajectory(m: np.ndarray, x0: np.ndarray, c: np.ndarray, horizon: int) -> np.ndarray:
    """g(t) = <c, M^t x0> for t = 1..horizon by the plain recurrence v = M v."""
    out = np.empty(horizon)
    v = np.array(x0, dtype=float)
    for t in range(horizon):
        v = m @ v
        out[t] = c @ v
    return out


def state_trajectory(m: np.ndarray, x0: np.ndarray, horizon: int) -> np.ndarray:
    """Rows are M^t x0 for t = 1..horizon."""
    out = np.empty((horizon, x0.shape[0]))
    v = np.array(x0, dtype=float)
    for t in range(horizon):
        v = m @ v
        out[t] = v
    return out


def w1_line(p: np.ndarray, q: np.ndarray) -> float:
    """W1 distance on 1..T with the line metric: sum |cumsum(p - q)|."""
    return float(np.abs(np.cumsum(p - q)).sum())


def _worst_case_plan(g: np.ndarray, p_hat: np.ndarray, xi: float) -> float:
    # transport plan pi[s, t] >= 0 moves nominal mass at t to s:
    # sum_s pi[s, t] = p_hat[t], sum |s - t| pi[s, t] <= xi, maximize sum g[s] pi[s, t]
    t = p_hat.shape[0]
    idx = np.arange(t)
    dist = np.abs(idx[:, None] - idx[None, :]).ravel()
    marg = sp.csr_matrix((np.ones(t * t), (np.tile(idx, t), np.arange(t * t))), shape=(t, t * t))
    res = linprog(-np.repeat(g, t), A_ub=sp.csr_matrix(dist[None, :]), b_ub=[xi],
                  A_eq=marg, b_eq=p_hat, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport-plan LP failed: {res.message}")
    return -float(res.fun)


def _worst_case_flow(g: np.ndarray, p_hat: np.ndarray, xi: float) -> float:
    # Beckmann form of W1 on a path: q = p_hat + D (f+ - f-) with D the edge
    # incidence (e_i - e_{i+1}), q >= 0, sum (f+ + f-) <= xi, maximize g q
    t = p_hat.shape[0]
    e = np.arange(t - 1)
    inc = sp.csr_matrix((np.r_[np.ones(t - 1), -np.ones(t - 1)], (np.r_[e, e + 1], np.r_[e, e])),
                        shape=(t, t - 1))
    a_eq = sp.hstack([sp.identity(t), -inc, inc]).tocsr()
    a_ub = sp.csr_matrix(np.r_[np.zeros(t), np.ones(2 * (t - 1))][None, :])
    res = linprog(-np.r_[g, np.zeros(2 * (t - 1))], A_ub=a_ub, b_ub=[xi],
                  A_eq=a_eq, b_eq=p_hat, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"edge-flow LP failed: {res.message}")
    return -float(res.fun)


def worst_case_cost(g: np.ndarray, p_hat: np.ndarray, xi: float) -> float:
    """max g.q over distributions q with W1(q, p_hat) <= xi on the line metric."""
    if g.shape[0] == 1:
        return float(g[0])
    if g.shape[0] <= PLAN_MAX_T:
        return _worst_case_plan(g, p_hat, xi)
    return _worst_case_flow(g, p_hat, xi)


def stationary_law(p: np.ndarray) -> np.ndarray:
    """Solve (P - I) pi = 0, sum pi = 1 by least squares."""
    n = p.shape[0]
    lhs = np.vstack([p - np.eye(n), np.ones((1, n))])
    rhs = np.r_[np.zeros(n), 1.0]
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return pi


def sup_cost(p: np.ndarray, c: np.ndarray, x0: np.ndarray, max_steps: int = 10 ** 6) -> float:
    """sup over t >= 1 of <c, P^t x0> for a column-stochastic P.

    Scans t = 1, 2, ... and stops once the remaining trajectory cannot beat
    the running maximum: for every later s, <c, x_s> <= <c, pi> + spread(c)/2
    * |x_t - pi|_1, and |x_t - pi|_1 never grows under a stochastic matrix.
    The limit <c, pi> counts, so a supremum at infinity is max(scan, c.pi).
    """
    pi = stationary_law(p)
    limit = float(c @ pi)
    half_spread = 0.5 * float(c.max() - c.min())
    best = -math.inf
    v = np.array(x0, dtype=float)
    for _ in range(max_steps):
        v = p @ v
        best = max(best, float(c @ v))
        slack = half_spread * float(np.abs(v - pi).sum())
        if limit + slack <= best or slack <= 1e-15 * max(1.0, abs(limit)):
            return max(best, limit)
    raise RuntimeError("scan did not settle; chain mixes too slowly for the oracle")


def geometric_interval(rho_hat: float, xi: float) -> tuple[float, float]:
    """Success rates rho with |1/rho - 1/rho_hat| <= xi, clipped into (0, 1]."""
    lo = rho_hat / (1.0 + rho_hat * xi)
    hi = 1.0 if rho_hat * xi >= 1.0 else min(1.0, rho_hat / (1.0 - rho_hat * xi))
    return lo, hi


def geometric_objective(p: np.ndarray, c: np.ndarray, x0: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """E <c, x_tau> for tau ~ Geom(rho) on {1, 2, ...}, one value per rho.

    The series is summed until (1 - min rho)^t * max|c| drops below 1e-15.
    """
    lo = float(rhos.min())
    horizon = int(math.ceil(math.log(1e-15 / max(1.0, float(np.abs(c).max()))) / math.log1p(-lo))) + 1
    g = cost_trajectory(p, x0, c, horizon)
    ts = np.arange(horizon, dtype=float)
    out = np.empty(rhos.shape[0])
    for i in range(0, rhos.shape[0], 128):
        r = rhos[i:i + 128, None]
        out[i:i + 128] = (r * (1.0 - r) ** ts) @ g
    return out


def geometric_worst(p: np.ndarray, c: np.ndarray, x0: np.ndarray, rho_hat: float, xi: float,
                    points: int = 2001) -> tuple[float, float, float, float]:
    """Dense grid over the feasible rates: (lo, hi, grid max, grid resolution).

    The true maximum lies within [grid max, grid max + resolution], where
    resolution is the largest change between neighbouring grid points.
    """
    lo, hi = geometric_interval(rho_hat, xi)
    grid = np.linspace(lo, hi, points)
    vals = geometric_objective(p, c, x0, grid)
    return lo, hi, float(vals.max()), float(np.abs(np.diff(vals)).max(initial=0.0))


def triangular_samples(lo: int, hi: int, mode: int, k: int, seed: int) -> np.ndarray:
    """k draws from the discretized triangular law on lo..hi with the given mode."""
    ts = np.arange(lo, hi + 1)
    up = (ts - lo + 1.0) / (mode - lo + 1.0)
    down = (hi - ts + 1.0) / (hi - mode + 1.0)
    w = np.where(ts <= mode, up, down)
    return np.random.default_rng(seed).choice(ts, size=k, p=w / w.sum())


def cost_law(x: np.ndarray, c: np.ndarray, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of the summed cost of `copies` independent chains in law x."""
    vals, inv = np.unique(c, return_inverse=True)
    probs = np.bincount(inv, weights=np.clip(x, 0.0, None), minlength=vals.shape[0])
    tot_v, tot_p = vals, probs
    for _ in range(copies - 1):
        tot_v = (tot_v[:, None] + vals[None, :]).ravel()
        tot_p = (tot_p[:, None] * probs[None, :]).ravel()
    return tot_v, tot_p


def exceedance_band(states: np.ndarray, c: np.ndarray, copies: int, samples: np.ndarray,
                    threshold: float) -> tuple[float, float]:
    """Range of percentages a correct Monte Carlo estimate of P(cost > threshold) falls in.

    states[t-1] is the marginal law at time t. Each sample contributes a
    Bernoulli with the exact exceedance probability at its stopping time; the
    band is the mean probability +- EXCEED_Z binomial standard errors + 1/k,
    widened by a 1e-9 margin on the threshold to absorb round-off ties.
    """
    k = samples.shape[0]
    hi_p, lo_p = {}, {}
    for t in np.unique(samples):
        v, w = cost_law(states[t - 1], c, copies)
        lo_p[t] = float(w[v > threshold + 1e-9].sum())
        hi_p[t] = float(w[v > threshold - 1e-9].sum())
    p_lo = np.array([lo_p[t] for t in samples])
    p_hi = np.array([hi_p[t] for t in samples])
    sd = math.sqrt(max(0.0, float(np.sum(p_hi * (1.0 - p_lo))))) / k
    slack = EXCEED_Z * sd + 1.0 / k
    return 100.0 * (float(p_lo.mean()) - slack), 100.0 * (float(p_hi.mean()) + slack)


def close(actual: float, expected: float, scale: float = 1.0) -> bool:
    return abs(actual - expected) <= VALUE_TOL * max(1.0, scale)
