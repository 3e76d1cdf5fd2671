"""Wasserstein-1 geometry on finite stopping-time distributions.

The dual norm of a balanced vector mu (entries summing to zero) under a ground
metric d is max { mu.x : |x_i - x_j| <= d_ij }, which is finite once x is
restricted to the sum-zero hyperplane. Its unit ball is the convex hull of the
scaled pair differences (e_i - e_j)/d_ij. For the line metric d_ij = |i - j|
the adjacent differences +-(e_i - e_{i+1}) already span the ball, and the norm
is the L1 norm of the partial sums.

The worst expected cost over the ball (within the simplex) is, on the line
metric, the best shifted vertex while the ball stays inside the simplex. In
every other case, and for every explicit metric, it is an exact
one-multiplier dual (Mohajerin Esfahani & Kuhn 2018) that needs no LP. Only
`_drce_lp`, the hull LP kept as a reference for tests, and the explicit-metric
`w_norm`/`w1_distance` call `lp_solve`.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS
from .finite_horizon import CostSequence, cost_sequence_strided
from .lp_solver import LinearProgram, lp_solve
from .matrix_core import as_matrix, as_system, as_vector


class GroundDistance(namedtuple("GroundDistance", "kind matrix")):
    """Metric on horizon points 1..T: the default line metric |i - j|, or explicit.

    An explicit matrix is checked to be a metric, copied and made read-only.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "line", matrix: np.ndarray | None = None):
        if kind == "line":
            if matrix is not None:
                raise ValueError("the line metric takes no distance matrix")
            return super().__new__(cls, kind, matrix)
        if kind != "explicit":
            raise ValueError(f"ground metric kind must be 'line' or 'explicit', got {kind!r}")
        if matrix is None:
            raise ValueError("an explicit ground metric needs a distance matrix")
        d = as_matrix(matrix).copy()
        t = d.shape[0]
        if d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.abs(np.diag(d)).max(initial=0.0) > 0:
            raise ValueError("distance matrix must have a zero diagonal")
        if np.abs(d - d.T).max(initial=0.0) > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        off = d[~np.eye(t, dtype=bool)]
        if off.size and off.min() <= 0:
            raise ValueError("off-diagonal distances must be positive")
        for k in range(t):
            if np.any(d > d[:, [k]] + d[[k], :] + 1e-12):
                raise ValueError("distance matrix violates the triangle inequality")
        d.setflags(write=False)
        return super().__new__(cls, kind, d)

    @classmethod
    def line(cls) -> "GroundDistance":
        return cls("line", None)

    @classmethod
    def explicit(cls, matrix) -> "GroundDistance":
        return cls("explicit", matrix)

    def materialize(self, t: int) -> np.ndarray:
        if self.kind == "line":
            idx = np.arange(1, t + 1, dtype=float)
            return np.abs(idx[:, None] - idx[None, :])
        if self.matrix.shape[0] != t:
            raise ValueError(f"distance matrix is {self.matrix.shape[0]}x"
                             f"{self.matrix.shape[0]}, expected {t}x{t}")
        return self.matrix


class AmbiguitySet(namedtuple("AmbiguitySet", "nominal radius distance")):
    """Wasserstein ball of radius xi around a nominal stopping distribution;
    the ground metric defaults to the line metric (`GroundDistance.line`)."""

    __slots__ = ()

    def __new__(cls, nominal: np.ndarray, radius: float, distance: GroundDistance | None = None):
        p = as_vector(nominal)
        if abs(p.sum() - 1.0) > DEFAULT_TOLS.balance:
            raise ValueError("nominal distribution must sum to 1")
        if p.min(initial=0.0) < -DEFAULT_TOLS.entry_clamp:
            raise ValueError("nominal distribution has negative entries")
        p = np.where(p < 0, 0.0, p)
        p.setflags(write=False)
        if not np.isfinite(radius) or radius < 0:
            raise ValueError(f"radius must be finite and nonnegative, got {radius!r}")
        return super().__new__(cls, p, radius,
                               GroundDistance.line() if distance is None else distance)


class DrceSolution(NamedTuple):
    value: float
    worst_q: np.ndarray
    # "vertex-enumeration" (line metric, ball inside the simplex) | "lp" (the
    # exact dual: the ball meets the simplex boundary, or an explicit metric);
    # the label predates the dual, which solves no LP
    case_used: str


def w_norm(mu, distance: GroundDistance = GroundDistance.line()) -> float:
    """Dual norm of a balanced vector: |partial sums|_1 on the line, else an LP."""
    v = as_vector(mu)
    if abs(v.sum()) > DEFAULT_TOLS.balance:
        raise ValueError("w_norm requires entries summing to zero")
    return _dual_norm(v, distance)


def _dual_norm(v: np.ndarray, distance: GroundDistance) -> float:
    """`w_norm` of a vector whose balance the caller has checked."""
    t = v.shape[0]
    if t == 1:
        return 0.0
    if distance.kind == "line":
        return float(np.abs(np.cumsum(v)[:-1]).sum())
    d = distance.materialize(t)
    i, j = np.nonzero(~np.eye(t, dtype=bool))       # u_i - u_j <= d_ij, pairs in row-major order
    lp = LinearProgram.maximize(
        v,
        ineq=(np.eye(t)[i] - np.eye(t)[j], d[i, j]),
        eq=(np.ones((1, t)), np.zeros(1)),
        nonneg=False,
    )
    sol = lp_solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"norm LP unexpectedly {sol.status}")
    return sol.value


def w1_distance(p, q, distance: GroundDistance = GroundDistance.line()) -> float:
    """Wasserstein-1 distance between two distributions on 1..T."""
    pv, qv = as_vector(p), as_vector(q)
    if pv.shape != qv.shape:
        raise ValueError("distributions must share a support size")
    for name, v in (("first", pv), ("second", qv)):
        if abs(v.sum() - 1.0) > DEFAULT_TOLS.balance or \
                v.min(initial=0.0) < -DEFAULT_TOLS.entry_clamp:
            raise ValueError(f"{name} argument is not a probability distribution")
    # each law is within balance of 1, so their difference is within 2 * balance of 0
    return _dual_norm(pv - qv, distance)


def unit_ball_vertices(t: int) -> list[np.ndarray]:
    """Extreme points of the line-metric unit ball: +-(e_i - e_{i+1}), i ascending, + first."""
    if not isinstance(t, (int, np.integer)) or t < 2:
        raise ValueError("need a horizon of at least 2")
    out = []
    for i in range(t - 1):
        v = np.zeros(t)
        v[i], v[i + 1] = 1.0, -1.0
        out.append(v)
        out.append(-v)
    return out


def _drce_lp(g: np.ndarray, p_hat: np.ndarray, xi: float,
             vertices: list[np.ndarray], _tols) -> DrceSolution:
    """The hull LP over `vertices`, the tests' reference for `drce_finite`. The
    fifth argument is unused: the acceptance tests pass DEFAULT_TOLS there."""
    t = p_hat.shape[0]
    k = len(vertices)
    nvar = t + k
    obj = np.concatenate([g, np.zeros(k)])
    # q - xi * V lambda = p_hat   and   sum lambda = 1
    eq = np.zeros((t + 1, nvar))
    eq[:t, :t] = np.eye(t)
    for idx, v in enumerate(vertices):
        eq[:t, t + idx] = -xi * v
    eq[t, t:] = 1.0
    rhs = np.concatenate([p_hat, [1.0]])
    sol = lp_solve(LinearProgram.maximize(obj, eq=(eq, rhs), nonneg=True))
    if sol.status != "optimal":
        raise RuntimeError(f"worst-case LP unexpectedly {sol.status}: internal bug")
    q = sol.point[:t]
    return DrceSolution(float(sol.value), q, "lp")


def _drce_dual(g: np.ndarray, p_hat: np.ndarray, xi: float,
               d: np.ndarray | None = None) -> DrceSolution:
    """Worst case over the ball by its exact Lagrangian dual; `d` None is the line.

    D(lam) = lam xi + sum_t p_hat_t max_s (g_s - lam d(s, t)) is convex and
    piecewise linear in lam >= 0. Sending each t's mass to its inner maximiser
    gives a law q whose piece is lam -> g.q + lam * (xi - transport cost). On
    the line the maximiser is the better of the last running-maximum record
    of g_s + lam s at or left of t and of g_s - lam s at or right of t, each
    side valued from its running maximum, with ties going left.
    Cutting planes between lam = 0 and a lam above the steepest ratio
    (g_s - g_t) / d(s, t) end once the new slope leaves the bracket, after
    finitely many pieces; mixing the two end laws at transport cost exactly xi
    gives the worst law.
    """
    t = g.shape[0]
    idx = np.arange(t)

    if d is None:
        def records(v):
            # the running maximum of v and the last index that attains it
            top = np.maximum.accumulate(v)
            return top, np.maximum.accumulate(np.where(v >= top, idx, 0))

        def inner(lam):
            # an L1 distance transform: the best point at or left of each t and
            # at or right of it, by two running maxima. The left one is worth
            # max_{s<=t}(g_s + lam s) - lam t, the right one
            # max_{s>=t}(g_s - lam s) + lam t; ties go left
            shift = lam * idx
            top_left, left = records(g + shift)
            top_right, right = records((g - shift)[::-1])
            s = np.where(top_right[::-1] + shift > top_left - shift,
                         (t - 1 - right)[::-1], left)
            return s, float(p_hat @ np.abs(s - idx))

        steepest = float(np.abs(np.diff(g)).max())
    else:
        def inner(lam):
            s = np.argmax(g[:, None] - lam * d, axis=0)      # earliest s on ties
            return s, float(p_hat @ d[s, idx])

        # adding the identity only turns the zero diagonal's 0/0 into 0, and
        # the off-diagonal maximum is >= 0 because d is symmetric
        steepest = float(((g[:, None] - g) / (d + np.eye(t))).max())

    def cut(lam):
        s, cost = inner(lam)
        return xi - cost, np.bincount(s, weights=p_hat, minlength=t)

    slope_lo, q_lo = cut(0.0)
    if slope_lo >= 0:                 # all mass moves to a maximum of g at cost <= xi
        return DrceSolution(float(g @ q_lo), q_lo, "lp")
    slope_hi, q_hi = cut(steepest + 1.0)
    while True:
        slope, q = cut(float(g @ q_hi - g @ q_lo) / (slope_lo - slope_hi))
        if not slope_lo < slope < slope_hi:
            break
        if slope < 0:
            slope_lo, q_lo = slope, q
        else:
            slope_hi, q_hi = slope, q
    theta = slope_hi / (slope_hi - slope_lo)
    q = theta * q_lo + (1.0 - theta) * q_hi
    return DrceSolution(float(g @ q), q, "lp")


def drce_finite(seq: CostSequence, amb: AmbiguitySet) -> DrceSolution:
    """Worst expected cost over the Wasserstein ball (intersected with the simplex).

    With the line metric, when every shifted vertex p_hat +- xi (e_i - e_{i+1})
    stays entrywise nonnegative the optimum sits at one of those vertices: the
    one along the steepest step of g (earliest index, then the + direction,
    wins ties). Otherwise, and for every explicit metric, the exact dual
    `_drce_dual` solves it; no path here calls `lp_solve`.
    """
    g = seq.values
    p_hat = amb.nominal
    xi = float(amb.radius)
    if seq.horizon != p_hat.shape[0]:
        raise ValueError("cost horizon and nominal support differ")
    t = seq.horizon
    if t == 1:
        return DrceSolution(float(g[0]), p_hat.copy(), "vertex-enumeration")

    if amb.distance.kind != "line":
        return _drce_dual(g, p_hat, xi, amb.distance.materialize(t))
    if p_hat.min() - xi < DEFAULT_TOLS.vertex_boundary:
        return _drce_dual(g, p_hat, xi)
    # vertex +-(e_i - e_{i+1}) adds -+xi * (g_{i+1} - g_i) to the nominal cost
    step = np.diff(g)
    i = int(np.argmax(np.abs(step)))
    sign = 1.0 if step[i] <= 0 else -1.0
    q = p_hat.copy()
    q[i] += sign * xi
    q[i + 1] -= sign * xi
    return DrceSolution(float(g @ p_hat) + xi * abs(float(step[i])), q, "vertex-enumeration")


def drce_with_initial_uncertainty(m, x_hat0, vertices, c, amb: AmbiguitySet) -> tuple[float, int]:
    """Worst case over both the stopping law and a polytopic initial state.

    ``vertices`` lists the extreme offsets u_i of the initial-state uncertainty
    set; the inner worst-case cost is evaluated at each x_hat0 + u_i and the
    largest one wins (earliest index on ties). Returns (value, winning index).
    Each vertex must have one entry per state; ValueError names the first that
    does not.
    """
    a, x_hat, cv = as_system(m, x_hat0, c)
    if len(vertices) == 0:
        raise ValueError("need at least one uncertainty vertex")
    horizon = amb.nominal.shape[0]
    best_val, best_idx = -np.inf, -1
    for idx, u in enumerate(vertices):
        offset = as_vector(u)
        if offset.shape[0] != x_hat.shape[0]:
            raise ValueError(f"uncertainty vertex {idx} has length {offset.shape[0]}, "
                             f"expected {x_hat.shape[0]} (one entry per state)")
        x0 = x_hat + offset
        seq = cost_sequence_strided(a, x0, cv, horizon)
        sol = drce_finite(seq, amb)
        if sol.value > best_val:
            best_val, best_idx = sol.value, idx
    return float(best_val), best_idx
