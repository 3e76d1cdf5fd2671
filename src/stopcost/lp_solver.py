"""Linear programs solved by HiGHS (`scipy.optimize.linprog`, Huangfu & Hall 2018).

Two callers remain: the explicit-metric dual norm `w_norm` (and so
`w1_distance`), and `wasserstein._drce_lp`, the hull LP kept as a reference
for tests. `drce_finite` solves every metric by an exact one-dimensional dual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .matrix_core import as_matrix, as_vector


@dataclass(frozen=True)
class LinearProgram:
    """max objective.x subject to ineq_lhs x <= ineq_rhs, eq_lhs x = eq_rhs.

    ``nonneg`` marks which variables carry an x >= 0 bound; the rest are free.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray
    eq_lhs: np.ndarray
    eq_rhs: np.ndarray
    nonneg: np.ndarray

    @classmethod
    def maximize(cls, objective, *, ineq=None, eq=None, nonneg=True) -> "LinearProgram":
        c = as_vector(objective)
        n = c.shape[0]
        if ineq is None:
            a, b = np.zeros((0, n)), np.zeros(0)
        else:
            a, b = as_matrix(ineq[0]), as_vector(ineq[1])
        if eq is None:
            e, f = np.zeros((0, n)), np.zeros(0)
        else:
            e, f = as_matrix(eq[0]), as_vector(eq[1])
        if a.shape != (b.shape[0], n) or e.shape != (f.shape[0], n):
            raise ValueError("constraint shapes do not match the objective length")
        if isinstance(nonneg, bool):
            mask = np.full(n, nonneg)
        else:
            mask = np.asarray(nonneg, dtype=bool)
            if mask.shape != (n,):
                raise ValueError("nonneg mask length mismatch")
        return cls(c, a, b, e, f, mask)


@dataclass(frozen=True)
class LpSolution:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    point: np.ndarray | None = None
    value: float = float("nan")


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; statuses: optimal / infeasible / unbounded."""
    # Imported here, not at module level: scipy.optimize adds ~0.65 s to a fresh
    # interpreter, twice `import stopcost.cli`, and no CLI subcommand solves an LP.
    from scipy.optimize import linprog

    # HiGHS's default feasibility tolerance (1e-7) left up to 1.7e-8 of error on
    # small hull LPs; at 1e-10 the error is at rounding level
    res = linprog(-lp.objective, A_ub=lp.ineq_lhs, b_ub=lp.ineq_rhs,
                  A_eq=lp.eq_lhs, b_eq=lp.eq_rhs,
                  bounds=[(0.0, None) if nn else (None, None) for nn in lp.nonneg],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status in (2, 3):
        return LpSolution("infeasible" if res.status == 2 else "unbounded")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")

    x = np.asarray(res.x, dtype=float)
    ftol = DEFAULT_TOLS.lp_feasibility
    if (lp.ineq_lhs @ x - lp.ineq_rhs).max(initial=-np.inf) > ftol:
        raise RuntimeError("numeric instability: optimal point violates inequalities")
    if np.abs(lp.eq_lhs @ x - lp.eq_rhs).max(initial=0.0) > ftol:
        raise RuntimeError("numeric instability: optimal point violates equalities")
    if np.any(x[lp.nonneg] < -ftol):
        raise RuntimeError("numeric instability: optimal point violates sign bounds")
    return LpSolution("optimal", x, float(lp.objective @ x))
