"""Markov chains and their centered, reduced linear-system form.

An ergodic chain on n states, viewed through the fixed (n-1) x n difference
operators A and B below, becomes a globally asymptotically stable linear system
of dimension n-1: v_t = A (x_t - pi) evolves as v_{t+1} = m_bar v_t with
spectral radius < 1, and x_t = B v_t + pi recovers the distribution. Linear
costs transfer exactly: <c, x_t> = <B^T c, v_t> + <c, pi>.

m_bar = A M B is M restricted to the zero-sum vectors, so its eigenvalues are
M's with one copy of the unit eigenvalue removed. Stability is certified by
squaring m_bar until |m_bar^k|_inf <= 1/2 (`stable_squares`), not by computing
eigenvalues: no function here runs an eigensolver, and none needs scipy.
`MarkovChain.from_transition` forms A, B and m_bar once and keeps the squares;
`to_gas` carries them on the `GasSystem`, and `rce_infinite` scans with them.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .config import DEFAULT_TOLS
from .matrix_core import StableSquares, as_matrix, as_vector, stable_squares


def _validate_transition(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(a < -DEFAULT_TOLS.entry_clamp):
        raise ValueError("transition matrix has negative entries")
    colsums = a.sum(axis=0)
    if np.abs(colsums - 1.0).max() > DEFAULT_TOLS.column_sum:
        raise ValueError(
            f"columns must sum to 1 within {DEFAULT_TOLS.column_sum:g} "
            f"(worst deviation {np.abs(colsums - 1.0).max():.3e})"
        )
    a = a.copy()
    a[(a < 0) & (a > -DEFAULT_TOLS.entry_clamp)] = 0.0   # clamp numeric noise
    return a


def stationary(m) -> np.ndarray:
    """Stationary distribution by inverse iteration with `numpy.linalg.solve`.

    The chain must have a simple unit eigenvalue and no other of modulus 1,
    which holds exactly when the reduced matrix A M B has spectral radius
    below 1; `stable_squares` checks that by squaring, with no eigensolver.
    Its cap accepts spectral gaps 1 - |lambda_2| down to a few times 1e-11, so
    also chains with |lambda_2| in (1 - 1e-9, 1 - 3e-11) that a count of
    eigenvalues with modulus >= 1 - 1e-9 would reject.
    """
    a = _validate_transition(m)
    if a.shape[0] > 1:
        _reduce(a)
    return _stationary(a)


def _reduce(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, StableSquares]:
    """A, B and the certified squares of m_bar = A a B, for a validated a."""
    a_op, b_op = build_ab(a.shape[0])
    try:
        return a_op, b_op, stable_squares(a_op @ a @ b_op)
    except ValueError:
        raise ValueError("multiple unit-magnitude eigenvalues: chain is not ergodic enough") from None


def _stationary(a: np.ndarray) -> np.ndarray:
    # `stationary` for a matrix `_reduce` has already certified
    n = a.shape[0]
    shift = 1.0 + 1e-11
    lhs = a - shift * np.eye(n)
    v = np.full(n, 1.0 / n)
    best, best_res = None, np.inf
    for _ in range(100):
        y = np.linalg.solve(lhs, v)
        s = y.sum()
        if s == 0.0:
            raise RuntimeError("inverse iteration broke down")
        y /= s
        res = np.abs(a @ y - y).max()
        if res < best_res:
            best, best_res = y, res
        elif best_res <= DEFAULT_TOLS.stationary_residual:
            break                         # converged and no longer improving
        v = y
    if best is None or best_res > DEFAULT_TOLS.stationary_residual:
        raise RuntimeError("inverse iteration did not converge")
    best = np.where(np.abs(best) < DEFAULT_TOLS.entry_clamp, 0.0, best)
    return best / best.sum()


class MarkovChain(namedtuple("MarkovChain", "n transition stationary reduction")):
    """Column-stochastic transition matrix together with its stationary law.

    ``reduction`` holds what certified that law in `from_transition`: A, B
    (`build_ab`) and the `StableSquares` of m_bar = A M B, which `to_gas`
    hands on. It is None for a chain built directly or with one state.
    """

    __slots__ = ()

    def __new__(cls, n: int, transition: np.ndarray, stationary: np.ndarray,
                reduction: tuple[np.ndarray, np.ndarray, StableSquares] | None = None):
        transition.setflags(write=False)
        stationary.setflags(write=False)
        return super().__new__(cls, n, transition, stationary, reduction)

    @classmethod
    def from_transition(cls, m) -> "MarkovChain":
        a = _validate_transition(m)
        reduction = _reduce(a) if a.shape[0] > 1 else None
        pi = _stationary(a)
        if np.abs(a @ pi - pi).max() > 1e-8:
            raise ValueError("stationary residual exceeds 1e-8")
        return cls(a.shape[0], a, pi, reduction)


class GasSystem(namedtuple("GasSystem", "m_bar a_op b_op stationary squares")):
    """Reduced (n-1)-dimensional stable system equivalent to a chain.

    ``squares`` is the `StableSquares` of m_bar when `to_gas` built the
    system; `rce_infinite` scans with it.
    """

    __slots__ = ()

    def __new__(cls, m_bar: np.ndarray, a_op: np.ndarray, b_op: np.ndarray,
                stationary: np.ndarray, squares: StableSquares | None = None):
        n = stationary.shape[0]
        if n < 2:
            raise ValueError("need at least 2 states")
        if m_bar.shape != (n - 1, n - 1) or a_op.shape != (n - 1, n) \
                or b_op.shape != (n, n - 1):
            raise ValueError("operator dimensions are inconsistent with the state count")
        for arr in (m_bar, a_op, b_op, stationary):
            arr.setflags(write=False)
        return super().__new__(cls, m_bar, a_op, b_op, stationary, squares)

    @property
    def n(self) -> int:
        return self.stationary.shape[0]


def build_ab(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n-1) x n cumulative-sum operator A and its right inverse B.

    A has ones on and below the diagonal; B is bidiagonal with +1 on the
    diagonal and -1 just below, so every column of B sums to zero and
    A B = I_{n-1}.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need at least 2 states, got {n!r}")
    a = np.tril(np.ones((n - 1, n)))
    b = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    b[idx, idx] = 1.0
    b[idx + 1, idx] = -1.0
    return a, b


def to_gas(chain: MarkovChain) -> GasSystem:
    """Reduce a chain to its stable centered form m_bar = A M B.

    A chain from `MarkovChain.from_transition` hands on the A, B and squares
    that certified it, so m_bar is neither formed nor squared again; any other
    chain is reduced and certified here (ValueError if it is not ergodic).
    """
    a, b, squares = chain.reduction or _reduce(chain.transition)
    return GasSystem(squares.matrix, a, b, chain.stationary.copy(), squares)


def project_state(gas: GasSystem, x) -> np.ndarray:
    """v = A (x - pi); x must lie on the probability simplex (sum 1)."""
    xv = as_vector(x)
    if xv.shape[0] != gas.n:
        raise ValueError("state dimension mismatch")
    if abs(xv.sum() - 1.0) > DEFAULT_TOLS.balance:
        raise ValueError("state components must sum to 1")
    return gas.a_op @ (xv - gas.stationary)


def recover_state(gas: GasSystem, v) -> np.ndarray:
    """x = B v + pi, the inverse of project_state on the simplex."""
    vv = as_vector(v)
    if vv.shape[0] != gas.n - 1:
        raise ValueError("reduced-state dimension mismatch")
    return gas.b_op @ vv + gas.stationary


def transfer_cost(gas: GasSystem, c) -> tuple[np.ndarray, float]:
    """Rewrite <c, x> as <B^T c, v> + <c, pi>: returns (reduced cost, offset)."""
    cv = as_vector(c)
    if cv.shape[0] != gas.n:
        raise ValueError("cost dimension mismatch")
    return gas.b_op.T @ cv, float(cv @ gas.stationary)
