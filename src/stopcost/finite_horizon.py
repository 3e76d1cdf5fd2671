"""Cost trajectories <c, M^t x0> over a finite horizon.

Two evaluators produce the same sequence up to rounding: a naive O(n^2 T)
recurrence, and a square-root stride scheme that precomputes M^B (B = isqrt T)
by O(n^3 log B) repeated squaring, the B forward states M^{iB} x0 and the B
backward costs (M^T)^j c, then reads each <c, M^t x0> for t <= B^2 off a single
inner product, finishing any tail t > B^2 sequentially. They multiply in a
different order, so their values usually differ in the last bits, except where
`cost_sequence_strided` is the cheaper recurrence itself: T < max(4, n).
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .matrix_core import as_matrix, as_vector, mat_pow


class CostSequence(namedtuple("CostSequence", "horizon values")):
    """Values g(t) = <c, M^t x0> for t = 1..horizon."""

    __slots__ = ()

    def __new__(cls, horizon: int, values: np.ndarray):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if values.shape != (horizon,):
            raise ValueError("values length must equal the horizon")
        if not np.all(np.isfinite(values)):
            raise ValueError("cost sequence has non-finite entries")
        values.setflags(write=False)
        return super().__new__(cls, horizon, values)


def _check(m, x0, c, horizon):
    a = as_matrix(m)
    x = as_vector(x0)
    cv = as_vector(c)
    if a.shape[0] != a.shape[1]:
        raise ValueError("system matrix must be square")
    if x.shape[0] != a.shape[0] or cv.shape[0] != a.shape[0]:
        raise ValueError("dimension mismatch between matrix, state, and cost")
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    return a, x, cv


def cost_sequence_naive(m, x0, c, horizon: int) -> CostSequence:
    """Sequential recurrence v_{t+1} = M v_t; exact reference evaluator."""
    a, v, cv = _check(m, x0, c, horizon)
    return CostSequence(int(horizon), _recur(a, v, cv, np.empty(horizon)))


def _recur(a, v, cv, out):
    for t in range(out.size):       # out[t] = <cv, a^(t+1) v>
        v = a @ v
        out[t] = cv @ v
    return out


def cost_sequence_strided(m, x0, c, horizon: int) -> CostSequence:
    """Square-root stride evaluator; for horizon < max(4, n), the cheaper recurrence itself."""
    a, x, cv = _check(m, x0, c, horizon)
    horizon = int(horizon)
    n = a.shape[0]
    out = np.empty(horizon)
    if horizon < max(4, n):
        return CostSequence(horizon, _recur(a, x, cv, out))
    big_stride = math.isqrt(horizon)

    m_big = mat_pow(a, big_stride)
    fwd = np.empty((big_stride + 1, n))
    fwd[0] = x
    for i in range(1, big_stride + 1):
        fwd[i] = m_big @ fwd[i - 1]
    bwd = np.empty((big_stride, n))
    bwd[0] = cv
    at = a.T
    for j in range(1, big_stride):
        bwd[j] = at @ bwd[j - 1]

    table = bwd @ fwd.T                  # table[j, i] = <(M^T)^j c, M^{iB} x0>
    square = big_stride * big_stride
    # t = iB + j is entry t of table.T read in C order
    out[:square] = table.T.ravel()[1:square + 1]
    _recur(a, fwd[big_stride], cv, out[square:])
    return CostSequence(horizon, out)


def rce_finite(seq: CostSequence) -> tuple[int, float]:
    """Worst-case stopping time over t = 1..horizon: argmax of g, earliest tie wins."""
    idx = int(np.argmax(seq.values))
    return idx + 1, float(seq.values[idx])
