"""Cost trajectories <c, M^t x0> over a finite horizon.

Two evaluators produce the same sequence up to rounding: a naive O(n^2 T)
recurrence, and a square-root stride scheme that precomputes M^B (B = isqrt T)
by O(n^3 log B) repeated squaring, the B forward states M^{iB} x0 and the B
backward costs (M^T)^j c, then reads each <c, M^t x0> for t <= B^2 off a single
inner product, finishing any tail t > B^2 sequentially. They multiply in a
different order, so their values usually differ in the last bits, except where
`cost_sequence_strided` is the cheaper recurrence itself: T < max(4, n).

Each matrix-vector step of either evaluator is written in place, into a row
of the stride table or one of two spare vectors, by `np.dot(..., out=...)`.
On contiguous operands that is the same dgemv as `@`, so the values are bit
for bit those of `@` steps that allocate a vector each; a step on any other
layout is `np.matmul(..., out=...)`, which is `@` itself.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .matrix_core import as_system, mat_pow


class CostSequence(namedtuple("CostSequence", "horizon values")):
    """Values g(t) = <c, M^t x0> for t = 1..horizon."""

    __slots__ = ()

    def __new__(cls, horizon: int, values: np.ndarray):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if values.shape != (horizon,):
            raise ValueError("values length must equal the horizon")
        # the sum is finite whenever every value is, and takes no T-byte mask;
        # finite values whose sum overflows still pass the full check
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(values.sum())
        if not finite and not np.all(np.isfinite(values)):
            raise ValueError("cost sequence has non-finite entries")
        values.setflags(write=False)
        return super().__new__(cls, horizon, values)


def _check(m, x0, c, horizon):
    a, x, cv = as_system(m, x0, c)
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    return a, x, cv


def cost_sequence_naive(m, x0, c, horizon: int) -> CostSequence:
    """Sequential recurrence v_{t+1} = M v_t; exact reference evaluator."""
    a, v, cv = _check(m, x0, c, horizon)
    return CostSequence(int(horizon), _recur(a, v, cv, np.empty(horizon)))


def _step(a, v):
    """The in-place form of `a @ v`: `np.dot`, the same dgemv, when both operands
    are contiguous; `np.matmul` itself otherwise (a strided view or a reversed
    vector takes another path than BLAS on a contiguous copy)."""
    contiguous = (a.flags.c_contiguous or a.flags.f_contiguous) and v.flags.c_contiguous
    return np.dot if contiguous else np.matmul


def _recur(a, v, cv, out):
    """out[t] = <cv, a^(t+1) v>, each step written in place into one of two
    spare vectors: bit for bit the values of `v = a @ v` steps."""
    step = _step(a, v)
    spare = np.empty((2, v.size))
    for t in range(out.size):
        v = step(a, v, out=spare[t & 1])
        out[t] = cv @ v
    return out


def cost_sequence_strided(m, x0, c, horizon: int) -> CostSequence:
    """Square-root stride evaluator; for horizon < max(4, n), the cheaper recurrence itself.

    Two O(T) arrays: the B x (B + 1) table of inner products, and one buffer
    that takes the table transposed, so that entry t is g(t) for t <= B^2,
    and then the tail t > B^2 from the recurrence, written in place. The
    values are a view of that buffer. Each forward and backward state is
    stepped in place into its row of `fwd` or `bwd`, bit-identical to `@`.
    """
    a, x, cv = _check(m, x0, c, horizon)
    horizon = int(horizon)
    n = a.shape[0]
    if horizon < max(4, n):
        return CostSequence(horizon, _recur(a, x, cv, np.empty(horizon)))
    big_stride = math.isqrt(horizon)
    # allocated first, so that a horizon too large to hold fails before any work
    buf = np.empty(max(horizon + 1, big_stride * (big_stride + 1)))

    m_big = mat_pow(a, big_stride)
    fwd = np.empty((big_stride + 1, n))
    fwd[0] = x
    for i in range(1, big_stride + 1):
        np.dot(m_big, fwd[i - 1], out=fwd[i])      # m_big is a fresh C-ordered product
    bwd = np.empty((big_stride, n))
    bwd[0] = cv
    at = a.T
    step = _step(at, bwd[0])
    for j in range(1, big_stride):
        step(at, bwd[j - 1], out=bwd[j])

    table = bwd @ fwd.T                  # table[j, i] = <(M^T)^j c, M^{iB} x0>
    square = big_stride * big_stride
    # t = iB + j is entry t of table.T read in C order
    buf[:table.size].reshape(table.T.shape)[...] = table.T
    _recur(a, fwd[big_stride], cv, buf[square + 1:horizon + 1])
    return CostSequence(horizon, buf[1:horizon + 1])


def rce_finite(seq: CostSequence) -> tuple[int, float]:
    """Worst-case stopping time over t = 1..horizon: argmax of g, earliest tie wins."""
    idx = int(np.argmax(seq.values))
    return idx + 1, float(seq.values[idx])
