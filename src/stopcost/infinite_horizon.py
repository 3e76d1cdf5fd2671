"""Worst-case stopping analysis over an unbounded horizon.

For a stable system the cost trajectory g(t) = <c, M^t x0> expands, through the
real Jordan form, into a finite sum of damped oscillations and damped
geometric terms:

    g(t) = sum_i d_i r_i^t cos(t theta_i + eta_i) + sum_j w_j lambda_j^t

with every magnitude below 1. The supremum of g over t in {1, 2, ...} is then
either attained at some finite t, or approached at infinity with value 0. The
functions here locate a witness t0 with g(t0) > 0 when one exists, bound the
horizon n0 beyond which |g| stays under g(t0), and reduce the search to a
finite scan. `rce_infinite` skips the expansion: once |M^k|_inf < 1, |g(t')| for
t' > t is at most tail * |M^t x0|_inf, tail = max_{r<=k} |(M^T)^r c|_1, so it scans
g until that falls to max(best, positive_floor * max(1, tail * |x0|_inf)). It takes
M^k and the squares below it from the certificate of M (`stable_squares`). The
public types are immutable named tuples; `OscillatorySum` checks the order and
magnitudes of its terms when built. Angles are kept in degrees throughout them.

The worst geometric stopping law maximizes F(rho) = sum_t rho (1-rho)^{t-1} g(t)
over an interval of success rates, with one global maximizer (a Chebyshev
interpolant and its interior maxima) and either of two exact forms of F, with no
truncation. `geometric_drce` is the paper's route: it sums the expansion above
in closed form. `geometric_drce_exact`, which the CLI runs, needs no expansion:
F(rho) = rho c^T M (I - (1-rho) M)^{-1} x0, evaluated for all the rates of a
round at once from the certificate's squares, one block product per square, and
checked column by column by its backward error against M; a rate that fails the
check takes a direct solve.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS
from .matrix_core import SQUARES_KEPT, StableSquares, as_matrix, as_system, real_jordan, \
    stable_squares


class ComplexTerm(NamedTuple):
    amplitude: float          # d >= 0
    magnitude: float          # r in (0, 1)
    theta_deg: float          # rotation per step, degrees in (0, 180)
    eta_deg: float            # phase, degrees in [0, 360)
    theta_frac: tuple[int, int] | None = None   # exact a/b when theta is rational


class RealTerm(NamedTuple):
    weight: float             # w, any sign
    rate: float               # lambda, |lambda| in (0, 1)


class OscillatorySum(namedtuple("OscillatorySum", "complex_terms real_terms")):
    __slots__ = ()

    def __new__(cls, complex_terms: tuple[ComplexTerm, ...], real_terms: tuple[RealTerm, ...]):
        cmags = [t.magnitude for t in complex_terms]
        rmags = [abs(t.rate) for t in real_terms]
        if any(m >= 1.0 for m in cmags + rmags):
            raise ValueError("all magnitudes must be strictly below 1")
        if any(b <= a for a, b in zip(cmags, cmags[1:])):
            raise ValueError("complex terms must be ordered by ascending magnitude")
        if any(b <= a for a, b in zip(rmags, rmags[1:])):
            raise ValueError("real terms must be ordered by ascending magnitude")
        return super().__new__(cls, complex_terms, real_terms)

    @property
    def amplitude_total(self) -> float:
        return sum(t.amplitude for t in self.complex_terms) + \
               sum(abs(t.weight) for t in self.real_terms)

    @property
    def top_magnitude(self) -> float:
        mags = [t.magnitude for t in self.complex_terms] + \
               [abs(t.rate) for t in self.real_terms]
        return max(mags) if mags else 0.0

    @property
    def is_empty(self) -> bool:
        return not self.complex_terms and not self.real_terms


class CutoffResult(NamedTuple):
    t0: int | None
    n0: int | None
    case_tag: str


class RceInfResult(NamedTuple):
    kind: str                 # "attained" | "supremum-at-infinity"
    t_star: int | None
    value: float


def _rationalize(theta: float) -> tuple[int, int] | None:
    # imported here, not at module level: fractions loads decimal, ~3 ms of every
    # CLI start, and only decompose's angles need it
    from fractions import Fraction

    frac = Fraction(theta).limit_denominator(DEFAULT_TOLS.rational_cap)
    if frac <= 0:
        return None
    if abs(float(frac) - theta) <= DEFAULT_TOLS.rational_err:
        return int(frac.numerator), int(frac.denominator)
    return None


def _certified(m, c, x) -> tuple[StableSquares, np.ndarray, np.ndarray, np.ndarray]:
    """(squares, M, c, x0) of a system (`as_system`) whose m is a matrix, certified
    here by `stable_squares`, or the `StableSquares` of one."""
    if isinstance(m, StableSquares):
        a, xv, cv = as_system(m.matrix, x, c)
        return m, a, cv, xv
    a, xv, cv = as_system(m, x, c)
    return stable_squares(a), a, cv, xv


def decompose(m, c, x) -> OscillatorySum:
    """Expand <c, M^t x> into damped oscillations via the real Jordan form.

    m is a matrix, or the `StableSquares` of one; rho(M) < 1 is certified by
    squaring M (`stable_squares`) before the one eigensolve inside `real_jordan`.
    """
    a, cv, xv = _certified(m, c, x)[1:]  # the squares are not kept
    form = real_jordan(a)
    sigma = form.p_matrix.T @ cv
    tau = form.p_inverse @ xv

    raw_complex = []
    for i, (r, theta) in enumerate(form.complex_blocks):
        s1, s2 = sigma[2 * i], sigma[2 * i + 1]
        t1, t2 = tau[2 * i], tau[2 * i + 1]
        u = t1 * s1 + t2 * s2
        v = t2 * s1 - t1 * s2
        d = float(np.hypot(u, v))
        eta = float(np.degrees(np.arctan2(v, u)) % 360.0)
        raw_complex.append((d, r, theta, eta))
    off = 2 * len(form.complex_blocks)
    raw_real = [(float(sigma[off + j] * tau[off + j]), lam)
                for j, lam in enumerate(form.real_eigs)]

    peak = max([d for d, *_ in raw_complex] + [abs(w) for w, _ in raw_real] + [0.0])
    floor = 1e-14 * max(1.0, peak)
    complex_terms = tuple(
        ComplexTerm(d, r, theta, eta, _rationalize(theta))
        for d, r, theta, eta in raw_complex
        if d > floor and r > DEFAULT_TOLS.entry_clamp
    )
    real_terms = tuple(
        RealTerm(w, lam) for w, lam in raw_real
        if abs(w) > floor and abs(lam) > DEFAULT_TOLS.entry_clamp
    )
    return OscillatorySum(complex_terms, real_terms)


def _eval_array(s: OscillatorySum, ts: np.ndarray) -> np.ndarray:
    out = np.zeros(ts.shape[0])
    tf = ts.astype(float)
    for term in s.complex_terms:
        ang = np.mod(tf * term.theta_deg + term.eta_deg, 360.0)
        out += term.amplitude * term.magnitude ** tf * np.cos(np.deg2rad(ang))
    for term in s.real_terms:
        out += term.weight * np.sign(term.rate) ** ts * np.abs(term.rate) ** tf
    return out


def eval_g(s: OscillatorySum, t: int) -> float:
    """Evaluate the sum at integer t >= 1."""
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    return float(_eval_array(s, np.array([int(t)], dtype=np.int64))[0])


def _decay_cap(s: OscillatorySum) -> int:
    # beyond this t the envelope is under the decay floor: scans stop here
    total = s.amplitude_total
    zeta = s.top_magnitude
    if total <= 0.0 or zeta <= 0.0:
        return 1
    return max(1, math.ceil(math.log(DEFAULT_TOLS.decay_floor / total) / math.log(zeta)))


def _scan_first_positive(s: OscillatorySum, hi: int, floor: float,
                         start: int = 1, step: int = 1) -> int | None:
    """First t in start, start + step, ... up to hi with g(t) > floor, or None.

    The window doubles from 64 to 65,536 points, so an early hit evaluates
    little; g is evaluated pointwise, so the hit does not depend on the windows.
    """
    t, width = start, 64
    while t <= hi:
        ts = np.arange(t, min(hi, t + step * (width - 1)) + 1, step, dtype=np.int64)
        vals = _eval_array(s, ts)
        hits = np.flatnonzero(vals > floor)
        if hits.size:
            return int(ts[hits[0]])
        t = int(ts[-1]) + step
        width = min(2 * width, 65536)
    return None


def bezout_steps(a: int, b: int) -> tuple[int, int, int]:
    """For a rotation of a/b degrees per step: returns (n, l, g) with
    a*n + 360*b*l = g = gcd(360, a) and n != 0."""
    if not isinstance(a, (int, np.integer)) or not isinstance(b, (int, np.integer)):
        raise ValueError("a and b must be integers")
    if a <= 0 or b <= 0 or a >= 360 * b:
        raise ValueError("need 0 < a/b < 360")
    if math.gcd(a, b) != 1:
        raise ValueError("a/b must be in lowest terms")
    g = math.gcd(360, a)
    aa, mm = a // g, (360 * b) // g
    old_r, r = aa, mm
    old_s, sc = 1, 0
    old_t, tc = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, sc = sc, old_s - q * sc
        old_t, tc = tc, old_t - q * tc
    n, l = old_s, old_t          # n*aa + l*mm = 1
    if n == 0:
        raise RuntimeError("degenerate angle: no nonzero step coefficient exists")
    return n, l, g


def find_t0(s: OscillatorySum) -> CutoffResult:
    """Locate a t0 with g(t0) > 0, or certify none is reachable.

    Dominant real term: closed-form thresholds split on the signs of the
    dominant weight and rate; in the negative-weight/positive-rate case g is
    eventually negative, so a bounded window is scanned for a positive maximum
    and n0 is the window edge. Dominant oscillation: a number-theoretic bound
    on when the dominant cosine clears the residual terms, then a scan for the
    first positive value. All scans are capped at the horizon where the whole
    sum decays below the floor.
    """
    if s.is_empty:
        raise ValueError("empty oscillatory sum")
    pos_floor = DEFAULT_TOLS.positive_floor * max(1.0, s.amplitude_total)
    cap = _decay_cap(s)

    r_q = s.complex_terms[-1].magnitude if s.complex_terms else None
    lam_p = s.real_terms[-1].rate if s.real_terms else None
    if r_q is not None and lam_p is not None and abs(r_q - abs(lam_p)) < 1e-12:
        raise ValueError("dominant magnitude tie between oscillation and real term")

    real_dominant = lam_p is not None and (r_q is None or abs(lam_p) > r_q)
    if real_dominant:
        return _find_t0_real(s, pos_floor, cap)
    return _find_t0_complex(s, pos_floor, cap)


def _find_t0_real(s: OscillatorySum, pos_floor: float, cap: int) -> CutoffResult:
    w_p, lam_p = s.real_terms[-1].weight, s.real_terms[-1].rate
    other_mags = [t.magnitude for t in s.complex_terms] + \
                 [abs(t.rate) for t in s.real_terms[:-1]]
    beta = sum(t.amplitude for t in s.complex_terms) + \
           sum(abs(t.weight) for t in s.real_terms[:-1])
    tag = f"real-{'pos' if w_p > 0 else 'neg'}-{'pos' if lam_p > 0 else 'neg'}"

    if beta == 0.0:                       # single surviving term
        # g(t) = w_p lam_p^t is positive on every t, the even t or the odd t,
        # and shrinks along them, so only the first such t can be a hit
        if w_p > 0:
            t0 = 1 if lam_p > 0 else 2
        elif lam_p < 0:
            t0 = 1
        else:
            return CutoffResult(None, None, tag)
        t0 = _scan_first_positive(s, min(cap, t0), pos_floor, t0)
        return CutoffResult(t0, None, tag)

    eps = max(other_mags) / abs(lam_p)    # < 1 by magnitude ordering
    log_eps = math.log(eps)

    def log_ratio(x: float) -> float:
        return math.log(x) / log_eps

    if w_p > 0 and lam_p > 0:
        witness, step = 1 + max(math.ceil(log_ratio(w_p / beta)), 1), 1
    elif w_p > 0 and lam_p < 0:
        witness, step = 2 + 2 * max(math.ceil(0.5 * log_ratio(w_p / beta)), 1), 2
    elif w_p < 0 and lam_p < 0:
        witness, step = 2 * max(math.ceil(0.5 * log_ratio(-w_p / beta)), 1) + 1, 2
    else:                                 # w_p < 0, lam_p > 0: eventually negative
        edge = math.floor(log_ratio(-w_p / beta)) if -w_p / beta < 1.0 else 0
        if edge < 1:
            return CutoffResult(None, None, tag)
        ts = np.arange(1, min(edge, cap) + 1, dtype=np.int64)
        vals = _eval_array(s, ts)
        best = int(np.argmax(vals))
        if vals[best] > pos_floor:
            return CutoffResult(int(ts[best]), edge, tag)
        return CutoffResult(None, None, tag)
    # From the witness on, 0 < g(t) < 2 |w_p| |lam_p|^t along the stride and
    # g(t) < 0 off it, so a hit there comes before that envelope (plus one
    # point for rounding) drops to the floor.
    last = math.floor(math.log(pos_floor / (2.0 * abs(w_p))) / math.log(abs(lam_p))) + 1
    t0 = _scan_first_positive(s, min(cap, last), pos_floor, witness, step)
    if t0 is None:
        # The guaranteed-domination witness decayed below the floor; a
        # transient from the subdominant terms can still poke positive early.
        t0 = _scan_first_positive(s, min(cap, witness - 1), pos_floor)
    return CutoffResult(t0, None, tag)


def _find_t0_complex(s: OscillatorySum, pos_floor: float, cap: int) -> CutoffResult:
    term = s.complex_terms[-1]
    d, r, eta = term.amplitude, term.magnitude, term.eta_deg
    gamma = sum(t.amplitude for t in s.complex_terms[:-1]) + \
            sum(abs(t.weight) for t in s.real_terms)

    if term.theta_frac is None:           # irrational angle: bounded heuristic scan
        t0 = _scan_first_positive(s, cap, pos_floor)
        return CutoffResult(t0, None, "complex")

    a, b = term.theta_frac
    g = math.gcd(360, a)

    if gamma == 0.0:
        # pure rotation: the sign pattern of cos(t theta + eta) has period 360b/g
        period = (360 * b) // g
        t0 = _scan_first_positive(s, min(period, cap), pos_floor)
        return CutoffResult(t0, None, "complex")

    n, _, _ = bezout_steps(a, b)
    c_int = 135 + math.floor(eta) - (90 if d > 0 else -90)
    # integer p in (0, 90b) with g | (p - c*b); smallest such p, else fall back
    rem = (c_int * b) % g
    p = rem if rem > 0 else g
    if p >= 90 * b:
        t0 = _scan_first_positive(s, cap, pos_floor)
        return CutoffResult(t0, None, "complex")

    big_c = max([t.magnitude for t in s.complex_terms[:-1]] +
                [abs(t.rate) for t in s.real_terms]) / r
    s0 = 1 + max(0, math.ceil(math.copysign(1, n) * (c_int * b - p) / 360))
    log_term = math.log(abs(d) / (2.0 * gamma)) / math.log(big_c)
    dd = (g * log_term - n * (p - c_int * b)) / (360.0 * b * abs(n)) - s0
    f = max(1, math.ceil(dd))
    bound = (n * (p - b * c_int)) // g + abs(n) * (s0 + f) * ((360 * b) // g)
    bound = max(int(bound), 1)
    t0 = _scan_first_positive(s, min(bound, cap), pos_floor)
    return CutoffResult(t0, None, "complex")


def find_n0(s: OscillatorySum, g_t0: float) -> int:
    """Horizon beyond which |g(t)| stays below g(t0): one past the log ceiling."""
    if g_t0 <= 0.0:
        raise ValueError("g(t0) must be positive")
    total = s.amplitude_total
    zeta = s.top_magnitude
    if total <= 0.0 or zeta <= 0.0:
        return 1
    ratio = min(g_t0 / total, 1.0)
    n0 = math.ceil(math.log(ratio) / math.log(zeta)) + 1
    return max(n0, 1)


_BLOCK = SQUARES_KEPT         # most cost rows tabulated, and so most points per scan block


def rce_infinite(m, c, x) -> RceInfResult:
    """Supremum of <c, M^t x> over all positive integer stopping times.

    m is a matrix, or the `StableSquares` of one; a matrix is first certified
    by `stable_squares` (|M^k|_inf <= 1/2), so a spectral radius of 1 raises
    ValueError even where rounding leaves the powers' norm just under 1. The
    scan reads the squares up to the least k = 2^j with |M^k|_inf < 1 (k above
    2^24 is rejected). As |M^(qk)|_inf <= 1, |g(t')| <= tail * |M^t x|_inf for
    t' > t, with tail = max_{r<=k} |(M^T)^r c|_1. g is scanned in blocks,
    tabulated rows c^T M^r times M^t x, until that bound is at most max(best,
    positive_floor * max(1, tail * |x|_inf)); with no g(t) above that floor the
    result is "supremum-at-infinity". The block grows, taking further squares,
    until its estimated norm is at most 1/2 or it holds _BLOCK rows.
    """
    squares, a, cv, xv = _certified(m, c, x)
    j = next(i for i, norm in enumerate(squares.norms) if norm < 1.0)
    if j > 24:                               # k = 2^j: give up
        raise ValueError(f"spectral radius must be strictly below 1 (|M^k|_inf >= 1, k <= {2 ** 24})")
    k, norm, powers = 2 ** j, squares.norms[j], squares.powers
    rows, jump = (cv @ a)[None, :], a        # rows[r - 1] = c^T M^r; jump = M^len(rows)
    for i in range(1, min(k, _BLOCK).bit_length()):
        rows, jump = np.vstack([rows, rows @ jump]), powers[i]
    tail, chunk = float(np.abs(rows).sum(axis=1).max()), rows
    for _ in range(k // rows.shape[0] - 1):  # rows past the table enter only the tail
        chunk = chunk @ jump
        tail = max(tail, float(np.abs(chunk).sum(axis=1).max()))
    while norm > 0.5 and rows.shape[0] < _BLOCK:    # until a block at least halves |v|_inf
        i = rows.shape[0].bit_length()       # the next jump is M^(2^i), 2^i <= _BLOCK
        rows, norm = np.vstack([rows, rows @ jump]), norm * norm
        jump = powers[i] if i < len(squares.norms) else jump @ jump
    floor = DEFAULT_TOLS.positive_floor * max(1.0, tail * float(np.abs(xv).max()))
    best_t, best_val, t, v = None, -math.inf, 0, xv
    while tail * float(np.abs(v).max()) > max(best_val, floor):
        vals = rows @ v                      # g(t + 1), ..., g(t + len(rows))
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_t, best_val = t + i + 1, float(vals[i])
        v, t = jump @ v, t + rows.shape[0]
    if best_val > floor:
        return RceInfResult("attained", best_t, best_val)
    return RceInfResult("supremum-at-infinity", None, 0.0)


def rce_infinite_2d(d: float, kappa: float, r: float, theta: float,
                    alpha: float, gamma: float) -> RceInfResult:
    """Closed-form search for the planar pure-oscillation case (radians here).

    g(t) = d r^t cos(t theta + alpha) with theta in (0, pi); gamma is the phase
    of ln r + i theta (= kappa e^{i gamma}). The first positive point and a
    stationary-point envelope give an exact finite search window.
    """
    if not (0.0 < theta < math.pi):
        raise ValueError("theta must lie in (0, pi) radians")
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")
    if d <= 0.0:
        raise ValueError("amplitude d must be positive")
    if abs(kappa * math.cos(gamma) - math.log(r)) > 1e-6 * max(1.0, kappa) or \
       abs(kappa * math.sin(gamma) - theta) > 1e-6 * max(1.0, kappa):
        raise ValueError("(kappa, gamma) do not match (r, theta)")

    def g(t: float) -> float:
        return d * r ** t * math.cos(t * theta + alpha)

    two_pi = 2.0 * math.pi
    t0 = math.ceil((-math.pi / 2.0 - alpha + two_pi * math.ceil(alpha / two_pi + 0.25)) / theta)
    t0 = max(int(t0), 1)
    # rational-multiple-of-pi inputs can land exactly on a cosine zero; step to
    # the next positive value (each positive stretch is longer than 1)
    guard = int(math.ceil(two_pi / theta)) + 2
    for _ in range(guard):
        if g(t0) > 0.0:
            break
        t0 += 1
    else:
        raise RuntimeError("failed to locate a positive value; inputs inconsistent")

    sin_g = abs(math.sin(gamma))
    m_star = 1 + math.ceil((theta * (math.log(g(t0) / (sin_g * d)) / math.log(r))
                            + alpha + gamma - math.pi / 2.0) / math.pi)
    x_edge = (math.pi / 2.0 - alpha - gamma + m_star * math.pi) / theta
    hi = max(int(math.floor(x_edge)), t0)
    ts = np.arange(1, hi + 1)
    vals = d * r ** ts.astype(float) * np.cos(ts * theta + alpha)
    best = int(np.argmax(vals))
    return RceInfResult("attained", int(ts[best]), float(vals[best]))


def _feasible_rates(rho_hat: float, xi: float, eps: float) -> tuple[float, float]:
    """Validated [lo, hi]: the success rates rho with |1/rho - 1/rho_hat| <= xi."""
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not (0.0 < rho_hat < 1.0):
        raise ValueError("rho_hat must lie in (0, 1)")
    if not math.isfinite(xi) or xi < 0.0:
        raise ValueError(f"radius xi must be finite and nonnegative, got {xi!r}")

    lo = rho_hat / (1.0 + rho_hat * xi)
    hi = 1.0 if rho_hat * xi >= 1.0 else min(1.0, rho_hat / (1.0 - rho_hat * xi))
    lo = min(max(lo, 1e-12), 1.0 - 1e-12)
    if hi < lo:     # lo rose to the floor past hi: the ball is not empty
        raise ValueError(f"every rate within radius {xi!r} of rho_hat = {rho_hat!r} lies "
                         "below 1e-12, the smallest rate supported")
    return lo, hi


_CHEB_START = 16             # first interpolation degree: 17 Chebyshev-Lobatto nodes
_CHEB_MAX_DEGREE = 1024      # the degree doubles up to this: at most 1,025 rates evaluated
_ROUNDING = 64 * np.finfo(float).eps    # coefficients under this times max(1, max|F|) are noise


def _lobatto_coefficients(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through vals[j] at cos(j pi / N).

    A type-I discrete cosine transform, taken as the real FFT of the even extension.
    """
    n = vals.shape[0] - 1
    coef = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
    coef[0] /= 2.0
    coef[n] /= 2.0
    return coef


def _interior_maxima(coef: np.ndarray, noise: float) -> list[float]:
    """Ascending points of (-1, 1) where the derivative of the Chebyshev series
    `coef` falls through zero: the interior local maxima of the series.

    No eigensolver runs: [-1, 1] is bisected, and on each piece the derivative
    is re-expanded in Chebyshev form b. A piece is dropped when |b_0| exceeds
    sum_{k>=1} |b_k| (the derivative keeps its sign there); when |b_1| exceeds
    sum_{k>=2} k^2 |b_k|, the derivative is monotone there and a sign change
    from + to - is bracketed down to adjacent floats. A piece over which the
    series can move by at most `noise` is not split further; its midpoint is
    kept as a candidate.
    """
    # imported here, not at module level: numpy.polynomial adds ~5 ms to every CLI
    # start, and only the geometric maximizer needs it
    from numpy.polynomial.chebyshev import chebder, chebval

    def falling_zero(u: float, v: float) -> float:
        # zero of d, positive at u and not at v, bracketed by 64-way sections
        # down to adjacent floats; d must be monotone on [u, v]
        while True:
            xs = np.linspace(u, v, 65)
            i = int(np.flatnonzero(chebval(xs, d) <= 0.0)[0]) - 1
            if xs[i + 1] - xs[i] >= v - u:
                return 0.5 * (u + v)
            u, v = xs[i], xs[i + 1]

    d = chebder(coef)
    nodes = np.cos(np.pi * np.arange(d.shape[0]) / (d.shape[0] - 1))
    weights = np.arange(2.0, d.shape[0]) ** 2
    found, stack = [], [(-1.0, 1.0, d)]
    while stack:
        u, v, b = stack.pop()
        rest = float(np.abs(b[1:]).sum())
        if abs(b[0]) > rest + 1e-12 * (abs(b[0]) + rest):
            continue
        if abs(b[1]) > float(weights @ np.abs(b[2:])):
            left, right = chebval(np.array([u, v]), d)
            if left > 0.0 >= right:
                found.append(falling_zero(u, v))
            continue
        mid = 0.5 * (u + v)
        if (v - u) * (abs(b[0]) + rest) <= noise or not u < mid < v:
            found.append(mid)
            continue
        for lo, hi in ((mid, v), (u, mid)):
            stack.append((lo, hi, _lobatto_coefficients(
                chebval(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes, d))))
    return sorted(found)


def _maximize_on_rates(objectives, lo: float, hi: float,
                       eps: float) -> tuple[float, float, float]:
    """Global maximum of a smooth scalar objective on the rates [lo, hi].

    ``objectives`` is the objective batched: it maps an array of rates to the
    array of their values, and is called once per round of nodes. The objective
    is interpolated at Chebyshev-Lobatto nodes, starting from degree _CHEB_START
    and doubling (the nodes nest) until the top quarter of the Chebyshev
    coefficients is at most eps max(1, max|F|); past degree _CHEB_MAX_DEGREE a
    RuntimeError is raised. The maximum is the best of lo, hi and the interior
    maxima of the interpolant (`_interior_maxima`), each re-evaluated by the
    objective; ties go to the smaller rho. Returns (rho_star, value, tail): the
    tail is that top-quarter coefficient size, an estimate of the interpolation
    error, never below _ROUNDING max(1, max|F|).
    """
    if hi == lo:
        return lo, float(objectives(np.array([lo]))[0]), 0.0
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    deg = _CHEB_START
    rates = mid + half * np.cos(np.pi * np.arange(deg + 1) / deg)
    rates[0], rates[-1] = hi, lo
    vals = objectives(rates)
    while True:
        if not np.isfinite(vals).all():
            raise RuntimeError("the objective is not finite on the feasible "
                               "interval: the system is not strictly stable")
        coef = _lobatto_coefficients(vals)
        scale = max(1.0, float(np.abs(vals).max()))
        tail = max(float(np.abs(coef[3 * deg // 4:]).max()), _ROUNDING * scale)
        if tail <= eps * scale:
            break
        if deg >= _CHEB_MAX_DEGREE:
            raise RuntimeError(f"Chebyshev tail {tail:.3g} still above eps * max(1, max|F|) = "
                               f"{eps * scale:.3g} at degree {deg} on rates "
                               f"[{lo:.6g}, {hi:.6g}]")
        finer = np.empty(2 * deg + 1)
        finer[::2] = vals
        finer[1::2] = objectives(mid + half * np.cos(np.pi * np.arange(1, 2 * deg, 2) / (2 * deg)))
        vals, deg = finer, 2 * deg

    inner = mid + half * np.array(_interior_maxima(coef, _ROUNDING * scale))
    rhos = np.concatenate([[lo], inner, [hi]])
    values = np.concatenate([vals[-1:], objectives(inner) if inner.size else inner, vals[:1]])
    best = int(np.argmax(values))          # the first maximum: ties go to the smaller rho
    return float(rhos[best]), float(values[best]), tail


def geometric_drce(s: OscillatorySum, rho_hat: float, xi: float,
                   eps: float) -> tuple[float, float, float]:
    """Worst geometric stopping law within Wasserstein radius xi of Geom(rho_hat),
    from the paper's expansion of g.

    The Wasserstein-1 distance between geometric laws is |1/rho - 1/rho_hat|, so
    the feasible success rates form an interval [lo, hi]. The objective
    F(rho) = sum_{t>=1} rho (1-rho)^{t-1} g(t) is summed in closed form, over all
    t: a real term w lambda^t gives w rho lambda / (1 - (1-rho) lambda), and an
    oscillation d r^t cos(t theta + eta) gives Re(d e^{i eta} rho z / (1 - (1-rho) z))
    with z = r e^{i theta}. F is maximized globally by the maximizer that
    `geometric_drce_exact` uses, to a Chebyshev tail of max(eps, _ROUNDING)
    max(1, max|F|). Returns (rho_star, value, bound): the bound is
    eps (1-rho_star)^n0 with n0 = find_n0(s, eps), the error of the paper's sum
    truncated at n0 at rho_star; the value itself carries no truncation.
    """
    lo, hi = _feasible_rates(rho_hat, xi, eps)
    z = np.array([t.magnitude * np.exp(1j * math.radians(t.theta_deg)) for t in s.complex_terms]
                 + [t.rate for t in s.real_terms], dtype=complex)
    weight = np.array([t.amplitude * np.exp(1j * math.radians(t.eta_deg)) for t in s.complex_terms]
                      + [t.weight for t in s.real_terms], dtype=complex)

    def objective(rho: float) -> float:
        return float((weight * (rho * z / (1.0 - (1.0 - rho) * z))).real.sum())

    def objectives(rhos: np.ndarray) -> np.ndarray:
        return np.array([objective(rho) for rho in rhos])

    rho_star, value, _ = _maximize_on_rates(objectives, lo, hi, max(eps, _ROUNDING))
    return rho_star, value, float(eps * (1.0 - rho_star) ** find_n0(s, eps))


_UNIT = 2.0 ** -53           # unit roundoff: a term below this relative size is dropped


def _resolvent_objective(squares: StableSquares, cv: np.ndarray, xv: np.ndarray):
    """F(rho) = rho c^T (I - s M)^{-1} b, s = 1 - rho and b = M x0, as a batched
    objective: a function of an array of rates that returns their values.

    With k = 2^L the certificate's power, (I - sM)^{-1} = sum_q (s^k M^k)^q
    prod_{j<L} (I + s^(2^j) M^(2^j)). Each factor of the product is one block
    product of M^(2^j) with the n x r block of all r rates; it stops early once
    s^(2^j) |M^(2^j)|_inf is under _UNIT for every rate, and forms the squares
    past SQUARES_KEPT again, one at a time, only while they are needed. The
    series contracts by gamma = s^k |M^k|_inf <= 1/2, so its term count is fixed
    by gamma^terms <= _UNIT: at most 53. Each column w is then accepted only if
    its backward error against M, |b - (I - sM) w|_inf over (1 + s|M|_inf)
    |w|_inf + |b|_inf, is at most `resolvent_backward_error`; any other rate
    takes a direct solve (an LU) of I - sM, and that value is returned.
    """
    a, norms, powers = squares.matrix, squares.norms, squares.powers
    b = a @ xv
    levels = len(norms) - 1
    b_norm = float(np.abs(b).max(initial=0.0))

    def direct(rho: float) -> float:
        lhs = (rho - 1.0) * a
        lhs.flat[::a.shape[0] + 1] += 1.0
        return rho * float(cv @ np.linalg.solve(lhs, b))

    def objectives(rhos: np.ndarray) -> np.ndarray:
        s = 1.0 - rhos
        w = np.repeat(b[:, None], rhos.shape[0], axis=1)
        # a column that overflows fails the check below and is solved directly
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(levels):
                weight = s ** (2.0 ** j)
                if float((weight * norms[j]).max()) < _UNIT:
                    break
                # M^(2^j): kept up to SQUARES_KEPT, formed again from the last one past it
                square = powers[j] if 2 ** j <= SQUARES_KEPT else square @ square
                w += (square @ w) * weight
            else:                               # no level was negligible: the series
                weight = s ** float(2 ** levels)
                gamma = float((weight * norms[-1]).max())
                terms = math.ceil(math.log(_UNIT) / math.log(gamma)) if gamma > 0.0 else 1
                head = w
                for _ in range(terms - 1):
                    w = head + (powers[-1] @ w) * weight
            residual = np.abs(b[:, None] - w + (a @ w) * s).max(axis=0, initial=0.0)
            bound = (1.0 + s * norms[0]) * np.abs(w).max(axis=0, initial=0.0) + b_norm
            values = rhos * (cv @ w)
        accepted = (residual <= DEFAULT_TOLS.resolvent_backward_error * bound) & np.isfinite(bound)
        for i in np.flatnonzero(~accepted):
            values[i] = direct(rhos[i])
        return values

    return objectives


def geometric_drce_exact(m, c, x, rho_hat: float, xi: float,
                         eps: float) -> tuple[float, float, float]:
    """Worst geometric stopping law within Wasserstein radius xi of Geom(rho_hat),
    by the exact resolvent: a global maximum with no truncation and no eigensolver.

    m is a matrix, certified as in `rce_infinite`, or the `StableSquares` of one.
    The objective sum_t rho (1-rho)^{t-1} <c, M^t x> is the generating function
    of the cost at 1 - rho, F(rho) = rho c^T M (I - (1-rho) M)^{-1} x, evaluated
    for each round of rates together from the certificate's squares and checked
    by its backward error (`_resolvent_objective`), and maximized by
    `_maximize_on_rates`. For a Markov chain, pass its shifted form (`to_gas`)
    and add the cost offset to the value: the weights sum to 1. Returns
    (rho_star, value, tail): the tail is the top-quarter Chebyshev coefficient
    size, an estimate of the interpolation error, never below _ROUNDING
    max(1, max|F|), so eps must be at least _ROUNDING.
    """
    lo, hi = _feasible_rates(rho_hat, xi, eps)
    if eps < _ROUNDING:
        raise ValueError(f"eps must be at least {_ROUNDING:.3g}, the rounding level of "
                         f"the interpolated values, got {eps!r}")
    squares, _, cv, xv = _certified(m, c, x)
    return _maximize_on_rates(_resolvent_objective(squares, cv, xv), lo, hi, eps)


def adversarial_instance(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 2x2 system whose cost stays negative through t = k yet turns positive later.

    Returns (M, x0, c): M is half a rotation by 2/(4k+1) radians, x0 sits at
    angle alpha_k = sum_{i<=k} 4/((4i-1)(4i-3)), and c = (1, 0), giving
    <c, M^t x0> = 2^{-t} cos(alpha_k + t theta_k).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")
    alpha = sum(4.0 / ((4 * i - 1) * (4 * i - 3)) for i in range(1, k + 1))
    theta = 2.0 / (4 * k + 1)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    m = 0.5 * rot
    x0 = np.array([math.cos(alpha), math.sin(alpha)])
    c = np.array([1.0, 0.0])
    return m, x0, c


def dircyc_instance(adjacency) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Reduce directed reachability to sign queries on a cost trajectory.

    For a 0/1 adjacency matrix A, with r = 1 + max column sum, M = A/r,
    x0 = e_n, c = -e_1 and threshold 0: <c, M^t x0> >= 0 exactly when no
    directed walk of length t runs from node 1 to node n.
    """
    a = as_matrix(adjacency)
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.all((np.abs(a) < 1e-12) | (np.abs(a - 1.0) < 1e-12)):
        raise ValueError("adjacency entries must be 0 or 1")
    a = np.round(a)
    n = a.shape[0]
    r = 1.0 + a.sum(axis=0).max()
    m = a / r
    x0 = np.zeros(n)
    x0[n - 1] = 1.0
    c = np.zeros(n)
    c[0] = -1.0
    return m, x0, c, 0.0
