"""Dense real matrix utilities: powers, the squaring stability certificate,
spectral radius, real block-diagonal form.

The decomposition produced here is the real analogue of diagonalization: complex
conjugate eigenvalue pairs a +- ib become 2x2 rotation-scaling blocks
r * [[cos t, -sin t], [sin t, cos t]] and real eigenvalues stay scalar. Repeated
or magnitude-tied eigenvalues are split by a tiny recorded perturbation so that
every magnitude is distinct, which downstream asymptotic analysis relies on.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .config import DEFAULT_TOLS


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


def as_system(m, x0, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce a system (M, x0, c) to a square matrix and two vectors of its size."""
    a, x, cv = as_matrix(m), as_vector(x0), as_vector(c)
    if a.shape[0] != a.shape[1]:
        raise ValueError("system matrix must be square")
    if x.shape[0] != a.shape[0] or cv.shape[0] != a.shape[0]:
        raise ValueError("dimension mismatch between matrix, state, and cost")
    return a, x, cv


def _square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def mat_vec(m, v) -> np.ndarray:
    """Matrix-vector product with shape validation."""
    a = as_matrix(m)
    x = as_vector(v)
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {x.shape}")
    return a @ x


# Entries below this are flushed to zero between the multiplies of mat_pow.
# Surviving entries have pairwise products of at least 1e-280, roughly 1e28
# times the smallest normal double, so accumulations stay out of the
# subnormal range, whose arithmetic can stall the FPU by orders of magnitude
# when a strictly stable matrix is powered down to underflow.
_SUBNORMAL_GUARD = 1e-140

# stable_squares gives up once k = 2^j reaches this; see its docstring.
_CERTIFY_MAX_K = 2 ** 36


def mat_pow(m, k: int) -> np.ndarray:
    """m**k for integer k >= 0 by successive squaring (O(log k) multiplies).

    Magnitudes below 1e-140 are treated as exact zeros between multiplies,
    which leaves every documented identity intact by a margin of more than a
    hundred orders of magnitude while keeping deep powers of contractive
    matrices out of subnormal arithmetic. The product starts as the guarded
    square at k's lowest set bit, with no multiply by the identity; k = 0
    returns a fresh identity.
    """
    a = _square(m)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    e = int(k)
    if e == 0:
        return np.eye(a.shape[0])
    base = a.copy()
    base[np.abs(base) < _SUBNORMAL_GUARD] = 0.0
    result = None
    while True:
        if e & 1:
            if result is None:
                result = base
            else:
                result = result @ base
                result[np.abs(result) < _SUBNORMAL_GUARD] = 0.0
        e >>= 1
        if not e:
            return result
        base = base @ base
        tiny = np.abs(base) < _SUBNORMAL_GUARD
        if tiny.all():
            # every remaining exponent bit multiplies in a zero matrix
            return np.zeros_like(base)
        base[tiny] = 0.0


# stable_squares keeps the squares M^k for k up to this, rce_infinite's largest row table.
SQUARES_KEPT = 4096


class StableSquares(namedtuple("StableSquares", "powers norms")):
    """The repeated squares M^(2^j) that certify rho(M) < 1 (`stable_squares`).

    ``norms[j]`` is |M^(2^j)|_inf for every j up to the certificate k =
    2^(len(norms) - 1), the least with norm <= 1/2. ``powers[j]`` is M^(2^j)
    while 2^j <= SQUARES_KEPT, and ``powers[-1]`` is always M^k: these are the
    powers `rce_infinite` scans with. ``powers[0]`` is a read-only copy of M.
    """

    __slots__ = ()

    def __new__(cls, powers: tuple[np.ndarray, ...], norms: tuple[float, ...]):
        for p in powers:
            p.setflags(write=False)
        return super().__new__(cls, powers, norms)

    @property
    def matrix(self) -> np.ndarray:
        return self.powers[0]

    @property
    def k(self) -> int:
        return 2 ** (len(self.norms) - 1)


def stable_squares(m) -> StableSquares:
    """Square M until |M^k|_inf <= 1/2, a certificate that rho(M) < 1.

    The max row sum of |M^k| at most 1/2 gives rho(M)^k <= 1/2; no eigensolver
    runs. The margin below 1 matters: a chain with two closed classes reduces
    to a matrix whose powers tend to a projector of norm exactly 1, which
    rounding can leave a hair under 1. Raises ValueError once k reaches
    _CERTIFY_MAX_K or |M^k|_inf exceeds 1e150 (the next square could
    overflow). With rho(M) = 1 - delta the least k is about ln(2C) / delta, C
    the transient growth of the powers, so the cap accepts gaps down to about
    1.5e-11 * ln(2C), and a unit eigenvalue that rounding moved by less than
    ln(2) / _CERTIFY_MAX_K = 1e-11 is still rejected. The squares kept take at
    most log2(SQUARES_KEPT) + 2 = 14 matrices of M's size; a block of 13 is
    reserved, and its pages are touched only as squares are written.
    """
    a = _square(m)
    # The squares up to SQUARES_KEPT share one block, which the allocator keeps
    # for the next call once it is freed. As separate arrays, the nine squares
    # of the 128-state lazy cycle went back to the system on every call and
    # were faulted in again: ~220 page faults, +0.4-0.9 ms a call.
    stack = np.empty((SQUARES_KEPT.bit_length(), *a.shape))
    power, k = stack[0], 1
    power[...] = a
    if a.shape[0] == 0:
        return StableSquares((power,), (0.0,))
    powers, norms = [power], []
    while (norm := float(np.abs(power).sum(axis=1).max())) > 0.5:
        if k >= _CERTIFY_MAX_K or norm > 1e150:
            raise ValueError(f"spectral radius must be strictly below 1 (|M^k|_inf > 1/2, k <= {k})")
        norms.append(norm)
        k *= 2
        if k <= SQUARES_KEPT:
            power = np.matmul(power, power, out=stack[len(powers)])
        else:
            power = power @ power
            if k > 2 * SQUARES_KEPT:
                powers.pop()              # M^(k/2) is past the kept squares
        powers.append(power)
    norms.append(norm)
    return StableSquares(tuple(powers), tuple(norms))


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude."""
    a = _square(m)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    return float(np.abs(lam).max()) if a.shape[0] else 0.0


class RealJordanForm(namedtuple("RealJordanForm",
                                "p_matrix p_inverse complex_blocks real_eigs perturbation")):
    """Real block-diagonal eigenstructure M = P J P^-1.

    ``complex_blocks`` holds (magnitude, angle in degrees) for each 2x2
    rotation-scaling block, ordered by ascending magnitude; ``real_eigs`` holds
    the real eigenvalues ordered by ascending magnitude. J lays the complex
    blocks out first, then the real eigenvalues. ``perturbation`` records the
    max-norm size of the diagonal perturbation applied before decomposing
    (0.0 when the input was used as-is).
    """

    __slots__ = ()

    def __new__(cls, p_matrix: np.ndarray, p_inverse: np.ndarray,
                complex_blocks: tuple[tuple[float, float], ...], real_eigs: tuple[float, ...],
                perturbation: float = 0.0):
        p_matrix.setflags(write=False)
        p_inverse.setflags(write=False)
        return super().__new__(cls, p_matrix, p_inverse, complex_blocks, real_eigs, perturbation)

    @property
    def n(self) -> int:
        return self.p_matrix.shape[0]

    def jordan_matrix(self) -> np.ndarray:
        return self.jordan_power(1)

    def jordan_power(self, k: int) -> np.ndarray:
        """J**k assembled blockwise: each block scales by r**k and rotates by k*theta."""
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        j = np.zeros((self.n, self.n))
        pos = 0
        for r, theta in self.complex_blocks:
            ang = np.deg2rad((k * theta) % 360.0)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            j[pos:pos + 2, pos:pos + 2] = (r ** k) * rot
            pos += 2
        for lam in self.real_eigs:
            j[pos, pos] = lam ** k
            pos += 1
        return j


def _phase_align(z: np.ndarray) -> np.ndarray:
    # rotate a complex eigenvector of a real eigenvalue back onto the real axis
    k = int(np.argmax(np.abs(z)))
    u = (z * np.conj(z[k]) / abs(z[k])).real
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise RuntimeError("degenerate eigenvector")
    return u / nrm


def _assemble(lam: np.ndarray, vecs: np.ndarray, scale: float):
    n = lam.shape[0]
    tol = DEFAULT_TOLS.eigen_distinct * scale
    real_idx = [i for i in range(n) if abs(lam[i].imag) <= tol]
    pair_idx = [i for i in range(n) if lam[i].imag > tol]
    if len(real_idx) + 2 * len(pair_idx) != n:
        return None  # unmatched conjugates; treat like a failed attempt

    pair_idx.sort(key=lambda i: abs(lam[i]))
    real_idx.sort(key=lambda i: abs(lam[i].real))

    # distinctness: all eigenvalues pairwise separated, all magnitudes pairwise
    # separated. np.hypot rounds exactly like abs() of a complex scalar, which
    # np.abs on a complex array need not: it can differ in the last bit.
    real_lam, pair_lam = lam[real_idx], lam[pair_idx]
    eigs = np.concatenate([real_lam, pair_lam, np.conj(pair_lam)])
    diff = eigs[:, None] - eigs[None, :]
    mags = np.concatenate([np.abs(real_lam.real), np.hypot(pair_lam.real, pair_lam.imag)])
    if np.triu(np.hypot(diff.real, diff.imag) < tol, 1).any() or \
            np.triu(np.abs(mags[:, None] - mags[None, :]) < tol, 1).any():
        return None

    cols = []
    blocks = []
    for i in pair_idx:
        z = vecs[:, i]
        # columns [Im z, Re z] turn the pair a+-ib into [[a, -b], [b, a]]
        cols.append(z.imag)
        cols.append(z.real)
        a_, b_ = lam[i].real, lam[i].imag
        blocks.append((float(np.hypot(a_, b_)), float(np.degrees(np.arctan2(b_, a_)) % 360.0)))
    reals = []
    for i in real_idx:
        cols.append(_phase_align(vecs[:, i]))
        reals.append(float(lam[i].real))

    p = np.column_stack(cols) if cols else np.zeros((n, 0))
    try:
        p_inv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        return None
    return p, p_inv, tuple(blocks), tuple(reals)


def real_jordan(m) -> RealJordanForm:
    """Real Jordan decomposition with distinct-magnitude guarantee.

    When eigenvalues (or their magnitudes) collide within tolerance, the input
    is nudged by a deterministic diagonal perturbation of relative size ~1e-7
    and decomposed again; the applied perturbation size is recorded in the
    result. Raises RuntimeError when the perturbation budget is exhausted.
    """
    a = _square(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    scale = max(1.0, float(np.abs(a).max()))
    recon_tol = DEFAULT_TOLS.reconstruction * scale
    pattern = np.diag(np.arange(1, n + 1, dtype=float) / n)
    for mult in (0.0, 1.0, 2.0, 4.0):
        delta = mult * DEFAULT_TOLS.perturbation * scale
        work = a + delta * pattern
        try:
            lam, vecs = np.linalg.eig(work)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
        built = _assemble(lam, vecs, scale)
        if built is None:
            continue
        p, p_inv, blocks, reals = built
        j = RealJordanForm(p, p_inv, blocks, reals, perturbation=float(delta))
        if np.abs(p @ j.jordan_matrix() @ p_inv - a).max() <= recon_tol:
            return j
    raise RuntimeError(
        "could not build a well-conditioned real Jordan form: "
        "perturbation budget exhausted (near-defective input?)"
    )
