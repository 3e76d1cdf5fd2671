import numpy as np
import pytest

from stopcost.config import DEFAULT_TOLS
from stopcost.matrix_core import SQUARES_KEPT, _assemble, mat_pow, mat_vec, real_jordan, \
    spectral_radius, stable_squares

from helpers import mat_pow_identity_start, random_stable, two_closed_classes_reduced


def rotation(theta_deg):
    th = np.deg2rad(theta_deg)
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def test_mat_pow_small_exponents():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mat_pow(m, 0), np.eye(2))
    assert np.array_equal(mat_pow(m, 1), m)
    np.testing.assert_allclose(mat_pow(m, 3), m @ m @ m, rtol=1e-12)


def test_mat_pow_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 7)
        k = int(rng.integers(0, 20))
        m = rng.standard_normal((n, n)) * 0.5
        np.testing.assert_allclose(
            mat_pow(m, k), np.linalg.matrix_power(m, k), rtol=1e-10, atol=1e-12)


MAT_POW_EXPONENTS = [*range(71), 255, 256, 960, 1023, 1024, 12345]


def mat_pow_grid_matrices():
    """(name, matrix) on which mat_pow must equal the identity-start loop bit for bit:
    random matrices scaled to a spectral radius in [0.9, 1.02] (finite at every
    exponent), column-stochastic ones, contracting ones, and two whose squares
    hit the all-tiny early return."""
    rng = np.random.default_rng(971)
    out = []
    for n in (1, 2, 3, 5, 8, 17):
        m = rng.standard_normal((n, n))
        out.append((f"random{n}", m * rng.uniform(0.9, 1.02) / spectral_radius(m)))
        raw = rng.random((n, n))
        out.append((f"stochastic{n}", raw / raw.sum(axis=0)))
        out.append((f"contracting{n}", rng.standard_normal((n, n)) * 0.3 / n))
    out.append(("tiny", np.array([[1e-100, 0.0], [0.0, -1e-100]])))
    out.append(("nilpotent", np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])))
    out.append(("guarded", np.array([[0.5, 1e-141], [-1e-141, 0.25]])))
    return out


MAT_POW_GRID = mat_pow_grid_matrices()


@pytest.mark.parametrize("name,m", MAT_POW_GRID, ids=[name for name, _ in MAT_POW_GRID])
def test_mat_pow_equals_the_identity_start_loop(name, m):
    for k in MAT_POW_EXPONENTS:         # k = 0 included: a fresh, writable identity
        got = mat_pow(m, k)
        assert np.array_equal(got, mat_pow_identity_start(m, k)), (name, k)
        assert got.flags.writeable and not np.shares_memory(got, m), (name, k)
    if name == "tiny":      # its first square underflows the guard: the early return
        assert np.array_equal(mat_pow(m, 2), np.zeros((2, 2)))
        assert np.array_equal(mat_pow(m, 1), m)


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        mat_pow(np.eye(2), -1)


def test_mat_vec_shape_check():
    with pytest.raises(ValueError):
        mat_vec(np.eye(3), np.ones(2))


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([0.3, -0.8])) == pytest.approx(0.8)
    # rotation-scaling has complex eigenvalues of magnitude r
    assert spectral_radius(0.6 * rotation(37.0)) == pytest.approx(0.6, abs=1e-12)


def _inf_norm(m):
    return np.abs(m).sum(axis=1).max()


def test_certify_stable_returns_least_halving_power():
    rng = np.random.default_rng(43)
    cases = [np.diag([0.5, -0.2]), np.array([[0.9]]), np.array([[0.5, 1.0], [0.0, 0.5]]),
             0.999 * rotation(30.0), np.zeros((3, 3))]
    cases += [random_stable(rng, int(n), rho_max=0.999) for n in rng.integers(1, 30, 20)]
    for m in cases:
        k = stable_squares(m).k
        assert _inf_norm(np.linalg.matrix_power(m, k)) <= 0.5
        assert k == 1 or _inf_norm(np.linalg.matrix_power(m, k // 2)) > 0.5
    assert stable_squares(np.array([[0.9]])).k == 8
    assert stable_squares(np.zeros((0, 0))).k == 1


def test_certify_stable_rejects_unit_and_overflowing_radius():
    for m in (np.eye(3), np.array([[1.01]]), rotation(30.0), np.array([[-1.0, 1.0], [0.0, 0.5]]),
              np.array([[2.0, 1e100], [0.0, 0.3]])):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match="spectral radius must be strictly below 1"):
                stable_squares(m).k
    assert stable_squares(np.array([[1.0 - 1e-6]])).k == 2 ** 20
    # rho = 1 - 1e-12 needs k ~ ln(2) * 1e12 > 2^36, the cap
    with pytest.raises(ValueError, match=f"k <= {2 ** 36}"):
        stable_squares(np.array([[1.0 - 1e-12]])).k


def test_certify_stable_needs_a_margin_below_one():
    """Two closed classes: the reduced powers tend to a projector of norm exactly 1,
    which rounding leaves under 1 at n = 243 (a `< 1` test accepted it at k = 1024)."""
    with pytest.raises(ValueError, match="spectral radius must be strictly below 1"):
        stable_squares(two_closed_classes_reduced()).k


def test_stable_squares_keep_the_squares_up_to_4096_and_the_last():
    rng = np.random.default_rng(47)
    for m in (np.array([[0.9]]), 0.999 * rotation(30.0), random_stable(rng, 6, rho_max=0.99),
              np.array([[1.0 - 1e-6]])):
        squares = stable_squares(m)
        assert squares.k == stable_squares(m).k
        expected, power = [], np.array(m, dtype=float)
        while len(expected) < len(squares.norms):
            expected.append(power)
            power = power @ power
        assert squares.norms == tuple(_inf_norm(p) for p in expected)
        kept = [p for j, p in enumerate(expected) if 2 ** j <= SQUARES_KEPT]
        if len(kept) < len(expected):
            kept.append(expected[-1])
        assert len(squares.powers) == len(kept) <= 14
        assert all(np.array_equal(p, q) and not p.flags.writeable
                   for p, q in zip(squares.powers, kept))
    assert stable_squares(np.array([[1.0 - 1e-6]])).k == 2 ** 20
    m = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert stable_squares(m).matrix is not m and m.flags.writeable


def _distinct_by_loops(lam, tol):
    """The pairwise loops _assemble ran before its broadcast comparison."""
    reals = [z for z in lam if abs(z.imag) <= tol]
    pairs = [z for z in lam if z.imag > tol]
    eigs = reals + pairs + [np.conj(z) for z in pairs]
    mags = [abs(z.real) for z in reals] + [abs(z) for z in pairs]
    return all(abs(x - y) >= tol for vals in (eigs, mags)
               for i, x in enumerate(vals) for y in vals[i + 1:])


def test_assemble_distinctness_matches_pairwise_loops():
    """Near-ties within a few ulps of the tolerance, among real values, among
    complex values, and between a real value and a pair's magnitude."""
    rng = np.random.default_rng(47)
    tol = DEFAULT_TOLS.eigen_distinct
    grid = 2.0 ** -80                 # sums of these stay exact near 5e-9
    spectra = []
    for _ in range(200):
        theta = rng.uniform(0.3, 1.3)
        w1 = complex(*np.round(rng.uniform(3.2e-9, 3.9e-9) * np.array([np.cos(theta), np.sin(theta)]) / grid) * grid)
        d = complex(*np.round(tol * np.array([np.cos(theta), np.sin(theta)]) / grid) * grid)
        spectra.append([w1, w1 + d])  # radial step: |w1 - w2| within ulps of tol, magnitudes apart
        w = rng.uniform(0.55, 0.95) * np.exp(1j * rng.uniform(0.1, 3.0))
        base = np.nextafter(abs(w) + tol, 0.0)
        x = float(rng.uniform(-0.5, 0.5))
        far = [complex(rng.uniform(-0.2, 0.2)), 0.3 * np.exp(1j * rng.uniform(0.1, 3.0))]
        for j in range(-3, 4):
            near = base + j * np.spacing(base)
            spectra.append([complex(near), w] + far)                          # |x| vs |w|
            spectra.append([complex(x), complex(x + tol + j * np.spacing(tol))] + far)
            spectra.append([w, w + tol * np.exp(1j * rng.uniform(0, 2 * np.pi)) * (1 + j * 1e-15)])
    decisions = set()
    for spec in spectra:
        pairs = [z for z in spec if z.imag > tol]
        lam = np.array(spec + [np.conj(z) for z in pairs])
        vecs = rng.standard_normal((lam.size, lam.size)) + 1j * rng.standard_normal((lam.size, lam.size))
        for i, z in enumerate(lam):
            if z.imag < -tol:
                vecs[:, i] = np.conj(vecs[:, spec.index(np.conj(z))])
        distinct = _distinct_by_loops(list(lam), tol)
        assert (_assemble(lam, vecs, 1.0) is not None) == distinct, spec
        decisions.add(distinct)
    assert decisions == {True, False}


def test_real_jordan_reconstruction_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = random_stable(rng, n)
        form = real_jordan(m)
        rebuilt = form.p_matrix @ form.jordan_matrix() @ form.p_inverse
        scale = max(1.0, np.abs(m).max())
        assert np.abs(rebuilt - m).max() <= 1e-6 * scale
        # generic matrices have distinct eigenvalues, so no nudging was needed
        assert form.perturbation == 0.0


def test_real_jordan_block_layout():
    m = np.diag([0.9, -0.2, 0.5])
    form = real_jordan(m)
    assert form.complex_blocks == ()
    np.testing.assert_allclose(sorted(abs(e) for e in form.real_eigs), [0.2, 0.5, 0.9])
    # real eigenvalues come back sorted by magnitude
    assert [abs(e) for e in form.real_eigs] == sorted(abs(e) for e in form.real_eigs)


def test_real_jordan_rotation_block():
    m = 0.7 * rotation(30.0)
    form = real_jordan(m)
    assert len(form.complex_blocks) == 1
    r, theta = form.complex_blocks[0]
    assert r == pytest.approx(0.7, abs=1e-10)
    assert theta == pytest.approx(30.0, abs=1e-8)
    assert form.real_eigs == ()


def test_complex_blocks_precede_reals_and_sort_by_magnitude():
    blocks = [0.8 * rotation(61.0), np.array([[0.35]]), 0.5 * rotation(120.0)]
    m = np.zeros((5, 5))
    m[:2, :2] = blocks[0]
    m[2:3, 2:3] = blocks[1]
    m[3:, 3:] = blocks[2]
    form = real_jordan(m)
    mags = [r for r, _ in form.complex_blocks]
    assert mags == sorted(mags)
    assert [round(r, 6) for r, _ in form.complex_blocks] == [0.5, 0.8]
    assert form.real_eigs == pytest.approx((0.35,))


def test_jordan_power_matches_matrix_power():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = random_stable(rng, n)
        form = real_jordan(m)
        if form.perturbation != 0.0:
            continue
        for k in (1, 2, 5, 17):
            direct = np.linalg.matrix_power(m, k)
            via_form = form.p_matrix @ form.jordan_power(k) @ form.p_inverse
            np.testing.assert_allclose(via_form, direct, atol=1e-8, rtol=1e-7)


def test_jordan_power_full_turn():
    m = 0.7 * rotation(30.0)
    form = real_jordan(m)
    # twelve steps of 30 degrees is a full turn: pure scaling remains
    np.testing.assert_allclose(form.jordan_power(12), (0.7 ** 12) * np.eye(2), atol=1e-12)


def test_real_jordan_perturbs_defective_matrix():
    m = np.array([[0.5, 1.0], [0.0, 0.5]])
    form = real_jordan(m)
    assert form.perturbation > 0.0
    rebuilt = form.p_matrix @ form.jordan_matrix() @ form.p_inverse
    assert np.abs(rebuilt - m).max() <= 1e-6


def test_real_jordan_handles_equal_magnitude_pair():
    # +0.6 and -0.6 share a magnitude; the ladder must still separate them
    m = np.diag([0.6, -0.6])
    form = real_jordan(m)
    rebuilt = form.p_matrix @ form.jordan_matrix() @ form.p_inverse
    assert np.abs(rebuilt - m).max() <= 1e-6


def test_real_jordan_rejects_nonsquare():
    with pytest.raises(ValueError):
        real_jordan(np.ones((2, 3)))
