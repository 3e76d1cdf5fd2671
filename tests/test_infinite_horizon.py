import math

import numpy as np
import pytest
from scipy.linalg import block_diag

import stopcost.infinite_horizon as infinite_horizon
import stopcost.matrix_core as matrix_core
from stopcost.infinite_horizon import (
    ComplexTerm,
    CutoffResult,
    OscillatorySum,
    RealTerm,
    _scan_first_positive,
    adversarial_instance,
    bezout_steps,
    decompose,
    dircyc_instance,
    eval_g,
    find_n0,
    find_t0,
    geometric_drce,
    geometric_drce_exact,
    rce_infinite,
    rce_infinite_2d,
    RceInfResult,
)
from stopcost.finite_horizon import cost_sequence_strided
from stopcost.markov_gas import MarkovChain, project_state, to_gas, transfer_cost
from stopcost.matrix_core import mat_pow, stable_squares

from helpers import (exact_cost_values, geometric_grid_oracle, lazy_cycle, nonnormal_stable,
                     oscillatory_values, random_stable, rce_infinite_own_squares,
                     resolvent_direct_oracle, transient_growth, two_closed_classes_reduced)

DIAG = np.diag([0.9, -0.5])
ONES = np.array([1.0, 1.0])
ROT90 = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
E1 = np.array([1.0, 0.0])


def brute_values(m, c, x, horizon):
    m, c, x = np.asarray(m, float), np.asarray(c, float), np.asarray(x, float)
    out = np.empty(horizon)
    state = x.copy()
    for t in range(horizon):
        state = m @ state
        out[t] = c @ state
    return out


# -------------------------------------------------------------- decompose ---

def test_decompose_diagonal_fixture():
    s = decompose(DIAG, ONES, ONES)
    assert s.complex_terms == ()
    assert [(t.weight, t.rate) for t in s.real_terms] == [
        pytest.approx((1.0, -0.5)), pytest.approx((1.0, 0.9))]


def test_decompose_rotation_fixture():
    s = decompose(ROT90, E1, E1)
    assert s.real_terms == ()
    (term,) = s.complex_terms
    assert term.amplitude == pytest.approx(1.0, abs=1e-10)
    assert term.magnitude == pytest.approx(0.5, abs=1e-12)
    assert term.theta_deg == pytest.approx(90.0, abs=1e-9)
    assert term.eta_deg % 360.0 == pytest.approx(0.0, abs=1e-7)
    assert term.theta_frac == (90, 1)


def test_decompose_reconstructs_cost_trajectory():
    """The term sum must reproduce <c, M^t x> exactly for generic systems."""
    rng = np.random.default_rng(307)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = random_stable(rng, n)
        c = rng.standard_normal(n)
        x = rng.standard_normal(n)
        s = decompose(m, c, x)
        direct = brute_values(m, c, x, 50)
        scale = max(1.0, np.abs(direct).max())
        for t in (1, 2, 3, 5, 10, 25, 50):
            assert abs(eval_g(s, t) - direct[t - 1]) <= 1e-7 * scale


def test_decompose_rejects_unstable():
    with pytest.raises(ValueError):
        decompose(np.eye(2), ONES, ONES)
    with pytest.raises(ValueError):
        decompose(np.array([[1.1]]), [1.0], [1.0])


def test_decompose_drops_negligible_terms():
    # x orthogonal to the slow eigenvector leaves only the fast term
    s = decompose(DIAG, ONES, np.array([0.0, 1.0]))
    assert [(t.weight, t.rate) for t in s.real_terms] == [pytest.approx((1.0, -0.5))]


def test_eval_g_validates_t():
    s = decompose(DIAG, ONES, ONES)
    with pytest.raises(ValueError):
        eval_g(s, 0)
    with pytest.raises(ValueError):
        eval_g(s, -3)


def test_oscillatory_sum_validation():
    with pytest.raises(ValueError):
        OscillatorySum((), (RealTerm(1.0, 1.0),))            # magnitude not < 1
    with pytest.raises(ValueError):
        OscillatorySum((), (RealTerm(1.0, 0.9), RealTerm(1.0, 0.3)))   # misordered
    with pytest.raises(ValueError):
        OscillatorySum((ComplexTerm(1.0, 0.8, 30.0, 0.0),
                        ComplexTerm(1.0, 0.4, 10.0, 0.0)), ())


# ----------------------------------------------------------- bezout_steps ---

def test_bezout_identity_random():
    rng = np.random.default_rng(311)
    found = 0
    while found < 40:
        b = int(rng.integers(1, 50))
        a = int(rng.integers(1, 360 * b))
        if math.gcd(a, b) != 1:
            continue
        n, l, g = bezout_steps(a, b)
        assert a * n + 360 * b * l == g == math.gcd(360, a)
        assert n != 0
        found += 1


def test_bezout_rejects_bad_input():
    with pytest.raises(ValueError):
        bezout_steps(2, 4)          # not in lowest terms
    with pytest.raises(ValueError):
        bezout_steps(360, 1)        # angle not below a full turn
    with pytest.raises(ValueError):
        bezout_steps(0, 1)


# ---------------------------------------------------------------- find_t0 ---

def test_find_t0_real_dominant_positive():
    s = decompose(DIAG, ONES, ONES)
    cut = find_t0(s)
    assert cut.case_tag == "real-pos-pos"
    assert cut.t0 == 2
    assert eval_g(s, cut.t0) > 0.0


def test_find_t0_rotation_needs_full_turn():
    # cos(90 t) is zero/negative until t=4; exact zeros must not count as hits
    s = decompose(ROT90, E1, E1)
    cut = find_t0(s)
    assert cut.case_tag == "complex"
    assert cut.t0 == 4


def test_find_t0_negative_weight_positive_rate_no_witness():
    s = OscillatorySum((), (RealTerm(-1.0, 0.9),))
    cut = find_t0(s)
    assert cut.case_tag == "real-neg-pos"
    assert cut.t0 is None


def test_find_t0_negative_weight_positive_rate_with_window():
    # small fast positive term beats the slow negative one only early on
    s = OscillatorySum((), (RealTerm(0.5, 0.5), RealTerm(-0.1, 0.9)))
    cut = find_t0(s)
    assert cut.case_tag == "real-neg-pos"
    assert cut.t0 == 1
    assert cut.n0 is not None
    # beyond the window the sum must stay nonpositive
    for t in range(cut.n0 + 1, cut.n0 + 50):
        assert eval_g(s, t) <= 1e-12


def test_find_t0_alternating_rate_parity():
    neg_neg = OscillatorySum((), (RealTerm(-1.0, -0.8),))
    cut = find_t0(neg_neg)
    assert cut.case_tag == "real-neg-neg"
    assert cut.t0 == 1 and eval_g(neg_neg, 1) > 0.0

    pos_neg = OscillatorySum((), (RealTerm(1.0, -0.8),))
    cut = find_t0(pos_neg)
    assert cut.case_tag == "real-pos-neg"
    assert cut.t0 == 2 and eval_g(pos_neg, 2) > 0.0


def test_find_t0_dominant_tie_rejected():
    s = OscillatorySum((ComplexTerm(1.0, 0.7, 45.0, 0.0, (45, 1)),),
                       (RealTerm(1.0, 0.7),))
    with pytest.raises(ValueError):
        find_t0(s)


def test_find_t0_empty_sum_rejected():
    with pytest.raises(ValueError):
        find_t0(OscillatorySum((), ()))


def test_find_t0_always_returns_positive_witness():
    rng = np.random.default_rng(313)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = random_stable(rng, n)
        c, x = rng.standard_normal(n), rng.standard_normal(n)
        s = decompose(m, c, x)
        if s.is_empty:
            continue
        cut = find_t0(s)
        if cut.t0 is not None:
            floor = 1e-12 * max(1.0, s.amplitude_total)
            assert eval_g(s, cut.t0) > floor


def first_positive_in_one_window(s, hi, floor):
    hits = np.flatnonzero(oscillatory_values(s, np.arange(1, hi + 1, dtype=np.int64)) > floor)
    return int(hits[0]) + 1 if hits.size else None


def turning_positive_at(t, theta_deg=1.0):
    """One damped cosine that is negative on 1..t-1 and positive at t."""
    eta = 270.0 - theta_deg * (t - 0.5)
    return OscillatorySum((ComplexTerm(1.0, 0.99999, theta_deg, eta),), ())


def test_scan_windows_find_the_same_first_positive():
    m, x0, c = adversarial_instance(130)
    late = decompose(m, c, x0)
    cases = [                        # (sum, hi, floor, first t with g(t) > floor)
        (turning_positive_at(1), 1000, 0.0, 1),
        (turning_positive_at(64), 1000, 0.0, 64),
        (turning_positive_at(65), 1000, 0.0, 65),
        (turning_positive_at(150), 1000, 1e-12, 150),
        (turning_positive_at(193, theta_deg=0.5), 193, 1e-12, 193),
        (turning_positive_at(150_000, theta_deg=0.001), 200_000, 1e-12, 150_000),
        (late, 1000, 0.0, 819),
        (late, 830, 0.0, 819),       # the hit lands in a window cut short by hi
        (late, 818, 0.0, None),      # hi is one short of the hit and off the window edges
        (late, 1000, 1e-12, None),   # 2^-819 is under the floor
        (OscillatorySum((), (RealTerm(-1.0, 0.9999),)), 200_000, 0.0, None),
    ]
    for s, hi, floor, first in cases:
        assert first_positive_in_one_window(s, hi, floor) == first
        assert _scan_first_positive(s, hi, floor) == first, (s, hi, floor)
    strided = [                      # (sum, hi, floor, start, step, first hit)
        (turning_positive_at(150), 1000, 0.0, 100, 1, 150),
        (turning_positive_at(150), 1000, 0.0, 151, 1, 151),
        (turning_positive_at(150), 1000, 0.0, 1, 2, 151),    # the hit is in the second window
        (turning_positive_at(150), 1000, 0.0, 2, 2, 150),
        (turning_positive_at(150), 1000, 1e-12, 5, 7, 152),
        (turning_positive_at(150), 151, 0.0, 5, 7, None),    # hi falls between the strides
        (turning_positive_at(150), 1000, 0.0, 1001, 1, None),
        (late, 1000, 0.0, 1, 2, 819),
        (late, 1000, 0.0, 2, 2, 820),
        (late, 1000, 0.0, 3, 9, 822),
    ]
    for s, hi, floor, start, step, first in strided:
        pointwise = next((t for t in range(start, hi + 1, step) if eval_g(s, t) > floor), None)
        assert pointwise == first, (start, step, pointwise)
        assert _scan_first_positive(s, hi, floor, start, step) == first, (s, hi, floor, start, step)


def test_find_t0_scans_in_windows(monkeypatch):
    """The dominant term 1e-13 * 0.9999^t starts under the floor, so no point
    past the domination witness can be a hit: that scan ends at once, and the
    fallback scan finds t = 1 in its first window, before the witness."""
    s = decompose(np.diag([0.9999, 0.5]), [1e-13, 1.0], [1.0, 1.0])
    calls = []
    evaluate = infinite_horizon._eval_array
    monkeypatch.setattr(infinite_horizon, "_eval_array",
                        lambda s, ts: calls.append(ts.shape[0]) or evaluate(s, ts))
    assert find_t0(s) == CutoffResult(1, None, "real-pos-pos")
    assert sum(calls) < 100, calls


# ---------------------------------------------------------------- find_n0 ---

def test_find_n0_diagonal_fixture():
    s = decompose(DIAG, ONES, ONES)
    assert find_n0(s, eval_g(s, 2)) == 8


def test_find_n0_bounds_later_values():
    rng = np.random.default_rng(317)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = random_stable(rng, n)
        c, x = rng.standard_normal(n), rng.standard_normal(n)
        s = decompose(m, c, x)
        if s.is_empty:
            continue
        cut = find_t0(s)
        if cut.t0 is None or cut.n0 is not None:
            continue
        g_t0 = eval_g(s, cut.t0)
        n0 = find_n0(s, g_t0)
        assert n0 >= cut.t0
        for t in range(n0 + 1, n0 + 200, 7):
            assert abs(eval_g(s, t)) < g_t0


def test_find_n0_requires_positive_value():
    s = decompose(DIAG, ONES, ONES)
    with pytest.raises(ValueError):
        find_n0(s, 0.0)


# ------------------------------------------------------------ rce_infinite ---

def test_rce_infinite_diagonal_fixture():
    res = rce_infinite(DIAG, ONES, ONES)
    assert res.kind == "attained"
    assert res.t_star == 2
    assert res.value == pytest.approx(1.06, abs=1e-12)


def test_rce_infinite_rotation_fixture():
    res = rce_infinite(ROT90, E1, E1)
    assert (res.kind, res.t_star) == ("attained", 4)
    assert res.value == pytest.approx(0.0625, abs=1e-12)


def test_rce_infinite_supremum_at_infinity():
    # strictly negative trajectory approaching zero from below
    m = np.array([[0.9]])
    res = rce_infinite(m, [-1.0], [1.0])
    assert res.kind == "supremum-at-infinity"
    assert res.t_star is None
    assert res.value == 0.0


def test_rce_infinite_matches_brute_force():
    """Exact agreement with a long direct scan on random stable systems."""
    rng = np.random.default_rng(331)
    attained = 0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = random_stable(rng, n)          # spectral radius <= 0.9
        c, x = rng.standard_normal(n), rng.standard_normal(n)
        res = rce_infinite(m, c, x)
        direct = brute_values(m, c, x, 600)
        scale = max(1.0, np.abs(direct).max())
        if res.kind == "attained":
            best = int(np.argmax(direct))
            assert res.t_star == best + 1
            assert res.value == pytest.approx(direct[best], abs=1e-9 * scale)
            attained += 1
        else:
            assert direct.max() <= 1e-9 * scale
    assert attained >= 20


def assert_matches_exact(a, q, c, x, horizon=400):
    """rce_infinite against the exact Fraction recurrence on M = a / q (rho <= 3/4 here).

    t_star must be the exact maximiser or, where several times come within
    1e-12 of the maximum (exact ties included), any of them: rounding may
    pick either.
    """
    exact = exact_cost_values(a, q, c, x, horizon)
    scale = max(1.0, max(abs(float(g)) for g in exact))
    assert max(abs(float(g)) for g in exact[-100:]) <= 1e-20 * scale     # decayed long before
    top = max(exact)
    res = rce_infinite(np.array(a, dtype=float) / q, [float(v) for v in c], [float(v) for v in x])
    if top <= 0:
        assert (res.kind, res.t_star, res.value) == ("supremum-at-infinity", None, 0.0)
        return res
    assert res.kind == "attained" and float(top) > 1e-9 * scale
    near = [t for t, g in enumerate(exact, 1) if float(top - g) <= 1e-12 * scale]
    assert res.t_star in near
    assert res.value == pytest.approx(float(top), rel=1e-13, abs=1e-15 * scale)
    return res


def test_rce_infinite_matches_exact_recurrence_on_defective_systems():
    # g(t) = t 2^(1-t): exactly 1 at t = 1 and t = 2, so the earliest, t = 1, wins
    res = assert_matches_exact([[1, 2], [0, 1]], 2, [1, 0], [0, 1])
    assert (res.kind, res.t_star, res.value) == ("attained", 1, 1.0)
    # g(t) = C(t, 2) 2^(2-t): 1.5 at t = 3 and t = 4
    jordan3 = [[1, 2, 0], [0, 1, 2], [0, 0, 1]]
    res = assert_matches_exact(jordan3, 2, [1, 0, 0], [0, 0, 1])
    assert (res.t_star, res.value) == (3, 1.5)
    res = assert_matches_exact([[-1, 2], [0, -1]], 2, [1, 0], [0, 1])      # t (-1/2)^(t-1)
    assert (res.t_star, res.value) == (1, 1.0)
    res = assert_matches_exact([[1, 0], [0, 1]], 2, [1, -1], [1, 1])        # g == 0
    assert res.kind == "supremum-at-infinity"
    res = assert_matches_exact([[3, 1], [0, 3]], 4, [-1, 0], [1, 1])        # g < 0 throughout
    assert res.kind == "supremum-at-infinity"
    assert_matches_exact([[0, -1], [1, 0]], 2, [1, 0], [1, 0])              # rotation, |lambda| tie
    assert_matches_exact([[1, 0, 0], [0, -1, 0], [0, 0, 1]], 2, [1, 1, -1], [1, 1, 1])


def test_rce_infinite_matches_exact_recurrence_on_random_rational_systems():
    rng = np.random.default_rng(367)
    attained = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a = rng.integers(-3, 4, size=(n, n))
        if rng.random() < 0.5:                # repeated eigenvalues, possibly defective
            a = np.triu(a, 1) + int(rng.integers(-2, 3)) * np.eye(n, dtype=np.int64)
        radius = float(np.abs(np.linalg.eigvals(a)).max())
        q = max(1, math.ceil(radius / rng.uniform(0.3, 0.75)))
        c = [int(v) for v in rng.integers(-3, 4, size=n)]
        x = [int(v) for v in rng.integers(-3, 4, size=n)]
        res = assert_matches_exact(a.astype(int).tolist(), q, c, x)
        attained += res.kind == "attained"
    assert attained >= 15


def test_rce_infinite_rejects_spectral_radius_at_least_one():
    for m in (np.eye(3), np.array([[1.01]]), np.array([[-1.0, 1.0], [0.0, 0.5]])):
        n = m.shape[0]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(ValueError, match="spectral radius must be strictly below 1"):
                rce_infinite(m, np.ones(n), np.ones(n))


def test_rce_infinite_agrees_with_the_cutoff_theorems():
    """The paper's witness t0 is never above the supremum, and t* lies within n0."""
    rng = np.random.default_rng(373)
    attained = 0
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = random_stable(rng, n)
        c, x = rng.standard_normal(n), rng.standard_normal(n)
        s = decompose(m, c, x)
        res = rce_infinite(m, c, x)
        cut = find_t0(s) if not s.is_empty else None
        if cut is None or cut.t0 is None:
            assert res.kind == "supremum-at-infinity"
            continue
        g_t0 = eval_g(s, cut.t0)
        assert res.kind == "attained"
        assert g_t0 <= res.value + 1e-9 * max(1.0, abs(res.value))
        assert res.t_star <= (cut.n0 if cut.n0 is not None else find_n0(s, g_t0))
        attained += 1
    assert attained >= 20


def test_rce_infinite_needs_no_eigen_decomposition(monkeypatch):
    m, c, x0 = lazy_cycle(np.random.default_rng(37), 32)
    gas = to_gas(MarkovChain.from_transition(m))
    cost, _ = transfer_cost(gas, c)
    cases = [(DIAG, ONES, ONES), (ROT90, E1, E1), (np.array([[0.5, 1.0], [0.0, 0.5]]), E1, [0.0, 1.0]),
             (np.array([[0.9]]), [-1.0], [1.0]), (gas.m_bar, cost, project_state(gas, x0))]
    expected = [rce_infinite(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("rce_infinite reached an eigen-decomposition")

    for name in ("decompose", "real_jordan", "find_t0", "find_n0"):
        monkeypatch.setattr(infinite_horizon, name, forbidden)
    for name in ("real_jordan", "spectral_radius"):
        monkeypatch.setattr(matrix_core, name, forbidden)
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    assert [rce_infinite(*case) for case in cases] == expected
    assert expected[2] == RceInfResult("attained", 1, 1.0)


def test_rce_infinite_beyond_the_row_table():
    """|M^k|_inf < 1 first at k > 4,096: the rows past the table enter only the tail."""
    rng = np.random.default_rng(379)
    rho = 0.99999
    m = block_diag(*(rho * np.array([[math.cos(theta), -math.sin(theta)],
                                     [math.sin(theta), math.cos(theta)]])
                     for theta in rng.uniform(0.2, 1.3, 10)))
    assert np.abs(np.linalg.matrix_power(m, 4096)).sum(axis=1).max() >= 1.0
    x = rng.standard_normal(20)
    res = rce_infinite(m, x, x)
    # M^t = rho^t times a rotation, so |g(t)| <= rho^t |x|_2^2: scan until that bound
    best_t, best, state, t = None, -math.inf, x.copy(), 0
    while rho ** t * float(x @ x) > best:
        t += 1
        state = m @ state
        if x @ state > best:
            best_t, best = t, float(x @ state)
    assert (res.kind, res.t_star) == ("attained", best_t)
    assert res.value == pytest.approx(best, rel=1e-12)


def test_rce_infinite_certifies_a_bare_matrix_first():
    """Its own `< 1` test passed on this matrix and the scan never ended; the
    `stable_squares` certificate (|M^k|_inf <= 1/2) rejects it in milliseconds."""
    m = two_closed_classes_reduced()
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="spectral radius must be strictly below 1"):
        rce_infinite(m, rng.standard_normal(242), rng.standard_normal(242))


def test_rce_infinite_scans_with_given_squares():
    """Squares passed in, a bare matrix, and the old own-squaring scan agree bit for
    bit; in 13 of these 40 cases the block loop squares past the certificate's k."""
    rng = np.random.default_rng(383)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = random_stable(rng, n, rho_max=float(rng.choice([0.5, 0.9, 0.999])))
        c, x = rng.standard_normal(n), rng.standard_normal(n)
        expected = rce_infinite(m, c, x)
        assert rce_infinite(stable_squares(m), c, x) == expected
        assert (expected.kind, expected.t_star, expected.value) == rce_infinite_own_squares(m, c, x)


# --------------------------------------------------------- planar closed form ---

def planar_args(r, theta, alpha, d):
    kappa = math.hypot(math.log(r), theta)
    gamma = math.atan2(theta, math.log(r))
    return d, kappa, r, theta, alpha, gamma


def test_rce_infinite_2d_quarter_turn_fixture():
    res = rce_infinite_2d(*planar_args(0.5, math.pi / 2.0, 0.0, 1.0))
    assert (res.kind, res.t_star) == ("attained", 4)
    assert res.value == pytest.approx(0.0625, abs=1e-12)


def test_rce_infinite_2d_cross_checks_matrix_route():
    rng = np.random.default_rng(337)
    for _ in range(25):
        r = float(0.3 + 0.6 * rng.random())
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        m = r * rot
        x = np.array([math.cos(alpha), math.sin(alpha)])
        res_2d = rce_infinite_2d(*planar_args(r, theta, alpha, 1.0))
        direct = brute_values(m, E1, x, 2000)
        best = int(np.argmax(direct))
        assert res_2d.t_star == best + 1
        assert res_2d.value == pytest.approx(direct[best], abs=1e-9)


def test_rce_infinite_2d_validation():
    good = planar_args(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rce_infinite_2d(1.0, good[1], 0.5, -1.0, 0.0, good[5])
    with pytest.raises(ValueError):
        rce_infinite_2d(1.0, good[1], 1.5, 1.0, 0.0, good[5])
    with pytest.raises(ValueError):
        rce_infinite_2d(-1.0, good[1], 0.5, 1.0, 0.0, good[5])
    with pytest.raises(ValueError):
        # kappa/gamma inconsistent with (r, theta)
        rce_infinite_2d(1.0, good[1] * 2.0, 0.5, 1.0, 0.0, good[5])


# ------------------------------------------------- constructed hard cases ---

def test_adversarial_instance_k1_parameters():
    m, x, c = adversarial_instance(1)
    theta = 2.0 / 5.0
    np.testing.assert_allclose(
        m, 0.5 * np.array([[math.cos(theta), -math.sin(theta)],
                           [math.sin(theta), math.cos(theta)]]), atol=1e-15)
    alpha = 4.0 / 3.0
    np.testing.assert_allclose(x, [math.cos(alpha), math.sin(alpha)], atol=1e-15)
    np.testing.assert_array_equal(c, [1.0, 0.0])


def test_adversarial_instances_stay_negative_through_k():
    for k in range(1, 9):
        m, x, c = adversarial_instance(k)
        direct = brute_values(m, c, x, 9 * k)
        assert (direct[:k] < 0.0).all(), f"k={k} leaked a positive value early"
        assert direct[9 * k - 1] > 0.0
        first_pos = int(np.argmax(direct > 0.0)) + 1
        assert first_pos > k


def test_adversarial_instance_validation():
    with pytest.raises(ValueError):
        adversarial_instance(0)


def test_dircyc_matches_walk_counts():
    rng = np.random.default_rng(347)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        adj = (rng.random((n, n)) < 0.4).astype(float)
        m, x, c, threshold = dircyc_instance(adj)
        assert threshold == 0.0
        for t in range(1, 12):
            walks = np.linalg.matrix_power(adj, t)[0, n - 1]
            g_t = float(c @ (mat_pow(m, t) @ x))
            if walks > 0:
                assert g_t < threshold
            else:
                assert g_t >= threshold


def test_dircyc_rejects_nonbinary():
    with pytest.raises(ValueError):
        dircyc_instance(np.array([[0.0, 0.5], [1.0, 0.0]]))


# ---------------------------------------------------------- geometric drce ---

def test_geometric_drce_scalar_fixture():
    s = decompose(np.array([[0.5]]), [1.0], [1.0])
    rho_star, value, bound = geometric_drce(s, 0.5, 0.5, 1e-9)
    assert rho_star == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert value == pytest.approx(0.4, abs=1e-6)
    assert 0.0 <= bound <= 1e-9


def test_geometric_drce_zero_radius():
    s = decompose(DIAG, ONES, ONES)
    rho_star, value, _ = geometric_drce(s, 0.62, 0.0, 1e-9)
    assert rho_star == pytest.approx(0.62, abs=1e-12)
    ts = np.arange(1, 200)
    expected = sum(eval_g(s, int(t)) * (1 - 0.62) ** (t - 1) * 0.62 for t in ts)
    assert value == pytest.approx(expected, abs=1e-8)


def test_geometric_drce_matches_grid_search():
    rng = np.random.default_rng(353)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = random_stable(rng, n)
        s = decompose(m, rng.standard_normal(n), rng.standard_normal(n))
        if s.is_empty:
            continue
        rho_hat = float(rng.uniform(0.2, 0.8))
        xi = float(rng.uniform(0.0, 1.0))
        eps = 1e-9
        rho_star, value, _ = geometric_drce(s, rho_hat, xi, eps)
        lo = rho_hat / (1.0 + rho_hat * xi)
        hi = 1.0 if rho_hat * xi >= 1.0 else min(1.0, rho_hat / (1.0 - rho_hat * xi))
        assert lo - 1e-12 <= rho_star <= hi + 1e-12
        total = s.amplitude_total
        zeta = s.top_magnitude
        n0 = max(1, math.ceil(math.log(min(eps / total, 1.0)) / math.log(zeta)) + 1)
        ts = np.arange(1, n0 + 1)
        g = np.array([eval_g(s, int(t)) for t in ts])
        grid_best = -np.inf
        for rho in np.linspace(lo, hi, 10_000):
            grid_best = max(grid_best, float(np.sum(g * (1 - rho) ** (ts - 1) * rho)))
        assert value >= grid_best - 1e-6


def test_geometric_drce_validation():
    s = decompose(np.array([[0.5]]), [1.0], [1.0])
    with pytest.raises(ValueError):
        geometric_drce(s, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        geometric_drce(s, 1.5, 0.5, 1e-6)
    with pytest.raises(ValueError):
        geometric_drce(s, 0.5, -0.1, 1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            geometric_drce(s, 0.5, bad, 1e-6)
        with pytest.raises(ValueError, match="eps"):
            geometric_drce(s, 0.5, 0.5, bad)


def cycle_system(n, seed):
    """The reduced system (m_bar, cost, state) that `drce-geom` builds for a lazy-cycle chain."""
    m, c, x0 = lazy_cycle(np.random.default_rng(seed), n)
    gas = to_gas(MarkovChain.from_transition(m))
    cost, _ = transfer_cost(gas, c)
    return gas.m_bar, cost, project_state(gas, x0)


def truncated_grid_max(s, lo, hi, eps):
    """Largest truncated objective sum_{t<=n0} rho (1-rho)^(t-1) g(t) over 10,000
    rates in [lo, hi], with n0 the log bound at eps and g summed term by term."""
    total, zeta = s.amplitude_total, s.top_magnitude
    n0 = 1 if total <= 0.0 or zeta <= 0.0 else \
        max(1, math.ceil(math.log(min(eps / total, 1.0)) / math.log(zeta)) + 1)
    g = oscillatory_values(s, np.arange(1, n0 + 1, dtype=np.int64))
    rhos = np.unique(np.linspace(lo, hi, 10_000))
    acc, q = np.zeros(rhos.shape[0]), 1.0 - rhos
    for value in g[::-1]:                        # Horner in q = 1 - rho
        acc = acc * q + value
    return float((rhos * acc).max())


def assert_geometric_drce_is_the_maximum(s, system, rho_hat, xi, interior=False, eps=1e-9):
    """geometric_drce on the sum `s` of `system` = (M, c, x) against the truncated
    grid and against geometric_drce_exact on the same system."""
    rho_star, value, bound = geometric_drce(s, rho_hat, xi, eps)
    lo, hi = feasible_rates(rho_hat, xi)
    grid = truncated_grid_max(s, lo, hi, eps)
    scale = max(1.0, abs(grid))
    assert value >= grid - 1e-9 * scale, (rho_hat, xi, grid - value)
    assert lo <= rho_star <= hi
    if interior:
        assert lo < rho_star < hi
    if xi == 0.0:
        assert rho_star == rho_hat
    assert value == pytest.approx(geometric_drce_exact(*system, rho_hat, xi, eps)[1],
                                  abs=1e-12 * scale), (rho_hat, xi)
    assert bound == eps * (1.0 - rho_star) ** find_n0(s, eps)
    return rho_star, value


def test_geometric_drce_is_the_maximum_on_random_systems():
    rng = np.random.default_rng(359)
    for n in range(1, 13):
        system = random_stable(rng, n), rng.standard_normal(n), rng.standard_normal(n)
        s = decompose(*system)
        if s.is_empty:
            continue
        assert_geometric_drce_is_the_maximum(s, system, 0.3, 0.5)
        assert_geometric_drce_is_the_maximum(s, system, float(rng.uniform(0.05, 0.9)),
                                             float(rng.uniform(0.0, 2.0)))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_geometric_drce_is_the_maximum_on_lazy_cycles(n):
    system = cycle_system(n, 5 + n)
    s = decompose(*system)
    assert_geometric_drce_is_the_maximum(s, system, 0.02, 5.0)
    assert_geometric_drce_is_the_maximum(s, system, 0.02, 0.0)


def test_geometric_drce_finds_interior_maxima_where_a_search_cycles():
    """A fixed-step projected-gradient search never settles near these maxima:
    on the 64-state cycle it stops 3.0e-7 short (0.152903499)."""
    system = cycle_system(64, 69)
    rho_star, value = assert_geometric_drce_is_the_maximum(
        decompose(*system), system, 0.5, 0.2, interior=True)
    assert rho_star == pytest.approx(0.547155, abs=1e-6)
    assert value >= 0.1529038034
    system = np.diag([0.9, 0.2]), np.array([40.0, -121.6]), ONES
    assert_geometric_drce_is_the_maximum(decompose(*system), system, 0.3, 0.5, interior=True)


def test_geometric_drce_finds_interior_fixed_points():
    """Here a fixed-step projected-gradient search creeps to an interior point
    and stops; the closed form must reach the same interior maximum."""
    for scale in (5.0, 10.0):
        system = np.diag([0.9, 0.2]), np.array([scale, -3.04 * scale]), ONES
        assert_geometric_drce_is_the_maximum(decompose(*system), system, 0.3, 0.5, interior=True)


def test_geometric_drce_near_a_unit_eigenvalue():
    """lambda = 0.999: F(rho) = 0.999 rho / (1 - 0.999 (1 - rho)) rises to 0.999
    at rho = 1, which the closed form gives exactly."""
    s = decompose(np.array([[0.999]]), [1.0], [1.0])
    for rho_hat, xi in ((1e-4, 1e4), (0.5, 1e6)):
        assert geometric_drce(s, rho_hat, xi, 1e-9)[:2] == (1.0, 0.999)


# --------------------------------------------- geometric drce by the resolvent ---

def feasible_rates(rho_hat, xi):
    lo = rho_hat / (1.0 + rho_hat * xi)
    return lo, 1.0 if rho_hat * xi >= 1.0 else min(1.0, rho_hat / (1.0 - rho_hat * xi))


def assert_beats_grid(system, rho_hat, xi, chain=None, offset=0.0, eps=1e-9):
    """geometric_drce_exact on `system` = (M, c, x) against 4,001 rates of the
    plain recurrence on `chain` (default: the system itself). Returns the value,
    offset added, and the oracle's scale."""
    rho_star, value, tail = geometric_drce_exact(*system, rho_hat, xi, eps)
    value += offset
    lo, hi = feasible_rates(rho_hat, xi)
    grid = geometric_grid_oracle(*(chain or system), np.linspace(lo, hi, 4001))
    scale = max(1.0, float(np.abs(grid).max()))
    assert lo <= rho_star <= hi
    assert value >= grid.max() - 1e-12 * scale, (rho_hat, xi, value - grid.max())
    at_rho = geometric_grid_oracle(*(chain or system), [rho_star])[0]
    assert value == pytest.approx(at_rho, abs=1e-12 * scale)
    assert 0.0 <= tail <= eps * scale
    if lo == hi:
        assert (rho_star, tail) == (lo, 0.0)
    return value, scale


def test_geometric_drce_exact_scalar_fixture():
    # F(rho) = rho / (1 + rho) rises on [0.4, 2/3]
    rho_star, value, tail = geometric_drce_exact([[0.5]], [1.0], [1.0], 0.5, 0.5, 1e-9)
    assert rho_star == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(0.4, abs=1e-15)
    assert 0.0 <= tail <= 1e-9
    # F = 0 on all of [0.4, 2/3]: ties go to the smallest rate
    rho_star, value, _ = geometric_drce_exact([[0.5]], [0.0], [1.0], 0.5, 0.5, 1e-9)
    assert (rho_star, value) == (0.5 / 1.25, 0.0)


def test_geometric_drce_exact_beats_grid_and_search_on_random_systems():
    """xi = 0 (one rate), a random radius, and rho_hat * xi >= 1 (hi = 1), each at
    rho_hat in {0.02, 0.3, 0.5}; where decompose succeeds the paper's closed form
    (`geometric_drce`) agrees to 1e-9 of the oracle's scale."""
    rng = np.random.default_rng(367)
    compared = 0
    for i in range(54):
        n = int(rng.integers(1, 13))
        system = random_stable(rng, n), rng.standard_normal(n), rng.standard_normal(n)
        rho_hat = (0.02, 0.3, 0.5)[i % 3]
        xi = (0.0, float(rng.uniform(0.0, 2.0)), float(rng.uniform(1.0, 4.0)) / rho_hat)[i // 3 % 3]
        value, scale = assert_beats_grid(system, rho_hat, xi)
        try:
            s = decompose(*system)
        except RuntimeError:
            continue
        compared += 1
        assert value == pytest.approx(geometric_drce(s, rho_hat, xi, 1e-9)[1], abs=1e-9 * scale)
    assert compared >= 50


@pytest.mark.parametrize("n", [32, 64, 128])
def test_geometric_drce_exact_beats_grid_on_lazy_cycles(n):
    m, c, x0 = lazy_cycle(np.random.default_rng(5 + n), n)
    gas = to_gas(MarkovChain.from_transition(m))
    cost, offset = transfer_cost(gas, c)
    system = gas.m_bar, cost, project_state(gas, x0)
    s = decompose(*system)
    for rho_hat, xi in ((0.02, 5.0), (0.3, 0.0), (0.5, 2.0), (0.02, 60.0)):
        value, scale = assert_beats_grid(system, rho_hat, xi, (m, c, x0), offset)
        assert value >= geometric_drce(s, rho_hat, xi, 1e-9)[1] + offset - 1e-9 * scale


def test_geometric_drce_exact_finds_the_interior_maximum_the_search_misses():
    """On this chain a fixed-step projected-gradient search never settles and
    stops 3.0e-7 short (0.704345566994 at rho = 0.545667, with a truncation bound
    below 1e-9); the global maximizer finds the interior maximum."""
    m, c, x0 = lazy_cycle(np.random.default_rng(69), 64)
    gas = to_gas(MarkovChain.from_transition(m))
    cost, offset = transfer_cost(gas, c)
    system = gas.m_bar, cost, project_state(gas, x0)
    value, _ = assert_beats_grid(system, 0.5, 0.2, (m, c, x0), offset)
    rho_star, _, _ = geometric_drce_exact(*system, 0.5, 0.2, 1e-9)
    assert f"{value:.12g}" == "0.704345871393"
    assert rho_star == pytest.approx(0.547155, abs=1e-6)
    assert value - 0.704345566994 > 3e-7


def test_a_ball_below_the_rate_floor_is_not_called_empty():
    """A ball of rates wholly below 1e-12, the smallest rate supported, is
    refused by both solvers with a message naming rho_hat and the radius;
    a ball reaching the floor answers."""
    one = ([[0.5]], [1.0], [1.0])
    s = decompose(np.array(one[0]), one[1], one[2])
    for solve in (lambda rho_hat, xi: geometric_drce_exact(*one, rho_hat, xi, 1e-9),
                  lambda rho_hat, xi: geometric_drce(s, rho_hat, xi, 1e-9)):
        for rho_hat, xi in ((1e-13, 0.0), (1e-14, 1.0)):
            with pytest.raises(ValueError) as err:
                solve(rho_hat, xi)
            assert str(err.value) == (f"every rate within radius {xi!r} of rho_hat = "
                                      f"{rho_hat!r} lies below 1e-12, the smallest rate "
                                      "supported")
        assert solve(1e-11, 0.0)[0] == 1e-11
        assert solve(1e-13, 1e13)[0] >= 1e-12


def test_geometric_drce_exact_validation(monkeypatch):
    one = ([[0.5]], [1.0], [1.0])
    with pytest.raises(ValueError, match="eps"):
        geometric_drce_exact(*one, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="rho_hat"):
        geometric_drce_exact(*one, 1.5, 0.5, 1e-6)
    with pytest.raises(ValueError, match="radius"):
        geometric_drce_exact(*one, 0.5, -0.1, 1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            geometric_drce_exact(*one, 0.5, bad, 1e-6)
        with pytest.raises(ValueError, match="eps"):
            geometric_drce_exact(*one, 0.5, 0.5, bad)
    with pytest.raises(ValueError, match="rounding level"):
        geometric_drce_exact(*one, 0.5, 0.5, 1e-15)
    with pytest.raises(ValueError, match="dimension"):
        geometric_drce_exact([[0.5]], [1.0, 0.0], [1.0], 0.5, 0.5, 1e-6)
    # the 32-state cycle needs degree 32 on [0.25, 1]; with the cap at 16 it gives up
    m, c, x0 = lazy_cycle(np.random.default_rng(37), 32)
    gas = to_gas(MarkovChain.from_transition(m))
    cost, _ = transfer_cost(gas, c)
    system = gas.m_bar, cost, project_state(gas, x0)
    geometric_drce_exact(*system, 0.5, 2.0, 1e-9)
    monkeypatch.setattr(infinite_horizon, "_CHEB_MAX_DEGREE", 16)
    with pytest.raises(RuntimeError, match="Chebyshev tail .* at degree 16"):
        geometric_drce_exact(*system, 0.5, 2.0, 1e-9)


def count_direct_solves(monkeypatch):
    """A list that gains one entry per `np.linalg.solve` call while the patch holds."""
    calls, solve = [], np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def assert_resolvent_matches_direct_solves(system, rhos, monkeypatch):
    """The batched resolvent objective on `system` = (M, c, x) against one direct
    solve per rate, to 1e-12 of max(1, |F|). Returns its own direct solves."""
    m, c, x = system
    oracle = resolvent_direct_oracle(m, c, x, rhos)
    with monkeypatch.context() as patch:
        calls = count_direct_solves(patch)
        values = infinite_horizon._resolvent_objective(stable_squares(m), c, x)(rhos)
    assert np.all(np.abs(values - oracle) <= 1e-12 * np.maximum(1.0, np.abs(values))), \
        (np.abs(values - oracle) / np.maximum(1.0, np.abs(values))).max()
    return len(calls)


def test_resolvent_objective_matches_direct_solves_on_random_systems(monkeypatch):
    """240 random stable systems, 108 of them non-normal with transient growth
    |M^t|_inf up to ~1e5, each at the rate floor 1e-12, at rho = 1 and at 15
    random rates. With every column accepted, the block products were off by up
    to 1.2e-4 of max(1, |F|) here; the backward-error check sends those rates to
    the direct solve, which most rates never need."""
    rng = np.random.default_rng(401)
    solves, rates, growth = 0, 0, []
    for i in range(240):
        n = int(rng.integers(1, 13))
        if i % 2 or n == 1:
            m = random_stable(rng, n, rho_max=0.999)
        else:
            m = nonnormal_stable(rng, n, 10.0 ** rng.uniform(0.0, 5.0))
            growth.append(transient_growth(m))
        rhos = np.concatenate([[1e-12, 1.0], rng.uniform(0.0, 1.0, 15)])
        solves += assert_resolvent_matches_direct_solves(
            (m, rng.standard_normal(n), rng.standard_normal(n)), rhos, monkeypatch)
        rates += rhos.shape[0]
    assert 1e4 <= max(growth) <= 2e5
    assert solves <= rates // 4, (solves, rates)


def test_resolvent_objective_forms_the_squares_past_4096_again(monkeypatch):
    """The pure lazy 256-cycle (hold 1/2, no restarts) needs k = 2^15, so the
    certificate keeps M^4096 and M^k only: at the rate floor the product forms
    M^8192 and M^16384 again. Every rate answers with no direct solve."""
    n = 256
    walk = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=0)
    x0 = np.zeros(n)
    x0[0] = 1.0
    gas = to_gas(MarkovChain.from_transition(walk))
    cost, _ = transfer_cost(gas, np.random.default_rng(256).random(n))
    system = gas.m_bar, cost, project_state(gas, x0)
    assert gas.squares.k == 2 ** 15
    lo, hi = feasible_rates(0.02, 5.0)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(17) / 16)
    rhos = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0], nodes])
    assert assert_resolvent_matches_direct_solves(system, rhos, monkeypatch) == 0


def test_resolvent_objective_falls_back_to_the_direct_solve_bit_for_bit(monkeypatch):
    """With the backward-error tolerance set so that every column fails, each
    value is the direct solve's own: the oracle's bits, rate by rate."""
    rng = np.random.default_rng(409)
    systems = [cycle_system(32, 37), (nonnormal_stable(rng, 6, 1e4), rng.standard_normal(6),
                                      rng.standard_normal(6))]
    rhos = np.concatenate([[1e-12, 1.0], rng.uniform(0.0, 1.0, 15)])
    monkeypatch.setattr(infinite_horizon, "DEFAULT_TOLS",
                        infinite_horizon.DEFAULT_TOLS._replace(resolvent_backward_error=-1.0))
    for m, c, x in systems:
        oracle = resolvent_direct_oracle(m, c, x, rhos)
        with monkeypatch.context() as patch:
            calls = count_direct_solves(patch)
            values = infinite_horizon._resolvent_objective(stable_squares(m), c, x)(rhos)
        assert len(calls) == rhos.shape[0]
        assert np.array_equal(values, oracle)


def test_resolvent_objective_solves_an_overflowing_column_directly(monkeypatch):
    """|M|_inf = 1e148 and the values reach 1e248 here, so the check's own
    product M w overflows at every rate below 1: those columns fail the check,
    with no warning, and take the direct solve's bits. At rho = 1 the column is
    b itself."""
    m, c, x = np.array([[0.9, 1e148], [0.0, 0.9]]), ONES, np.array([1e100, 1e100])
    rhos = np.array([1e-12, 1e-3, 0.5, 1.0])
    oracle = resolvent_direct_oracle(m, c, x, rhos)
    calls = count_direct_solves(monkeypatch)
    values = infinite_horizon._resolvent_objective(stable_squares(m), c, x)(rhos)
    assert len(calls) == 3
    assert np.array_equal(values, oracle) and np.isfinite(values).all()


@pytest.mark.parametrize("n", [32, 64, 128])
def test_geometric_drce_exact_runs_no_direct_solve_on_lazy_cycles(n, monkeypatch):
    """Each Chebyshev node took one LU, 17 a call here; the squares answer them all."""
    system = cycle_system(n, 5 + n)
    calls = count_direct_solves(monkeypatch)
    geometric_drce_exact(*system, 0.02, 5.0, 1e-9)
    assert calls == []


def test_both_unbounded_solvers_take_a_matrix_or_its_squares():
    """rce_infinite and geometric_drce_exact certify a bare matrix, and answer on it
    exactly as on its `stable_squares`; the finite-horizon evaluator and both
    solvers refuse an ill-shaped system with `as_system`'s two messages."""
    with pytest.raises(ValueError, match="spectral radius must be strictly below 1"):
        geometric_drce_exact([[5.0]], [1.0], [1.0], 0.5, 0.5, 1e-9)
    rng = np.random.default_rng(389)
    systems = [(DIAG, ONES, ONES), (ROT90, E1, E1), (np.array([[0.9]]), [-1.0], [1.0]),
               (np.array([[0.5, 1.0], [0.0, 0.5]]), E1, [0.0, 1.0]), cycle_system(32, 37)]
    systems += [(random_stable(rng, n, rho_max=0.999), rng.standard_normal(n),
                 rng.standard_normal(n)) for n in (1, 4, 9)]
    for m, c, x in systems:
        squares = stable_squares(m)
        assert rce_infinite(squares, c, x) == rce_infinite(m, c, x)
        for rho_hat, xi in ((0.02, 5.0), (0.5, 0.2)):
            assert geometric_drce_exact(squares, c, x, rho_hat, xi, 1e-9) == \
                geometric_drce_exact(m, c, x, rho_hat, xi, 1e-9)
    solvers = (lambda m, c, x: cost_sequence_strided(m, x, c, 8), rce_infinite,
               lambda m, c, x: geometric_drce_exact(m, c, x, 0.5, 0.5, 1e-9))
    for solve in solvers:
        with pytest.raises(ValueError, match="^system matrix must be square$"):
            solve(np.full((2, 3), 0.1), [1.0, 1.0], [1.0, 1.0, 1.0])
        for c, x in (([1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0])):
            with pytest.raises(ValueError,
                               match="^dimension mismatch between matrix, state, and cost$"):
                solve(0.5 * np.eye(2), c, x)


def test_interior_maxima_match_the_colleague_matrix_roots():
    """Falling zeros of the derivative against numpy's colleague-matrix roots,
    on random series with decaying coefficients of degree 16 to 128."""
    rng = np.random.default_rng(373)
    for deg in (16, 16, 32, 64, 128):
        coef = rng.standard_normal(deg + 1) * 0.7 ** np.arange(deg + 1)
        d = np.polynomial.chebyshev.chebder(coef)
        roots = np.polynomial.chebyshev.chebroots(d)
        roots = np.sort(roots[(np.abs(roots.imag) < 1e-12) & (np.abs(roots.real) < 1.0)].real)
        falling = [r for r in roots
                   if np.polynomial.chebyshev.chebval(r, np.polynomial.chebyshev.chebder(d)) < 0.0]
        got = infinite_horizon._interior_maxima(coef, 1e-14)
        assert got == pytest.approx(falling, abs=1e-9), deg
