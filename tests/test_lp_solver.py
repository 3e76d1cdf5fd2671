import numpy as np
import pytest
from scipy.optimize import linprog

from stopcost.lp_solver import LinearProgram, lp_solve


def test_simple_box():
    lp = LinearProgram.maximize(
        np.array([1.0, 1.0]),
        ineq=(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0])))
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(5.0, abs=1e-9)
    np.testing.assert_allclose(sol.point, [2.0, 3.0], atol=1e-9)


def test_equality_simplex_corner():
    # max 2x + y on the probability simplex: all mass on x
    lp = LinearProgram.maximize(
        np.array([2.0, 1.0, 0.0]),
        eq=(np.ones((1, 3)), np.array([1.0])))
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.point, [1.0, 0.0, 0.0], atol=1e-9)


def test_free_variable_goes_negative():
    # max -x with x free and x >= -4 (written as -x <= 4)
    lp = LinearProgram.maximize(
        np.array([-1.0]),
        ineq=(np.array([[-1.0]]), np.array([4.0])),
        nonneg=np.array([False]))
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.point[0] == pytest.approx(-4.0, abs=1e-9)
    assert sol.value == pytest.approx(4.0, abs=1e-9)


def test_unbounded_detection():
    lp = LinearProgram.maximize(np.array([1.0]))
    assert lp_solve(lp).status == "unbounded"


def test_infeasible_detection():
    # x >= 0 with x <= -1
    lp = LinearProgram.maximize(
        np.array([1.0]), ineq=(np.array([[1.0]]), np.array([-1.0])))
    assert lp_solve(lp).status == "infeasible"


def test_negative_rhs_row_flip():
    # -x <= -2 means x >= 2; maximize -x so the optimum sits at the bound
    lp = LinearProgram.maximize(
        np.array([-1.0]), ineq=(np.array([[-1.0]]), np.array([-2.0])))
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.point[0] == pytest.approx(2.0, abs=1e-9)


def test_degenerate_constraints_terminate():
    # duplicated rows make the program degenerate; the solve must still finish
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0])
    lp = LinearProgram.maximize(np.array([1.0, 2.0]), ineq=(a, b))
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_redundant_equalities():
    eq = (np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))
    lp = LinearProgram.maximize(np.array([3.0, 1.0]), eq=eq)
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(3.0, abs=1e-9)


def test_random_inequality_lps_match_scipy():
    """The mapping onto linprog (sign, bounds, statuses) on generic feasible programs."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        b = rng.random(m) + 0.1            # origin is feasible
        c = rng.standard_normal(n)
        ours = lp_solve(LinearProgram.maximize(c, ineq=(a, b)))
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        if ours.status == "unbounded":
            assert ref.status == 3
            continue
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7)
        checked += 1
    assert checked >= 30


def test_random_equality_lps_match_scipy():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n))
        a = rng.standard_normal((m, n))
        x_feas = rng.random(n)
        b = a @ x_feas                      # guaranteed feasible
        c = rng.standard_normal(n)
        ub = (np.eye(n), np.full(n, 10.0))  # box keeps the value finite
        ours = lp_solve(LinearProgram.maximize(c, ineq=ub, eq=(a, b)))
        ref = linprog(-c, A_ub=ub[0], b_ub=ub[1], A_eq=a, b_eq=b,
                      bounds=[(0, None)] * n, method="highs")
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7)


def test_random_free_variable_lps_match_scipy():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n + 1, n))
        b = rng.random(n + 1) + 0.5
        c = rng.standard_normal(n)
        free = rng.random(n) < 0.5
        ours = lp_solve(LinearProgram.maximize(c, ineq=(a, b), nonneg=~free))
        bounds = [(None, None) if f else (0, None) for f in free]
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if ours.status == "unbounded":
            assert ref.status == 3
            continue
        assert ours.status == "optimal" and ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7)


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram.maximize(np.array([1.0]), ineq=(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError):
        LinearProgram.maximize(np.array([1.0, 2.0]), eq=(np.eye(2), np.ones(3)))
