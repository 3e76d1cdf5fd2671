import math
import tracemalloc

import numpy as np
import pytest

from stopcost import finite_horizon
from stopcost.finite_horizon import (
    CostSequence,
    cost_sequence_naive,
    cost_sequence_strided,
    rce_finite,
)

from stopcost.matrix_core import mat_pow
from stopcost.scenarios import HealthParams, build_health_chain, compare_report, sample_horizons

from helpers import random_stable, recur_matmul_steps, strided_matmul_steps


def test_scalar_geometric_sequence():
    m = np.array([[0.5]])
    seq = cost_sequence_naive(m, [1.0], [1.0], 6)
    np.testing.assert_allclose(seq.values, 0.5 ** np.arange(1, 7), rtol=1e-14)
    t_star, value = rce_finite(seq)
    assert (t_star, value) == (1, 0.5)


def test_naive_known_two_by_two():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    seq = cost_sequence_naive(m, [0.0, 1.0], [1.0, 0.0], 3)
    np.testing.assert_array_equal(seq.values, [1.0, 0.0, 0.0])


def test_strided_matches_naive_exhaustive_small_horizons():
    # every horizon through 30 exercises the square boundary and the tail
    rng = np.random.default_rng(101)
    m = random_stable(rng, 5)
    x0 = rng.standard_normal(5)
    c = rng.standard_normal(5)
    for horizon in range(1, 31):
        a = cost_sequence_naive(m, x0, c, horizon)
        b = cost_sequence_strided(m, x0, c, horizon)
        assert a.horizon == b.horizon == horizon
        np.testing.assert_allclose(b.values, a.values, atol=1e-11)


def test_strided_matches_naive_random():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        horizon = int(rng.integers(1, 220))
        m = random_stable(rng, n, rho_max=0.95)
        x0 = rng.standard_normal(n)
        c = rng.standard_normal(n)
        naive = cost_sequence_naive(m, x0, c, horizon)
        strided = cost_sequence_strided(m, x0, c, horizon)
        scale = max(1.0, np.abs(naive.values).max())
        assert np.abs(strided.values - naive.values).max() <= 1e-9 * scale


def test_strided_perfect_square_horizon():
    rng = np.random.default_rng(107)
    m = random_stable(rng, 4)
    x0, c = rng.standard_normal(4), rng.standard_normal(4)
    for horizon in (16, 25, 36, 49):
        np.testing.assert_allclose(
            cost_sequence_strided(m, x0, c, horizon).values,
            cost_sequence_naive(m, x0, c, horizon).values, atol=1e-11)


def _strided_read_by_modulus(m, x0, c, horizon):
    """The square-root stride evaluator with its table read entry by entry,
    g(t) = table[t % B, t // B] for t <= B^2, in the same float operations."""
    big_stride = math.isqrt(horizon)
    n = m.shape[0]
    m_big = mat_pow(m, big_stride)
    fwd = np.empty((big_stride + 1, n))
    fwd[0] = x0
    for i in range(1, big_stride + 1):
        fwd[i] = m_big @ fwd[i - 1]
    bwd = np.empty((big_stride, n))
    bwd[0] = c
    at = m.T
    for j in range(1, big_stride):
        bwd[j] = at @ bwd[j - 1]
    table = bwd @ fwd.T
    square = big_stride * big_stride
    ts = np.arange(1, square + 1)
    out = np.empty(horizon)
    out[:square] = table[ts % big_stride, ts // big_stride]
    v = fwd[big_stride]
    for t in range(square, horizon):
        v = m @ v
        out[t] = c @ v
    return out


def test_strided_table_read_equals_modular_indexing():
    rng = np.random.default_rng(109)
    m = random_stable(rng, 6)
    x0, c = rng.standard_normal(6), rng.standard_normal(6)
    for horizon in [*range(4, 200), 999, 1000, 1024, 4096, 100_000]:
        got = cost_sequence_strided(m, x0, c, horizon).values
        # below horizon n the evaluator is the recurrence
        want = cost_sequence_naive(m, x0, c, horizon).values if horizon < 6 else \
            _strided_read_by_modulus(m, x0, c, horizon)
        assert np.array_equal(got, want), horizon
    # a 3-state system keeps the B = 2 table read (horizons 4-8) on the stride path
    m3 = random_stable(rng, 3)
    x3, c3 = rng.standard_normal(3), rng.standard_normal(3)
    for horizon in range(4, 40):
        got = cost_sequence_strided(m3, x3, c3, horizon).values
        assert np.array_equal(got, _strided_read_by_modulus(m3, x3, c3, horizon)), horizon


def test_strided_holds_two_horizon_length_arrays():
    """At T = 10^6 the evaluator holds the B x (B + 1) table and one buffer
    that becomes the values: ~2 x 8T traced bytes at its peak, where a
    transposed copy of the table on top would make it ~3 x 8T, and a T-byte
    finiteness mask while the table is alive ~2.13 x 8T."""
    rng = np.random.default_rng(127)
    m = random_stable(rng, 3)
    x0, c = rng.standard_normal(3), rng.standard_normal(3)
    horizon = 10 ** 6
    tracemalloc.start()
    try:
        values = cost_sequence_strided(m, x0, c, horizon).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.07 * 8 * horizon, peak
    assert np.array_equal(values, _strided_read_by_modulus(m, x0, c, horizon))


def test_strided_takes_the_recurrence_exactly_below_max_4_n(monkeypatch):
    calls = []

    def counting_pow(m, k):
        calls.append(k)
        return mat_pow(m, k)

    monkeypatch.setattr(finite_horizon, "mat_pow", counting_pow)
    rng = np.random.default_rng(113)
    m = random_stable(rng, 40)
    x0, c = rng.standard_normal(40), rng.standard_normal(40)
    for horizon in (20, 39):
        got = cost_sequence_strided(m, x0, c, horizon).values
        assert calls == [], horizon
        assert np.array_equal(got, cost_sequence_naive(m, x0, c, horizon).values), horizon
    for horizon in (40, 41, 200):
        calls.clear()
        cost_sequence_strided(m, x0, c, horizon)
        assert calls, horizon
    # the dense 243-state sir population chain at the packaged horizon 15
    calls.clear()
    chain, init, cost = build_health_chain(HealthParams("sir", 5))
    compare_report(chain, init, cost, sample_horizons(1, 15, 8, 20, 0), 1.0, seed=0,
                   support_max=15)
    assert calls == []


def test_rce_picks_earliest_maximum():
    seq = CostSequence(4, np.array([0.3, 0.9, 0.9, 0.1]))
    t_star, value = rce_finite(seq)
    assert t_star == 2
    assert value == 0.9


def test_rce_on_oscillating_sequence():
    # damped rotation peaks on the fourth step (first full turn)
    m = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
    seq = cost_sequence_naive(m, [1.0, 0.0], [1.0, 0.0], 8)
    t_star, value = rce_finite(seq)
    assert t_star == 4
    assert value == pytest.approx(0.0625, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        cost_sequence_naive(np.eye(2), [1.0, 0.0], [1.0, 0.0], 0)
    with pytest.raises(ValueError):
        cost_sequence_naive(np.eye(2), [1.0], [1.0, 0.0], 3)
    with pytest.raises(ValueError):
        cost_sequence_strided(np.ones((2, 3)), [1.0, 0.0], [1.0, 0.0], 3)
    with pytest.raises(ValueError):
        CostSequence(3, np.zeros(2))


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "+inf", "-inf", "+inf-inf"])
def test_cost_sequence_rejects_non_finite_values(bad):
    values = np.zeros(10)
    values[3:3 + len(bad)] = bad
    with pytest.raises(ValueError, match="non-finite"):
        CostSequence(10, values)


def test_cost_sequence_accepts_finite_values_whose_sum_overflows():
    values = np.full(4, 1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(values.sum())
    assert np.array_equal(CostSequence(4, values).values, np.full(4, 1e308))


def _layouts(rng, n):
    """(name, M, x0, c): C- and F-ordered matrices, a strided view of one, and
    x0 and c as strided and reversed views."""
    big = random_stable(rng, 2 * n)
    m = np.ascontiguousarray(big[:n, :n])
    vec = rng.standard_normal(3 * n)
    x0, c = vec[:n].copy(), vec[n:2 * n].copy()
    return [("C", m, x0, c), ("F", np.asfortranarray(m), x0, c),
            ("strided matrix", big[::2, ::2], x0, c),
            ("strided vectors", m, vec[::3], vec[1::3]),
            ("reversed vectors", np.asfortranarray(m), vec[:n][::-1], vec[n:2 * n][::-1])]


def test_in_place_steps_equal_the_matmul_steps():
    """Each step is written in place; the values are those of the `@` steps
    that allocated a vector each, bit for bit, on every operand layout."""
    rng = np.random.default_rng(131)
    for n in (1, 3, 6, 40):
        for name, m, x0, c in _layouts(rng, n):
            for horizon in sorted({4, 5, max(n - 1, 1), n, 49, 50, 1024, 1025}):
                want = recur_matmul_steps(m, x0, c, min(horizon, 200))
                got = cost_sequence_naive(m, x0, c, min(horizon, 200)).values
                assert np.array_equal(got, want), (n, name, horizon)
                got = cost_sequence_strided(m, x0, c, horizon).values
                assert np.array_equal(got, strided_matmul_steps(m, x0, c, horizon)), \
                    (n, name, horizon)


def test_cost_sequence_values_read_only():
    seq = cost_sequence_strided(np.array([[0.5]]), [1.0], [1.0], 5)
    with pytest.raises(ValueError):
        seq.values[0] = 99.0
