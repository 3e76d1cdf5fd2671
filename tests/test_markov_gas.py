import numpy as np
import pytest

from stopcost import markov_gas
from stopcost.markov_gas import (
    GasSystem,
    MarkovChain,
    build_ab,
    project_state,
    recover_state,
    stationary,
    to_gas,
    transfer_cost,
)
from stopcost.matrix_core import mat_pow, spectral_radius
from stopcost.scenarios import HealthParams, build_health_chain

from helpers import build_ab_loop, random_chain, stationary_eigvals_oracle

TWO_STATE = np.array([[0.8, 0.1], [0.2, 0.9]])


def test_build_ab_shapes_and_identity():
    for n in range(2, 9):
        a, b = build_ab(n)
        assert a.shape == (n - 1, n)
        assert b.shape == (n, n - 1)
        np.testing.assert_array_equal(a @ b, np.eye(n - 1))


def test_build_ab_structure():
    a, b = build_ab(4)
    np.testing.assert_array_equal(a, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]])
    np.testing.assert_array_equal(b, [[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]])


@pytest.mark.parametrize("n", [*range(2, 41), 64, 100, 101, 128, 200, 257, 300, 513])
def test_reduction_is_the_dense_product_bit_for_bit(n):
    # `_reduce` applies B as a difference of A M's adjacent columns, which is
    # the product with B: each entry of (A M) B has those two nonzero terms.
    # A M itself stays a BLAS product. A running sum of M's rows adds in
    # another order than the BLAS kernel and can round differently, which
    # would move m_bar and every answer reached from it.
    m = random_chain(np.random.default_rng(n), n)
    a_op, b_op = build_ab_loop(n)
    a, b = build_ab(n)
    assert np.array_equal(a, a_op) and np.array_equal(b, b_op)
    m_bar = to_gas(MarkovChain.from_transition(m)).m_bar
    assert np.array_equal(m_bar, a_op @ m @ b_op)


def test_build_ab_rejects_tiny():
    with pytest.raises(ValueError):
        build_ab(1)


def test_stationary_two_state():
    pi = stationary(TWO_STATE)
    np.testing.assert_allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)


def test_stationary_fixed_point_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        m = random_chain(rng, n)
        pi = stationary(m)
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(m @ pi, pi, atol=1e-9)


def test_stationary_rejects_reducible_chain():
    # two disconnected components carry two unit eigenvalues
    m = np.zeros((4, 4))
    m[:2, :2] = np.array([[0.5, 0.5], [0.5, 0.5]])
    m[2:, 2:] = np.array([[0.9, 0.3], [0.1, 0.7]])
    with pytest.raises(ValueError):
        stationary(m)


def _periodic_chain(rng, n, period):
    """Random chain whose states split into `period` classes visited in turn."""
    cls = np.arange(n) % period
    m = np.where(cls[:, None] == (cls[None, :] + 1) % period, rng.random((n, n)) + 0.05, 0.0)
    return m / m.sum(axis=0)


def _two_class_chain(rng, n, transient):
    """Two closed classes, plus `transient` states that drain into both."""
    m = np.zeros((n, n))
    h = (n - transient) // 2
    for lo, hi in ((0, h), (h, n - transient)):
        m[lo:hi, lo:hi] = random_chain(rng, hi - lo)
    m[:, n - transient:] = rng.random((n, transient)) + 0.05
    return m / m.sum(axis=0)


def _absorbing_chain(rng, n):
    """Lower-triangular chain: every state drifts to the absorbing last one."""
    m = np.tril(rng.random((n, n)) + 0.05)
    return m / m.sum(axis=0)


def _lazy_chain(n, gap):
    """Two lazy cycles of n/2 states each; every step moves mass gap/2 to the
    uniform law on the other cycle. The eigenvalues are 1, 1 - gap and
    (1 - gap/2) times the cycles' own, so 1 - gap is the second largest."""
    h = n // 2
    cycle = 0.5 * np.eye(h) + 0.5 * np.roll(np.eye(h), 1, axis=0) if h > 1 else np.eye(1)
    return (1.0 - gap / 2) * np.kron(np.eye(2), cycle) + \
        (gap / 2) * np.kron(np.ones((2, 2)) - np.eye(2), np.full((h, h), 1.0 / h))


def _stationary_oracle_cases():
    rng = np.random.default_rng(41)
    cases = [("one-state", np.ones((1, 1)))]
    cases += [("ergodic", random_chain(rng, int(n))) for n in rng.integers(2, 40, 12)]
    cases += [("reducible", _two_class_chain(rng, int(n), int(t)))
              for n, t in zip(rng.integers(4, 40, 8), rng.integers(0, 3, 8))]
    cases += [("reducible", np.eye(2)), ("reducible", _two_class_chain(rng, 243, 0))]
    cases += [("periodic", _periodic_chain(rng, int(d * k), d))
              for d in (2, 3, 4) for k in (1, 3, 17)]
    cases += [("periodic", _periodic_chain(rng, 243, 3))]
    cases += [("absorbing", _absorbing_chain(rng, int(n))) for n in (2, 5, 30)]
    cases += [("absorbing", build_health_chain(HealthParams(model=model, population=pop))[0])
              for model, pop in (("sir", 1), ("sir", 3), ("sir", 5), ("svir", 2))]
    cases += [("lazy", _lazy_chain(n, gap)) for n in (2, 16, 64) for gap in (1e-3, 1e-6, 1e-8)]
    return cases


def test_stationary_certificate_matches_eigenvalue_count():
    """Accept exactly the chains with one eigenvalue of modulus >= 1 - 1e-9,
    and return pi bit for bit as the eigenvalue-count version did, and within
    1e-13 relative of the same iteration on a scipy LU factorization."""
    verdicts = {}
    for family, m in _stationary_oracle_cases():
        accepted = int(np.sum(np.abs(np.linalg.eigvals(m)) >= 1.0 - 1e-9)) == 1
        verdicts.setdefault(family, set()).add(accepted)
        if accepted:
            pi = stationary(m)
            assert np.array_equal(pi, stationary_eigvals_oracle(m)), family
            np.testing.assert_allclose(pi, stationary_eigvals_oracle(m, scipy_lu=True),
                                       rtol=1e-13, atol=0, err_msg=family)
        else:
            with pytest.raises(ValueError, match="multiple unit-magnitude eigenvalues"):
                stationary(m)
    assert verdicts == {"one-state": {True}, "ergodic": {True}, "reducible": {False},
                        "periodic": {False}, "absorbing": {True}, "lazy": {True}}


def test_from_transition_validates():
    bad = TWO_STATE.copy()
    bad[0, 0] = 0.5          # column sum 0.7
    with pytest.raises(ValueError):
        MarkovChain.from_transition(bad)
    with pytest.raises(ValueError):
        MarkovChain.from_transition(np.array([[1.2, 0.0], [-0.2, 1.0]]))


def test_from_transition_validates_once(monkeypatch):
    calls = []
    validate = markov_gas._validate_transition

    def counting(*args):
        calls.append(args)
        return validate(*args)
    monkeypatch.setattr(markov_gas, "_validate_transition", counting)
    m = random_chain(np.random.default_rng(12), 9)
    chain = MarkovChain.from_transition(m)
    assert len(calls) == 1
    pi = stationary(m)                  # the public function validates its own input
    assert len(calls) == 2
    assert np.array_equal(chain.stationary, pi)


def test_two_state_shifted_matrix():
    gas = to_gas(MarkovChain.from_transition(TWO_STATE))
    np.testing.assert_allclose(gas.m_bar, [[0.7]], atol=1e-12)
    np.testing.assert_allclose(gas.stationary, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)


def test_shifted_power_identity():
    """The shifted matrix powers like the chain: m_bar^t = A M^t B."""
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        m = random_chain(rng, n)
        gas = to_gas(MarkovChain.from_transition(m))
        a_op, b_op = build_ab(n)
        for t in (1, 2, 5, 10, 50):
            lhs = mat_pow(gas.m_bar, t)
            rhs = a_op @ mat_pow(m, t) @ b_op
            assert np.abs(lhs - rhs).max() <= 1e-8


def test_shifted_system_is_stable():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        gas = to_gas(MarkovChain.from_transition(random_chain(rng, n)))
        assert spectral_radius(gas.m_bar) < 1.0


def test_trajectory_mirroring():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = random_chain(rng, n)
        gas = to_gas(MarkovChain.from_transition(m))
        x = rng.random(n)
        x /= x.sum()
        v = project_state(gas, x)
        for _ in range(25):
            x = m @ x
            v = gas.m_bar @ v
            np.testing.assert_allclose(v, project_state(gas, x), atol=1e-10)


def test_project_recover_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        gas = to_gas(MarkovChain.from_transition(random_chain(rng, n)))
        x = rng.random(n)
        x /= x.sum()
        np.testing.assert_allclose(recover_state(gas, project_state(gas, x)), x,
                                   atol=1e-10)


def test_project_requires_distribution():
    gas = to_gas(MarkovChain.from_transition(TWO_STATE))
    with pytest.raises(ValueError):
        project_state(gas, np.array([0.2, 0.2]))


def test_cost_transfer_identity():
    """<c, x> decomposes into the shifted pairing plus a constant offset."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = random_chain(rng, n)
        gas = to_gas(MarkovChain.from_transition(m))
        c = rng.standard_normal(n)
        shifted_c, offset = transfer_cost(gas, c)
        x = rng.random(n)
        x /= x.sum()
        for _ in range(5):
            assert c @ x == pytest.approx(shifted_c @ project_state(gas, x) + offset,
                                          abs=1e-10)
            x = m @ x


def test_cost_offset_is_stationary_cost():
    gas = to_gas(MarkovChain.from_transition(TWO_STATE))
    c = np.array([2.0, -1.0])
    _, offset = transfer_cost(gas, c)
    assert offset == pytest.approx(c @ gas.stationary, abs=1e-12)


def test_gas_system_dimension_validation():
    a_op, b_op = build_ab(3)
    with pytest.raises(ValueError):
        GasSystem(np.eye(3) * 0.5, a_op, b_op, np.array([0.5, 0.5, 0.0]))
