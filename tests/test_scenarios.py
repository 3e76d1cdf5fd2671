import time
import tracemalloc

import numpy as np
import pytest

from stopcost import scenarios
from stopcost.finite_horizon import cost_sequence_naive, cost_sequence_strided
from stopcost.matrix_core import mat_pow
from stopcost.scenarios import (
    ComparisonReport,
    CsocParams,
    HealthParams,
    build_csoc_overtime,
    build_health_chain,
    compare_report,
    health_person,
    person_chain,
    sample_horizons,
)

from helpers import (
    PCG_MULT,
    csoc_backlog_matmul_steps,
    cumulative_columns_loop,
    overtime_death_chain_loop,
    pcg_start_states,
    regular_shift_matrix_loop,
    rollout_costs_oracle,
)


# ------------------------------------------------------------- parameters ---

def test_csoc_params_per_step_probabilities():
    p = CsocParams()
    assert p.arrival_prob == pytest.approx(35.0 * 30.0 / 3600.0)
    assert p.service_prob == pytest.approx(34.0 * 30.0 / 3600.0)


def test_csoc_params_validation():
    with pytest.raises(ValueError):
        CsocParams(arrival_rate=0.0)
    with pytest.raises(ValueError):
        CsocParams(overtime_min=10, overtime_mean=5)
    with pytest.raises(ValueError):
        CsocParams(arrival_rate=120.0)      # one event per step on average
    with pytest.raises(ValueError):
        CsocParams(queue_cap=0)


def test_health_params_validation():
    with pytest.raises(ValueError):
        HealthParams(model="seir")
    with pytest.raises(ValueError):
        HealthParams(horizon_mean=20)
    with pytest.raises(ValueError):
        HealthParams(init=(0.5, 0.4))       # does not sum to one


# ------------------------------------------------------------ queue model ---

def test_csoc_overtime_chain_structure():
    p = CsocParams(queue_cap=12)
    m, x0, c = build_csoc_overtime(p)
    u = p.queue_cap
    assert m.shape == (u + 1, u + 1)
    np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_array_equal(m[:, 0], np.eye(u + 1)[:, 0])
    s = p.service_prob
    for k in range(1, u + 1):
        col = m[:, k]
        assert col[k - 1] == pytest.approx(s)
        assert col[k] == pytest.approx(1.0 - s)
        assert np.count_nonzero(col) == 2


def test_csoc_overtime_cost_ramp():
    p = CsocParams(queue_cap=10)
    _, _, c = build_csoc_overtime(p)
    assert c[0] == 0.0
    assert c[1] == pytest.approx(0.5)
    assert c[-1] == pytest.approx(1.0)
    assert (np.diff(c[1:]) > 0).all()


def test_csoc_initial_backlog_is_shift_end_distribution():
    p = CsocParams()
    _, x0, _ = build_csoc_overtime(p)
    assert x0.min() >= 0.0
    assert x0.sum() == pytest.approx(1.0, abs=1e-9)
    mean_backlog = float(np.arange(x0.size) @ x0)
    # slight overload for a full shift leaves a clearly nonempty queue
    assert 5.0 < mean_backlog < 40.0


@pytest.mark.parametrize("queue_cap", [1, 10, 100])
def test_csoc_initial_backlog_is_the_shift_power(queue_cap):
    """x0 is stepped by a power of the in-shift chain; it equals the first column
    of that chain's shift_steps-th power up to rounding and stays a law."""
    for steps in (1, 2, 3, 15, 16, 17, 255, 960, 1000):
        p = CsocParams(queue_cap=queue_cap, shift_steps=steps)
        _, x0, _ = build_csoc_overtime(p)
        want = mat_pow(scenarios._regular_shift_matrix(p), steps)[:, 0]
        np.testing.assert_allclose(x0, want, rtol=0, atol=1e-14, err_msg=str(steps))
        assert x0.min() >= 0.0, steps
        assert abs(x0.sum() - 1.0) <= 1e-12, steps


@pytest.mark.parametrize("queue_cap", [1, 10, 100])
def test_csoc_backlog_steps_in_place_equal_the_matmul_steps(queue_cap):
    for steps in (1, 2, 3, 15, 16, 17, 255, 960, 1000):
        _, x0, _ = build_csoc_overtime(CsocParams(queue_cap=queue_cap, shift_steps=steps))
        want = csoc_backlog_matmul_steps(CsocParams(queue_cap=queue_cap, shift_steps=steps))
        assert np.array_equal(x0, want), steps


# (arrival_rate, service_rate) per hour at 30 s steps: the defaults, per-step
# probabilities near 1e-8, and near 1 (the rates stay below 120 steps an hour)
_CSOC_RATES = [(35.0, 34.0), (1.2e-6, 3.6e-6), (119.99, 119.9)]


@pytest.mark.parametrize("rates", _CSOC_RATES)
@pytest.mark.parametrize("queue_cap", [1, 2, 3, 12, 100, 400])
def test_csoc_chains_built_as_arrays_equal_the_per_state_loops(queue_cap, rates):
    p = CsocParams(arrival_rate=rates[0], service_rate=rates[1], queue_cap=queue_cap)
    assert np.array_equal(scenarios._regular_shift_matrix(p), regular_shift_matrix_loop(p))
    m, _, _ = build_csoc_overtime(p)
    assert np.array_equal(m, overtime_death_chain_loop(p))


def test_csoc_overtime_cost_decays():
    p = CsocParams(queue_cap=30)
    m, x0, c = build_csoc_overtime(p)
    state = x0.copy()
    prev = float("inf")
    for _ in range(60):
        state = m @ state
        g = float(c @ state)
        assert g <= prev + 1e-12
        prev = g


# ----------------------------------------------------------- health model ---

def test_person_chain_sir_matrix():
    m, init, i_idx = person_chain("sir")
    expected = np.array([[0.2, 0.0, 0.1],
                         [0.8, 0.5, 0.0],
                         [0.0, 0.5, 0.9]])
    np.testing.assert_allclose(m, expected)
    np.testing.assert_array_equal(init, [1.0, 0.0, 0.0])
    assert i_idx == 1
    m[0, 0] = 99.0                      # caller-side edits must not stick
    np.testing.assert_allclose(person_chain("sir")[0], expected)


def test_person_chain_svir_matrix():
    m, init, i_idx = person_chain("svir")
    expected = np.array([[0.1, 0.1, 0.0, 0.1],
                         [0.1, 0.9, 0.0, 0.0],
                         [0.8, 0.0, 0.5, 0.0],
                         [0.0, 0.0, 0.5, 0.9]])
    np.testing.assert_allclose(m, expected)
    np.testing.assert_array_equal(init, [0.4, 0.6, 0.0, 0.0])
    assert i_idx == 2
    np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)


def test_build_health_chain_dimensions_and_cost():
    p = HealthParams(model="sir", population=3)
    m, x0, c = build_health_chain(p)
    assert m.shape == (27, 27)
    assert x0.sum() == pytest.approx(1.0)
    assert c.min() == 0.0 and c.max() == 3.0
    # state index 1*9 + 1*3 + 1 = 13 has every person infected
    assert c[13] == 3.0


def test_expected_infections_match_single_person_chain():
    """Linearity: joint expected infected equals population times the
    per-person infection probability, for both models."""
    for model in ("sir", "svir"):
        p = HealthParams(model=model, population=4)
        m, x0, c = build_health_chain(p)
        person, init, i_idx = person_chain(model)
        for t in range(1, 16):
            joint = float(c @ (mat_pow(m, t) @ x0))
            single = float(mat_pow(person, t)[i_idx] @ init)
            assert joint == pytest.approx(4.0 * single, abs=1e-9)


def test_health_person_is_one_factor_of_the_joint_chain():
    for model, init in (("sir", None), ("svir", (0.25, 0.25, 0.25, 0.25))):
        p = HealthParams(model=model, population=1, init=init)
        person, x0, c = health_person(p)
        m1, x1, c1 = build_health_chain(p)
        assert np.array_equal(person, m1) and np.array_equal(x0, x1)
        assert np.array_equal(c, c1)
        assert c.sum() == 1.0 and c[person_chain(model)[2]] == 1.0
    with pytest.raises(ValueError):
        health_person(HealthParams(model="sir", init=(0.25, 0.25, 0.25, 0.25)))


def test_build_health_chain_custom_init():
    p = HealthParams(model="sir", population=2, init=(0.0, 1.0, 0.0))
    _, x0, c = build_health_chain(p)
    assert x0[4] == pytest.approx(1.0)    # both persons infected
    assert c[4] == 2.0
    with pytest.raises(ValueError):
        build_health_chain(HealthParams(model="svir", population=2,
                                        init=(0.5, 0.5, 0.0)))


# --------------------------------------------------------------- sampling ---

def test_sample_horizons_reproducible_and_bounded():
    a = sample_horizons(1, 15, 8, 300, 99)
    b = sample_horizons(1, 15, 8, 300, 99)
    assert a == b
    assert min(a) >= 1 and max(a) <= 15
    assert abs(np.mean(a) - 8.0) < 1.0


def test_sample_horizons_degenerate():
    assert sample_horizons(5, 5, 5, 10, 0) == [5] * 10


def test_sample_horizons_validation():
    with pytest.raises(ValueError):
        sample_horizons(10, 5, 7, 4, 0)
    with pytest.raises(ValueError, match="samples"):
        sample_horizons(1, 10, 5, 0, 0)
    with pytest.raises(ValueError, match="seed"):
        sample_horizons(1, 10, 5, 4, -1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got 1.5"):
        sample_horizons(1, 10, 5, 4, 1.5)
    assert sample_horizons(1, 10, 5, 4, True) == sample_horizons(1, 10, 5, 4, 1)
    # floats were truncated: (1.9, 15.5, 8.2, 4.7) drew as (1, 15, 8, 4)
    for i, name in enumerate(("lo", "hi", "mean", "samples")):
        args = [1, 15, 8, 4]
        args[i] = (1.9, 15.5, 8.2, 4.7)[i]
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {args[i]}"):
            sample_horizons(*args, 0)
    assert sample_horizons(*np.array([1, 15, 8, 4]), np.int64(0)) == sample_horizons(1, 15, 8, 4, 0)


# --------------------------------------------------------- compare_report ---

def test_compare_report_zero_radius_point_mass():
    m = np.eye(2)
    x0 = np.array([0.0, 1.0])
    c = np.array([0.0, 1.0])
    rep = compare_report(m, x0, c, [3, 3, 3, 3], 0.0, seed=5)
    assert rep.t_hat == 3
    assert rep.empirical_cost == pytest.approx(1.0)
    assert rep.drce_cost == pytest.approx(1.0, abs=1e-9)
    assert rep.pct_exceed_empirical == 0.0
    assert rep.pct_exceed_drce == 0.0


def test_compare_report_copies_scale_deterministic_costs():
    m = np.eye(2)
    x0 = np.array([0.0, 1.0])
    c = np.array([0.0, 1.0])
    one = compare_report(m, x0, c, [2, 4], 0.0, seed=5, copies=1)
    two = compare_report(m, x0, c, [2, 4], 0.0, seed=5, copies=2)
    assert two.empirical_cost == pytest.approx(2.0 * one.empirical_cost)
    assert two.drce_cost == pytest.approx(2.0 * one.drce_cost, abs=1e-9)


def test_compare_report_radius_monotone_and_dominates_plugin_mean():
    m, x0, c = build_health_chain(HealthParams(model="sir", population=3))
    samples = sample_horizons(1, 15, 8, 120, 11)
    reports = [compare_report(m, x0, c, samples, xi, seed=11, support_max=15)
               for xi in (0.0, 0.5, 1.0, 2.0)]
    values = [r.drce_cost for r in reports]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    # radius zero equals the empirical-mixture cost; larger radii dominate it
    p_hat = np.bincount(samples, minlength=16)[1:] / len(samples)
    g = np.array([float(c @ (mat_pow(m, t) @ x0)) for t in range(1, 16)])
    base = float(p_hat @ g)
    assert reports[0].drce_cost == pytest.approx(base, abs=1e-8)
    for r in reports[1:]:
        assert r.drce_cost >= base - 1e-9


def test_compare_report_exceedance_ordering():
    m, x0, c = build_health_chain(HealthParams(model="sir", population=3))
    samples = sample_horizons(1, 15, 8, 200, 23)
    rep = compare_report(m, x0, c, samples, 0.5, seed=23, support_max=15)
    assert rep.drce_cost >= rep.empirical_cost - 1e-9
    assert rep.pct_exceed_drce <= rep.pct_exceed_empirical + 1e-12


def test_compare_report_deterministic_under_seed():
    m, x0, c = build_health_chain(HealthParams(model="sir", population=2))
    samples = [4, 8, 8, 12]
    a = compare_report(m, x0, c, samples, 0.25, seed=77, support_max=15)
    b = compare_report(m, x0, c, samples, 0.25, seed=77, support_max=15)
    assert a == b
    # the deterministic estimates do not depend on the rollout seed
    other = compare_report(m, x0, c, samples, 0.25, seed=78, support_max=15)
    assert other.empirical_cost == a.empirical_cost
    assert other.drce_cost == a.drce_cost


def test_compare_report_validation():
    m = np.eye(2)
    x0 = np.array([0.5, 0.5])
    c = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        compare_report(m, x0, c, [], 0.1, seed=0)
    with pytest.raises(ValueError):
        compare_report(m, x0, c, [0, 2], 0.1, seed=0)
    with pytest.raises(ValueError):
        compare_report(m, x0, c, [2], 0.1, seed=0, support_max=1)
    with pytest.raises(ValueError):
        compare_report(m, x0, c, [2], 0.1, seed=0, copies=0)
    with pytest.raises(ValueError, match="population"):
        compare_report(m, x0, c, [2], 0.1, seed=0, population=0)
    with pytest.raises(ValueError, match="seed"):
        compare_report(m, x0, c, [2], 0.1, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got 1.5"):
        compare_report(m, x0, c, [2], 0.1, seed=1.5)
    assert compare_report(m, x0, c, [2], 0.1, seed=True) == \
        compare_report(m, x0, c, [2], 0.1, seed=1)
    with pytest.raises(ValueError, match="samples must be integers, got 2.7"):
        compare_report(m, x0, c, [2.7, 3.9], 0.1, seed=0)
    with pytest.raises(ValueError, match="samples must be integers, got 3.0"):
        compare_report(m, x0, c, [2, 3.0], 0.1, seed=0)
    with pytest.raises(ValueError, match="support_max must be an integer, got 4.9"):
        compare_report(m, x0, c, [2, 3], 0.1, seed=0, support_max=4.9)
    with pytest.raises(ValueError, match="support_max must be an integer, got 4.0"):
        compare_report(m, x0, c, [2, 3], 0.1, seed=0, support_max=4.0)
    assert compare_report(m, x0, c, np.array([2, 3]), 0.1, seed=0, support_max=np.int64(4)) == \
        compare_report(m, x0, c, [2, 3], 0.1, seed=0, support_max=4)
    with pytest.raises(ValueError, match="columns must sum to 1 within"):
        compare_report(np.ones((2, 2)), x0, c, [2], 0.1, seed=0)
    with pytest.raises(ValueError, match="transition matrix has negative entries"):
        compare_report(np.array([[1.1, 0.0], [-0.1, 1.0]]), x0, c, [2], 0.1, seed=0)
    with pytest.raises(ValueError, match="transition matrix must be square"):
        compare_report(np.ones((2, 3)) / 2, x0, c, [2], 0.1, seed=0)
    with pytest.raises(ValueError):
        compare_report(m, np.array([0.9, 0.9]), c, [2], 0.1, seed=0)


def test_compare_report_checks_the_matrix_as_stationary_does():
    # an entry of -1e-13 is noise that the transition check clamps to 0, so
    # the report equals the clean chain's, plug-in cost included
    clean = np.array([[0.5, 0.0], [0.5, 1.0]])
    noisy = clean.copy()
    noisy[0, 1] = -1e-13
    x0 = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    samples = [1, 2, 3, 3, 4]
    assert compare_report(noisy, x0, c, samples, 0.5, seed=0) == \
        compare_report(clean, x0, c, samples, 0.5, seed=0)


def test_compare_report_checks_copies_and_population_first(monkeypatch):
    m = np.array([[0.5, 0.0], [0.5, 1.0]])
    x0 = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    base = compare_report(m, x0, c, [2, 3], 0.5, seed=0, copies=2, population=3)
    # bools and numpy integers count
    assert compare_report(m, x0, c, [2, 3], 0.5, seed=0, copies=np.int64(2),
                          population=np.uint8(3)) == base
    assert compare_report(m, x0, c, [2, 3], 0.5, seed=0, copies=True, population=True) == \
        compare_report(m, x0, c, [2, 3], 0.5, seed=0)

    def no_work(*args):
        raise AssertionError("the cost sequence ran before the arguments were checked")

    monkeypatch.setattr(scenarios, "cost_sequence_strided", no_work)
    for name, value in (("copies", 1.5), ("population", 2.0), ("copies", "2")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            compare_report(m, x0, c, [2, 3], 0.5, seed=0, **{name: value})


# ------------------------------------------------- batched rollout draws ---

def _tied_chain():
    """Six states with zero entries, so cumulative columns repeat values."""
    m = np.array([
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.25],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.25],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.5],
    ])
    x0 = np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
    return m, x0, np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])


def _rollout_case(name, seed):
    """(m, x0, c, samples, copies, support_max) for one bit-identity case."""
    if name == "csoc":
        p = CsocParams()
        m, x0, c = build_csoc_overtime(p)
        samples = sample_horizons(p.overtime_min, p.overtime_max, p.overtime_mean, 150, seed)
        return m, x0, c, samples, p.analysts, p.overtime_max
    if name in ("sir", "svir"):
        m, x0, c = build_health_chain(HealthParams(model=name))
        return m, x0, c, sample_horizons(1, 15, 8, 200, seed), 1, 15
    rng = np.random.default_rng(seed)
    samples = [1, 12] + [int(t) for t in rng.integers(1, 13, size=60)] + [12, 1]
    if name == "tied":
        m, x0, c = _tied_chain()
        return m, x0, c, samples, 3, None
    # "short": columns sum to 1 - 1e-12, so a draw past cum[-1] takes the clamp
    m, x0, c = _tied_chain()
    return m * (1.0 - 1e-12), x0, c, samples, 2, None


@pytest.mark.parametrize("name,seed", [
    ("csoc", 0), ("csoc", 1), ("csoc", 2),
    ("sir", 3), ("sir", 4), ("sir", 5),
    ("svir", 6), ("svir", 7), ("svir", 8),
    ("tied", 9), ("tied", 10), ("tied", 11),
    ("short", 12), ("short", 13), ("short", 14),
])
def test_compare_report_rollouts_match_scalar_oracle(name, seed):
    m, x0, c, samples, copies, support_max = _rollout_case(name, seed)
    rep = compare_report(m, x0, c, samples, 2.0, seed, copies=copies,
                         support_max=support_max)
    costs = rollout_costs_oracle(m, x0, c, samples, seed, copies)
    assert rep.pct_exceed_empirical == 100.0 * float(np.mean(costs > rep.empirical_cost))
    assert rep.pct_exceed_drce == 100.0 * float(np.mean(costs > rep.drce_cost))


@pytest.mark.parametrize("block_draws", [1, 100, scenarios._ROLLOUT_BLOCK_DRAWS])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 17])
def test_rollout_costs_bit_identical_with_clamps_and_blocks(n, block_draws, monkeypatch):
    # Substochastic columns and x0 send many draws past the last cumulative
    # value, onto the clamp to state n - 1; zeroed entries make ties.
    rng = np.random.default_rng(1000 + n)
    m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    m = 0.7 * m / np.maximum(m.sum(axis=0), 1e-300)
    x0 = rng.random(n) * (rng.random(n) < 0.7)
    x0 = 0.8 * x0 / max(x0.sum(), 1e-300)
    c = rng.standard_normal(n)
    samples = [1, 9] + [int(t) for t in rng.integers(1, 10, size=40)]
    monkeypatch.setattr(scenarios, "_ROLLOUT_BLOCK_DRAWS", block_draws)
    for copies in (1, 3):
        got = scenarios._rollout_costs(m, x0, c, samples, copies, n, 1)
        want = rollout_costs_oracle(m, x0, c, samples, n, copies)
        assert np.array_equal(got, want)


def test_rollout_tables_equal_the_row_loop(monkeypatch):
    # np.cumsum adds the rows in the loop's order, so both tables that
    # _rollout_costs builds are the loop's bit for bit
    csoc, csoc_x0, csoc_c = build_csoc_overtime(CsocParams())
    svir, svir_x0, svir_c = build_health_chain(HealthParams(model="svir"))
    # entries just below zero pass validation and must be clipped to zero
    tied, tied_x0, tied_c = _tied_chain()
    tied[tied == 0.0] = -0.5e-12
    tied_x0[tied_x0 == 0.0] = -0.5e-12
    cases = [(csoc, csoc_x0, csoc_c), (svir, svir_x0, svir_c), (tied, tied_x0, tied_c)]
    cases += [health_person(HealthParams(model=name)) for name in ("sir", "svir")]
    assert [a.shape[0] for a, _, _ in cases] == [101, 1024, 6, 3, 4]
    built, band_table = [], scenarios._band_table

    def record(cum, *args):
        built.append(cum)
        return band_table(cum, *args)
    monkeypatch.setattr(scenarios, "_band_table", record)
    for a, x0, c in cases:
        built.clear()
        scenarios._rollout_costs(a, x0, c, [1], 1, 0, 1)
        step, start = built
        assert np.array_equal(step, cumulative_columns_loop(a))
        assert np.array_equal(start, cumulative_columns_loop(x0.reshape(-1, 1)))


def _table_steps(cum, state, u):
    """The states `_decode` steps to on the band table of cum, as column
    indices: row d of `state` is person d's column, and u the draws."""
    table = scenarios._band_table(cum, state.shape[0] > 1)
    at = state * table.slots
    scenarios._decode(table, at, u)
    return at // table.slots


def test_next_states_matches_searchsorted_on_exact_ties():
    # Seeded draws almost never equal a cumulative value, so ties with the
    # draw itself are set up here directly.
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 100):
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        cum = np.cumsum(0.9 * m / np.maximum(m.sum(axis=0), 1e-300), axis=0)
        state = rng.integers(0, n, size=400)
        u = np.where(rng.random(400) < 0.5,
                     cum[rng.integers(0, n, size=400), state], rng.random(400))
        u[:4] = (0.0, 0.95, 1.0 - 2.0 ** -53, cum[-1, state[3]])
        want = [min(int(np.searchsorted(cum[:, s], v, side="right")), n - 1)
                for s, v in zip(state, u)]
        assert _table_steps(cum, state[None], u)[0].tolist() == want


# Seeds at the boundaries of their uint32 word count, which sets how
# SeedSequence pads the entropy (below four words) or mixes the words past the
# fourth into its pool before the spawn key, and so the hash constant that the
# spawn key's round starts from (up to ten words here).
_WORD_BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96,
                        2**128 - 1, 2**128, 2**160 + 7, 2**256 - 1, 2**256,
                        2**288 + 7]


@pytest.mark.parametrize("seed", _WORD_BOUNDARY_SEEDS)
def test_draw_streams_equal_numpy_seeded_generators(seed, monkeypatch):
    built = []      # np.random.Generator constructions
    monkeypatch.setattr(np.random, "Generator",
                        lambda *args, _make=np.random.Generator: built.append(1) or _make(*args))
    keys = np.random.default_rng(seed % 1000).permutation(601)   # blocks draw in any key order
    short, chunk = 32, scenarios._SHORT_CHUNK_CELLS     # the 32-draw rule
    mixed = [int(key) % short + 1 for key in keys[1:]]
    blocks = [                      # widths; a stream > 32 draws needs the generator
        [int(key) % 300 + 1 for key in keys],
        [short] + mixed,
        [short + 1] + mixed,
        # more draws than one chunk, in chunks of different widths
        [short] * (chunk // short + 7) + [3] * 300,
    ]
    for widths in blocks:
        block_keys = keys[:len(widths)]
        u = np.empty(sum(widths))
        built.clear()
        scenarios._draw_streams(seed, block_keys, widths, u)
        assert len(built) == (max(widths) > short)   # one per block, and only if needed
        first = 0
        for key, width in zip(block_keys.tolist(), widths):
            want = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(key,)))).random(width)
            assert np.array_equal(u[first:first + width], want), f"key {key}, width {width}"
            first += width


@pytest.mark.parametrize("seed", _WORD_BOUNDARY_SEEDS[::4])
def test_short_streams_equal_numpy_generators_across_chunk_edges(seed, monkeypatch):
    """A block of short streams is one flat run of (stream, jump) cells,
    drawn _SHORT_CHUNK_CELLS at a time without a generator: each stream
    equals numpy's wherever the chunk edges fall."""
    make = np.random.Generator

    def refuse(*_):
        raise AssertionError("np.random.Generator built for short streams")
    monkeypatch.setattr(np.random, "Generator", refuse)
    assert (scenarios._SHORT_STREAM_DRAWS, scenarios._SHORT_CHUNK_CELLS) == (32, 8192)
    blocks = [
        [31] * 300,             # the edge at 8,192 falls inside stream 264
        [32] * 256,             # exactly one chunk
        [32] * 256 + [1],       # one chunk, then a 1-draw stream alone in the next
        [1] * 300,              # every stream one draw
        [16] * 8192,            # the largest sir block: 16 chunks
    ]
    for widths in blocks:
        keys = np.random.default_rng(len(widths)).permutation(len(widths))
        u = np.empty(sum(widths))
        scenarios._draw_streams(seed, keys, widths, u)
        first = 0
        for key, width in zip(keys.tolist(), widths):
            want = make(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(key,)))).random(width)
            assert np.array_equal(u[first:first + width], want), f"key {key}, width {width}"
            first += width


def _carry_rows():
    """Word rows (w0, w1, w2, w3) whose start state takes each carry of the
    uint64 word arithmetic: every row of 0 and 2**64 - 1, rows where
    a_lo = inc_lo + w1 wraps, and rows where a_lo M_lo + inc_lo wraps."""
    top = 2**64 - 1
    rows = [[top if bit >> k & 1 else 0 for k in range(4)] for bit in range(16)]
    rng = np.random.default_rng(3)
    inv_m_lo = pow(PCG_MULT & top, -1, 2**64)
    wraps_a, wraps_lo = [[0, top, 0, 2**63]], []     # inc_lo = 1, a_lo = 0
    for _ in range(64):
        w0, w2, w3 = (int(v) for v in rng.integers(0, 2**64, size=3, dtype=np.uint64))
        inc_lo = (w3 << 1 | 1) & top
        wraps_a.append([w0, 2**64 - inc_lo + int(rng.integers(0, 2**20)), w2, w3])
        # a_lo with a_lo M_lo = 2**64 - 1 - k mod 2**64 for some k < inc_lo
        a_lo = (top - int(rng.integers(0, min(inc_lo, 2**32)))) * inv_m_lo % 2**64
        wraps_lo.append([w0, (a_lo - inc_lo) % 2**64, w2, w3])
    for w0, w1, w2, w3 in wraps_a:
        assert (w3 << 1 | 1) % 2**64 + w1 >= 2**64
    for w0, w1, w2, w3 in wraps_lo:
        inc_lo = (w3 << 1 | 1) % 2**64
        assert (inc_lo + w1) % 2**64 * (PCG_MULT & top) % 2**64 + inc_lo >= 2**64
    return np.array(rows + wraps_a + wraps_lo, dtype=np.uint64)


def test_bulk_start_states_equal_python_integer_seeding():
    """Jump 0 of `_pcg_states` over `_seed_words` is numpy's seeded PCG64
    state, and `_seed_words`' increment its inc, on rows that take every
    carry and on the words of every boundary seed."""
    blocks = [_carry_rows()] + [scenarios._stream_words(seed, np.arange(50))
                                for seed in _WORD_BOUNDARY_SEEDS]
    for words in blocks:
        a_hi, a_lo, inc_hi, inc_lo = scenarios._seed_words(words)
        hi, lo = scenarios._pcg_states(a_hi, a_lo, inc_hi, inc_lo, slice(0, 1))
        got = [(h << 64 | l_, ih << 64 | il) for h, l_, ih, il in
               zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())]
        assert got == pcg_start_states(words)


def _band_tables(rng):
    """(name, n x stride cumulative table) cases for the band search."""
    tables = []
    for n in (1, 2, 3, 5, 8, 17, 101):
        rows, cols = np.indices((n, n))
        for w in (0, 1, 3):             # column s supported on rows s - w .. s + w
            m = rng.random((n, n)) * (np.abs(rows - cols) <= w)
            tables.append((f"banded n={n} w={w}", np.cumsum(m / m.sum(axis=0), axis=0)))
        # ragged supports with zero rows inside, totals at or below 1, and
        # (for n > 1) an all-zero column
        m = np.zeros((n, n))
        for s in range(n):
            a, b = np.sort(rng.integers(0, n, size=2))
            m[a:b + 1, s] = rng.random(b - a + 1) * (rng.random(b - a + 1) < 0.6)
            m[[a, b], s] = rng.random(2) + 0.1
            m[:, s] *= rng.choice([1.0, 1.0 - 1e-12, 0.7]) / m[:, s].sum()
        if n > 1:
            m[:, n // 2] = 0.0
        tables.append((f"ragged n={n}", np.cumsum(m, axis=0)))
        for stride in (1, n + 3):       # x0's one-column table; a wider table
            m = rng.random((n, stride)) * (rng.random((n, stride)) < 0.5)
            tables.append((f"stride n={n} stride={stride}",
                           np.cumsum(0.9 * m / np.maximum(m.sum(axis=0), 1e-300), axis=0)))
    return tables


def test_next_states_band_search_matches_searchsorted():
    rng = np.random.default_rng(2024)
    for name, cum in _band_tables(rng):
        n, stride = cum.shape
        state = rng.integers(0, stride, size=600)
        u = rng.random(600)
        u[:200] = cum[rng.integers(0, n, size=200), state[:200]]     # ties with entries
        u[200:210] = cum[-1, state[200:210]]                         # ties with the total
        u[210:216] = (0.0, 1.0, 1.0 - 2.0 ** -53, 0.0, 1.0, 0.5)     # u = 1: _decode's width-0 rule
        want = [min(int(np.searchsorted(cum[:, s], v, side="right")), n - 1)
                for s, v in zip(state, u)]
        assert _table_steps(cum, state[None], u)[0].tolist() == want, name


def _scalar_decode(cum, state, u):
    """Each walker's persons in turn: j = min(searchsorted(F, u, side="right"),
    n - 1) on the person's column F, then u -> (u - F(j-1)) / (F(j) - F(j-1)),
    or 1 where that width is 0."""
    n = cum.shape[0]
    out = state.copy()
    for w, v in enumerate(u.tolist()):
        for d in range(state.shape[0]):
            col = cum[:, state[d, w]]
            j = min(int(np.searchsorted(col, v, side="right")), n - 1)
            below = float(col[j - 1]) if j > 0 else 0.0
            width = float(col[j]) - below
            v = (v - below) / width if width > 0 else 1.0
            out[d, w] = j
    return out


def test_decode_ties_with_the_total_match_a_scalar_decode():
    # A draw tied with the total of person 0's column takes the clamp, and
    # its rescale carries on to the later persons.
    rng = np.random.default_rng(2025)
    for name, cum in _band_tables(rng):
        n, stride = cum.shape
        if stride != n:
            continue
        state = rng.integers(0, n, size=(3, 200))
        u = rng.random(200)
        u[:100] = cum[-1, state[0, :100]]
        got = _table_steps(cum, state, u)
        assert np.array_equal(got, _scalar_decode(cum, state, u)), name


def test_csoc_overtime_band_is_one_row_wide():
    # each overtime column holds two states, so its band is one row wide: the
    # table has slot 0, that row and the clamp, and a step takes two halvings
    m, _, _ = build_csoc_overtime(CsocParams())
    table = scenarios._band_table(np.cumsum(m, axis=0), False)
    assert table.slots == 3
    assert [half for half, _ in table.levels] == [1, 1]


def test_rollouts_build_no_generator_per_sample(monkeypatch):
    p = CsocParams()
    m, x0, c = build_csoc_overtime(p)
    built = {}
    for name in ("SeedSequence", "PCG64", "Generator"):
        def counted(*args, _make=getattr(np.random, name), _name=name, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            return _make(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counted)
    counts = {}
    for k in (10, 500, 1000):       # one rollout block, one, and two
        samples = sample_horizons(p.overtime_min, p.overtime_max, p.overtime_mean, k, 0)
        built.clear()
        compare_report(m, x0, c, samples, 4.0, 0, copies=p.analysts,
                       support_max=p.overtime_max)
        counts[k] = dict(built)
    once = {"SeedSequence": 1, "PCG64": 1, "Generator": 1}
    assert counts == {10: once, 500: once, 1000: {name: 2 for name in once}}, counts
    # every sir stream has at most 16 draws, so its one block builds a
    # SeedSequence for the seed's pool and no generator
    person, init, c_person = health_person(HealthParams(model="sir"))
    built.clear()
    compare_report(person, init, c_person, sample_horizons(1, 15, 8, 500, 0), 4.0, 0,
                   population=5)
    assert built == {"SeedSequence": 1}


def test_compare_report_rollout_memory_is_blocked():
    p = CsocParams()
    m, x0, c = build_csoc_overtime(p)
    samples = sample_horizons(p.overtime_min, p.overtime_max, p.overtime_mean, 20_000, 0)
    tracemalloc.start()
    try:
        compare_report(m, x0, c, samples, 4.0, 0, copies=p.analysts,
                       support_max=p.overtime_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # drawn all at once, the uniforms alone would take 19.8 MB (2 copies x
    # (t + 1) doubles per sample); unblocked, the traced peak is 23.9 MB
    assert peak < 16e6, f"peak traced memory {peak / 1e6:.1f} MB"


# ------------------------------------------------ per-person population ---

# A zero entry in the initial law makes an empty block at the start draw.
_POPULATION_INITS = {
    "sir": (None, (1 / 3, 1 / 3, 1 / 3), (0.5, 0.0, 0.5)),
    "svir": (None, (0.25, 0.25, 0.25, 0.25), (0.3, 0.0, 0.7, 0.0)),
}


@pytest.mark.parametrize("init_case", [0, 1, 2], ids=["default", "uniform", "zero-entry"])
@pytest.mark.parametrize("population", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model", ["sir", "svir"])
def test_population_rollouts_equal_dense_kronecker_chain(model, population, init_case):
    p = HealthParams(model=model, population=population,
                     init=_POPULATION_INITS[model][init_case])
    person, init, c = health_person(p)
    m, x0, joint_c = build_health_chain(p)
    for seed in range(5):
        samples = sample_horizons(1, 15, 8, 60, seed) + [1, 15]
        copies = 1 + seed % 2
        got = scenarios._rollout_costs(person, init, c, samples, copies, seed, population)
        want = rollout_costs_oracle(m, x0, joint_c, samples, seed, copies)
        assert np.array_equal(got, want), f"seed {seed}"


@pytest.mark.parametrize("k,population", [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_decode_picks_the_dense_kronecker_state(k, population):
    # Persons hold different states here, so the digit order is observable:
    # person 0 must be the most significant digit, as in np.kron.
    rng = np.random.default_rng(10 * k + population)
    m = rng.random((k, k))
    zero = rng.random((k, k)) < 0.4
    zero[[0, -1]] = False                       # every column keeps two states
    m[zero] = 0.0
    m /= m.sum(axis=0)
    joint = m
    for _ in range(population - 1):
        joint = np.kron(joint, m)
    dense = np.cumsum(joint, axis=0)
    state = rng.integers(0, k, size=(population, 400))   # stepped in place
    u = rng.random(400)
    u[:3] = (0.0, 1.0 - 2.0 ** -53, 0.5)
    place = k ** np.arange(population - 1, -1, -1)
    want = [min(int(np.searchsorted(dense[:, s], v, side="right")), k ** population - 1)
            for s, v in zip(place @ state, u)]
    assert (place @ _table_steps(np.cumsum(m, axis=0), state, u)).tolist() == want


def test_decode_clamps_every_person_past_a_short_column():
    # Columns sum to 1 - 1e-12 and the last state is unreachable, so a draw
    # above the sum is clamped into an empty block; the dense table sends it
    # to the last joint state, and so must every later person.
    m = np.array([[0.5, 0.3, 0.2], [0.5, 0.7, 0.8], [0.0, 0.0, 0.0]]) * (1.0 - 1e-12)
    state = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    u = np.full(3, 1.0 - 2.0 ** -53)
    assert np.array_equal(_table_steps(np.cumsum(m, axis=0), state, u), np.full((3, 3), 2))


def test_decode_clamps_every_person_after_a_rescaled_one():
    # Every entry is a short binary fraction, so the sums are exact. Column 0
    # totals 0.75 and the others exactly 1.0. A draw of 0.75 from state 0 ties
    # its total: person 0 clamps into the block [0.5, 0.75) of state 2, which
    # rescales the draw to exactly 1.0. That ties each later column's total,
    # so every later person clamps too, and the dense Kronecker table also
    # sends the draw to its last state.
    m = np.array([[0.25, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
    later = np.array(np.meshgrid(range(3), range(3), range(3))).reshape(3, -1)
    state = np.vstack([np.zeros((1, later.shape[1]), dtype=int), later])
    u = np.full(state.shape[1], 0.75)
    dense = np.cumsum(np.kron(np.kron(np.kron(m, m), m), m), axis=0)
    place = 3 ** np.arange(3, -1, -1)
    want = [min(int(np.searchsorted(dense[:, s], v, side="right")), 3 ** 4 - 1)
            for s, v in zip(place @ state, u)]
    assert want == [3 ** 4 - 1] * state.shape[1]
    assert (place @ _table_steps(np.cumsum(m, axis=0), state, u)).tolist() == want


@pytest.mark.parametrize("population", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model", ["sir", "svir"])
def test_population_report_equals_dense_report(model, population, monkeypatch):
    p = HealthParams(model=model, population=population)
    m, x0, joint_c = build_health_chain(p)
    dense_g = cost_sequence_naive(m, x0, joint_c, 15).values
    seen = []

    def record(seq, ball):
        seen.append(seq.values.copy())
        return original(seq, ball)
    original = scenarios.drce_finite
    monkeypatch.setattr(scenarios, "drce_finite", record)
    for seed in range(3):
        samples = sample_horizons(1, 15, 8, 200, seed)
        for xi in (0.0, 4.0):
            got = compare_report(*health_person(p), samples, xi, seed,
                                 population=population, support_max=15)
            g = seen.pop()
            want = compare_report(m, x0, joint_c, samples, xi, seed, support_max=15)
            seen.pop()
            assert np.abs(g - dense_g).max() <= 1e-14
            assert got.pct_exceed_empirical == want.pct_exceed_empirical
            assert got.pct_exceed_drce == want.pct_exceed_drce
            assert got.t_hat == want.t_hat
            assert got.empirical_cost == pytest.approx(want.empirical_cost, abs=1e-14)
            assert got.drce_cost == pytest.approx(want.drce_cost, abs=1e-12)


def test_population_report_needs_no_joint_chain(monkeypatch):
    # The dense svir chain at N = 7 would hold 16384**2 doubles, 2 GiB.
    def no_kron(*_):
        raise AssertionError("np.kron called")
    monkeypatch.setattr(np, "kron", no_kron)
    population = 7
    person, init, c = health_person(HealthParams(model="svir", population=population))
    samples = sample_horizons(1, 15, 8, 2000, 3)
    start = time.perf_counter()
    rep = compare_report(person, init, c, samples, 4.0, 3, population=population,
                         support_max=15)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert 0.0 < rep.empirical_cost < population
    g = cost_sequence_strided(person, init, c, 15).values * population
    costs = scenarios._rollout_costs(person, init, c, samples, 1, 3, population)
    expected = float(np.mean(g[np.asarray(samples) - 1]))
    stderr = float(costs.std(ddof=1)) / np.sqrt(len(samples))
    assert abs(float(costs.mean()) - expected) <= 5.0 * stderr


def test_comparison_report_csv_round_trip():
    rep = ComparisonReport(1.25, 1.5, 42.0, 17.5, 8, 0.5, 123)
    fields = rep.csv_row().split(",")
    assert len(fields) == len(ComparisonReport.CSV_HEADER.split(","))
    assert float(fields[0]) == 1.25
    assert int(fields[4]) == 8
    assert int(fields[6]) == 123
    assert "robust" in rep.summary()
    with pytest.raises(ValueError):
        ComparisonReport(1.0, 1.0, 120.0, 0.0, 1, 0.0, 0)
