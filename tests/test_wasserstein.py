import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from stopcost.finite_horizon import CostSequence, cost_sequence_naive
from stopcost.wasserstein import (
    AmbiguitySet,
    GroundDistance,
    _drce_lp,
    drce_finite,
    drce_with_initial_uncertainty,
    unit_ball_vertices,
    w1_distance,
    w_norm,
)
from stopcost.config import DEFAULT_TOLS

from helpers import (
    explicit_ball_max_oracle,
    explicit_w1_oracle,
    random_distribution,
    w1_ball_max_oracle,
)


def cdf_norm(mu):
    """Independent oracle for the line metric: sum of |partial sums|."""
    return float(np.abs(np.cumsum(mu)[:-1]).sum())


def balanced(rng, t):
    v = rng.standard_normal(t)
    return v - v.mean()


# ---------------------------------------------------------------- w_norm ---

def test_w_norm_single_support_pair():
    mu = np.array([1.0, -1.0])
    assert w_norm(mu) == pytest.approx(1.0, abs=1e-9)
    mu = np.array([1.0, 0.0, -1.0])
    assert w_norm(mu) == pytest.approx(2.0, abs=1e-9)


def test_w_norm_requires_balance():
    with pytest.raises(ValueError):
        w_norm(np.array([0.5, 0.0]))


def test_w_norm_t1_is_zero():
    assert w_norm(np.array([0.0])) == 0.0


def test_w_norm_matches_cdf_oracle():
    rng = np.random.default_rng(211)
    for _ in range(40):
        t = int(rng.integers(2, 12))
        mu = balanced(rng, t)
        assert w_norm(mu) == pytest.approx(cdf_norm(mu), abs=1e-8)


def test_w_norm_axioms():
    rng = np.random.default_rng(223)
    for _ in range(25):
        t = int(rng.integers(2, 9))
        mu, nu = balanced(rng, t), balanced(rng, t)
        a = float(rng.standard_normal())
        # absolute homogeneity and subadditivity
        assert w_norm(a * mu) == pytest.approx(abs(a) * w_norm(mu), abs=1e-7)
        assert w_norm(mu + nu) <= w_norm(mu) + w_norm(nu) + 1e-7
        assert w_norm(mu) >= -1e-12


def test_explicit_line_metric_matches_cdf_oracle():
    # the explicit-metric LP path, given the line metric as a matrix
    rng = np.random.default_rng(212)
    for _ in range(10):
        t = int(rng.integers(2, 8))
        idx = np.arange(t, dtype=float)
        line = GroundDistance.explicit(np.abs(idx[:, None] - idx[None, :]))
        mu = balanced(rng, t)
        assert w_norm(mu, line) == pytest.approx(cdf_norm(mu), abs=1e-9)
        p, q = random_distribution(rng, t), random_distribution(rng, t)
        assert w1_distance(p, q, line) == pytest.approx(cdf_norm(p - q), abs=1e-9)


def test_w1_between_point_masses():
    for t in (3, 6):
        for i in range(t):
            for j in range(t):
                p = np.zeros(t)
                q = np.zeros(t)
                p[i] = 1.0
                q[j] = 1.0
                assert w1_distance(p, q) == pytest.approx(abs(i - j), abs=1e-9)


def test_w1_metric_properties():
    rng = np.random.default_rng(227)
    for _ in range(15):
        t = int(rng.integers(2, 9))
        p, q, r = (random_distribution(rng, t) for _ in range(3))
        dpq = w1_distance(p, q)
        assert dpq == pytest.approx(w1_distance(q, p), abs=1e-9)
        assert dpq <= w1_distance(p, r) + w1_distance(r, q) + 1e-8
        assert w1_distance(p, p) == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------- unit ball shape ---

def test_unit_ball_vertex_count_and_order():
    for t in (2, 3, 4, 7):
        verts = unit_ball_vertices(t)
        assert len(verts) == 2 * (t - 1)
        for i in range(t - 1):
            plus = np.zeros(t)
            plus[i], plus[i + 1] = 1.0, -1.0
            np.testing.assert_array_equal(verts[2 * i], plus)
            np.testing.assert_array_equal(verts[2 * i + 1], -plus)


def test_unit_ball_vertices_have_unit_norm():
    for t in (2, 3, 4):
        for v in unit_ball_vertices(t):
            assert w_norm(v) == pytest.approx(1.0, abs=1e-9)


def test_unit_ball_rejects_t1():
    with pytest.raises(ValueError):
        unit_ball_vertices(1)


# ----------------------------------------------------------- drce_finite ---

def test_drce_interior_fixture():
    seq = CostSequence(3, np.array([1.0, 0.0, 0.0]))
    amb = AmbiguitySet(np.full(3, 1.0 / 3.0), 0.1)
    sol = drce_finite(seq, amb)
    assert sol.case_used == "vertex-enumeration"
    assert abs(sol.value - 13.0 / 30.0) <= 1e-9
    np.testing.assert_allclose(sol.worst_q, [1.0 / 3.0 + 0.1, 1.0 / 3.0 - 0.1, 1.0 / 3.0],
                               atol=1e-12)


def test_drce_boundary_fixture():
    seq = CostSequence(3, np.array([0.0, 1.0, 0.0]))
    amb = AmbiguitySet(np.array([1.0, 0.0, 0.0]), 0.5)
    sol = drce_finite(seq, amb)
    assert sol.case_used == "lp"
    assert abs(sol.value - 0.5) <= 1e-9
    np.testing.assert_allclose(sol.worst_q, [0.5, 0.5, 0.0], atol=1e-8)


def test_drce_horizon_one():
    sol = drce_finite(CostSequence(1, np.array([2.5])),
                      AmbiguitySet(np.array([1.0]), 3.0))
    assert sol.value == 2.5
    assert sol.case_used == "vertex-enumeration"


def test_drce_zero_radius_is_nominal_expectation():
    rng = np.random.default_rng(229)
    for _ in range(10):
        t = int(rng.integers(2, 9))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        sol = drce_finite(CostSequence(t, g), AmbiguitySet(p, 0.0))
        assert sol.value == pytest.approx(float(g @ p), abs=1e-12)


def test_drce_enumeration_agrees_with_lp():
    """Both solution routes must coincide whenever enumeration is valid."""
    rng = np.random.default_rng(233)
    for _ in range(25):
        t = int(rng.integers(2, 9))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        xi = 0.5 * float(p.min())          # keeps every shifted vertex feasible
        sol = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi))
        assert sol.case_used == "vertex-enumeration"
        ref = _drce_lp(g, p, xi, unit_ball_vertices(t), DEFAULT_TOLS)
        assert sol.value == pytest.approx(ref.value, abs=1e-7)


def test_drce_monotone_in_radius():
    rng = np.random.default_rng(239)
    for _ in range(10):
        t = int(rng.integers(2, 8))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        values = [drce_finite(CostSequence(t, g), AmbiguitySet(p, xi)).value
                  for xi in (0.0, 0.05, 0.2, 1.0, 3.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


def test_drce_large_radius_reaches_best_stopping_time():
    # once the radius covers the whole simplex the worst law is a point mass
    rng = np.random.default_rng(241)
    for _ in range(10):
        t = int(rng.integers(2, 8))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        sol = drce_finite(CostSequence(t, g), AmbiguitySet(p, float(t - 1)))
        assert sol.value == pytest.approx(float(g.max()), abs=1e-8)


def test_drce_worst_q_stays_in_ball():
    rng = np.random.default_rng(251)
    for _ in range(15):
        t = int(rng.integers(2, 8))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        xi = float(rng.random())
        sol = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi))
        q = sol.worst_q
        assert q.min() >= -1e-8
        assert q.sum() == pytest.approx(1.0, abs=1e-8)
        assert w1_distance(p, np.clip(q, 0.0, None) / q.sum()) <= xi + 1e-6


def test_drce_explicit_metric_matches_scaled_line():
    # doubling every ground distance is the same as halving the radius
    rng = np.random.default_rng(257)
    for _ in range(8):
        t = int(rng.integers(2, 6))
        g = rng.standard_normal(t)
        p = random_distribution(rng, t)
        xi = float(rng.random())
        idx = np.arange(t, dtype=float)
        doubled = GroundDistance.explicit(2.0 * np.abs(idx[:, None] - idx[None, :]))
        a = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi, doubled)).value
        b = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi / 2.0)).value
        assert a == pytest.approx(b, abs=1e-7)


def test_drce_line_matches_lp_oracle():
    """Line-metric drce_finite on both paths against an independent HiGHS LP."""
    rng = np.random.default_rng(263)
    labels = set()
    for k in range(120):
        t = int(rng.choice([2, 3, 5, 12, 40, 120])) if k < 114 else 600
        g = rng.standard_normal(t)
        if k % 3 == 0:
            g = np.round(g)                          # tied costs
        p = random_distribution(rng, t)
        if k % 2 == 0:
            p = p * (rng.random(t) < 0.6)            # zeros in the nominal law
            p[int(rng.integers(t))] += 0.1
            p /= p.sum()
        xi = [0.0, 1e-3, float(rng.uniform(0.01, 0.5)) * (t - 1), float(t - 1),
              0.5 * float(p.min())][k % 5]
        sol = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi))
        expected = "vertex-enumeration" if p.min() - xi >= 1e-12 else "lp"
        assert sol.case_used == expected
        labels.add(sol.case_used)
        assert abs(sol.value - w1_ball_max_oracle(g, p, xi)) <= 1e-9
        q = sol.worst_q
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) <= 1e-12
        assert cdf_norm(q - p) <= xi + 1e-9
        assert abs(float(g @ q) - sol.value) <= 1e-12
    assert labels == {"vertex-enumeration", "lp"}


def explicit_metrics(rng, t):
    """(name, matrix) for the explicit metrics the dual is checked on."""
    pts = rng.standard_normal((t, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    # a random connected graph: a random spanning tree plus a few more edges
    w = np.zeros((t, t))
    order = rng.permutation(t)
    for k in range(1, t):
        w[order[k], order[int(rng.integers(k))]] = rng.uniform(0.1, 2.0)
    extra = rng.random((t, t)) < 2.0 / t
    w = np.where(extra & (w == 0), rng.uniform(0.1, 2.0, (t, t)), w)
    w = np.triu(w + w.T, 1)
    idx = np.arange(t, dtype=float)
    return [("l2", np.sqrt((diff ** 2).sum(-1))),
            ("l1", np.abs(diff).sum(-1)),
            ("discrete", 1.0 - np.eye(t)),
            ("graph", shortest_path(w, directed=False)),
            ("line", np.abs(idx[:, None] - idx[None, :]))]


def test_drce_explicit_matches_transport_oracle():
    """Explicit-metric drce_finite against an independent transport-plan LP."""
    rng = np.random.default_rng(269)
    k = 0
    for t in (2, 3, 5, 12, 40, 120):
        for name, d in explicit_metrics(rng, t):
            for r in range(5):
                g = rng.standard_normal(t)
                if k % 3 == 0:
                    g = np.round(g)                          # tied costs
                p = random_distribution(rng, t)
                if k % 2 == 0:
                    p = p * (rng.random(t) < 0.6)            # zeros in the nominal law
                    p[int(rng.integers(t))] += 0.1
                    p /= p.sum()
                k += 1
                xi = [0.0, 1e-3, float(rng.uniform(0.01, 0.5)) * d.max(), 1.5 * d.max(),
                      0.5 * float(p.min())][r]
                amb = AmbiguitySet(p, xi, GroundDistance.explicit(d))
                sol = drce_finite(CostSequence(t, g), amb)
                assert sol.case_used == "lp"
                assert abs(sol.value - explicit_ball_max_oracle(g, p, xi, d)) <= 1e-9
                q = sol.worst_q
                assert q.min() >= 0.0
                assert abs(q.sum() - 1.0) <= 1e-12
                assert abs(float(g @ q) - sol.value) <= 1e-12
                assert explicit_w1_oracle(p, q, d) <= xi + 1e-9
                if name == "line":
                    line = drce_finite(CostSequence(t, g), AmbiguitySet(p, xi))
                    assert abs(sol.value - line.value) <= 1e-12


def test_drce_horizon_mismatch():
    with pytest.raises(ValueError):
        drce_finite(CostSequence(3, np.zeros(3)), AmbiguitySet(np.array([1.0, 0.0]), 0.1))


# ------------------------------------------------ initial-state polytope ---

def test_initial_uncertainty_picks_worst_vertex():
    m = np.array([[0.6, 0.1], [0.2, 0.5]])
    c = np.array([1.0, -1.0])
    x_hat = np.array([0.5, 0.5])
    offsets = [np.array([0.1, -0.1]), np.array([-0.1, 0.1]), np.zeros(2)]
    amb = AmbiguitySet(np.array([0.4, 0.3, 0.3]), 0.2)
    value, idx = drce_with_initial_uncertainty(m, x_hat, offsets, c, amb)
    per_vertex = [drce_finite(cost_sequence_naive(m, x_hat + u, c, 3), amb).value
                  for u in offsets]
    assert value == pytest.approx(max(per_vertex), abs=1e-12)
    assert idx == int(np.argmax(per_vertex))
    # and with an explicit metric, which takes the same dual
    explicit = AmbiguitySet(amb.nominal, 0.2, GroundDistance.explicit(
        np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.8], [0.5, 0.8, 0.0]])))
    value, idx = drce_with_initial_uncertainty(m, x_hat, offsets, c, explicit)
    per_vertex = [drce_finite(cost_sequence_naive(m, x_hat + u, c, 3), explicit).value
                  for u in offsets]
    assert value == pytest.approx(max(per_vertex), abs=1e-12)
    assert idx == int(np.argmax(per_vertex))


def test_initial_uncertainty_tie_takes_first():
    m = np.array([[0.5, 0.0], [0.0, 0.5]])
    amb = AmbiguitySet(np.array([0.5, 0.5]), 0.0)
    u = np.array([0.1, 0.0])
    value, idx = drce_with_initial_uncertainty(
        m, np.array([0.2, 0.2]), [u, u.copy()], np.ones(2), amb)
    assert idx == 0


def test_initial_uncertainty_needs_vertices():
    with pytest.raises(ValueError):
        drce_with_initial_uncertainty(np.eye(2) * 0.5, np.zeros(2), [], np.ones(2),
                                      AmbiguitySet(np.array([1.0]), 0.0))


# ------------------------------------------------------------ validation ---

def test_ambiguity_set_validation():
    with pytest.raises(ValueError):
        AmbiguitySet(np.array([0.6, 0.3]), 0.1)          # mass != 1
    with pytest.raises(ValueError):
        AmbiguitySet(np.array([1.2, -0.2]), 0.1)         # negative entry
    with pytest.raises(ValueError):
        AmbiguitySet(np.array([0.5, 0.5]), -1.0)         # negative radius
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            AmbiguitySet(np.array([0.5, 0.5]), bad)


def test_ground_distance_validation():
    with pytest.raises(ValueError):
        GroundDistance.explicit(np.array([[0.0, 1.0], [2.0, 0.0]]))      # asymmetric
    with pytest.raises(ValueError):
        GroundDistance.explicit(np.array([[1.0, 1.0], [1.0, 0.0]]))      # diag nonzero
    with pytest.raises(ValueError):
        GroundDistance.explicit(np.array([[0.0, 0.0], [0.0, 0.0]]))      # zero off-diag
    bad_triangle = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        GroundDistance.explicit(bad_triangle)
    with pytest.raises(ValueError, match="kind"):
        GroundDistance("manhattan")
    with pytest.raises(ValueError, match="needs a distance matrix"):
        GroundDistance("explicit")
    with pytest.raises(ValueError, match="no distance matrix"):
        GroundDistance("line", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="triangle"):
        GroundDistance("explicit", bad_triangle)
    # the metric keeps its own read-only copy of the caller's matrix
    a = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    dist = GroundDistance.explicit(a)
    a[0, 2] = a[2, 0] = 50.0
    assert dist.matrix[0, 2] == 2.0
    assert not dist.matrix.flags.writeable


def test_line_distance_materialize():
    d = GroundDistance.line().materialize(4)
    idx = np.arange(4, dtype=float)
    np.testing.assert_array_equal(d, np.abs(idx[:, None] - idx[None, :]))
