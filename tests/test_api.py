import inspect

import numpy as np
import pytest

import stopcost


def _public_callables():
    for name in stopcost.__all__:
        obj = getattr(stopcost, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_no_public_signature_takes_tolerances():
    # every tolerance is the one constant config.DEFAULT_TOLS; none is an argument
    names = dict(_public_callables())
    assert "MarkovChain.from_transition" in names
    for name, fn in names.items():
        assert "tols" not in inspect.signature(fn).parameters, name


def _records():
    """Each record class with keyword arguments in field order, and the array
    fields the record makes read-only."""
    from stopcost.cli import ModelFile
    from stopcost.matrix_core import StableSquares
    from stopcost.scenarios import _BandTable

    a = np.array([[0.5, 0.25], [0.25, 0.5]])
    v = np.array([0.5, 0.5])
    term = stopcost.ComplexTerm(1.0, 0.5, 90.0, 0.0, (90, 1))
    return [
        (stopcost.Tolerances, dict(stopcost.DEFAULT_TOLS._asdict()), ()),
        (StableSquares, dict(powers=(a.copy(), a @ a), norms=(0.75, 0.5625)), ()),
        (stopcost.RealJordanForm, dict(p_matrix=np.eye(2), p_inverse=np.eye(2), complex_blocks=(),
                                       real_eigs=(0.5, 0.25), perturbation=0.0),
         ("p_matrix", "p_inverse")),
        (stopcost.CostSequence, dict(horizon=2, values=v.copy()), ("values",)),
        (stopcost.ComplexTerm, dict(amplitude=1.0, magnitude=0.5, theta_deg=90.0, eta_deg=0.0,
                                    theta_frac=(90, 1)), ()),
        (stopcost.RealTerm, dict(weight=-1.0, rate=0.25), ()),
        (stopcost.OscillatorySum, dict(complex_terms=(term,),
                                       real_terms=(stopcost.RealTerm(1.0, 0.25),)), ()),
        (stopcost.CutoffResult, dict(t0=1, n0=4, case_tag="real-pos-pos"), ()),
        (stopcost.RceInfResult, dict(kind="attained", t_star=1, value=0.5), ()),
        (stopcost.LinearProgram, dict(objective=v.copy(), ineq_lhs=a.copy(), ineq_rhs=v.copy(),
                                      eq_lhs=np.ones((1, 2)), eq_rhs=np.ones(1),
                                      nonneg=np.array([True, False])), ()),
        (stopcost.LpSolution, dict(status="optimal", point=v.copy(), value=1.0), ()),
        (stopcost.MarkovChain, dict(n=2, transition=np.full((2, 2), 0.5),
                                    stationary=v.copy(), reduction=None),
         ("transition", "stationary")),
        (stopcost.GasSystem, dict(m_bar=np.array([[0.25]]), a_op=np.array([[1.0, 0.0]]),
                                  b_op=np.array([[1.0], [-1.0]]), stationary=v.copy(),
                                  squares=None),
         ("m_bar", "a_op", "b_op", "stationary")),
        (stopcost.GroundDistance, dict(kind="explicit", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
         ("matrix",)),
        (stopcost.AmbiguitySet, dict(nominal=v.copy(), radius=0.5,
                                     distance=stopcost.GroundDistance.line()), ("nominal",)),
        (stopcost.DrceSolution, dict(value=1.0, worst_q=v.copy(), case_used="lp"), ()),
        (stopcost.CsocParams, dict(stopcost.CsocParams()._asdict()), ()),
        (stopcost.HealthParams, dict(model="svir", population=3, horizon_min=1, horizon_max=9,
                                     horizon_mean=4, init=(0.5, 0.5, 0.0, 0.0)), ()),
        (stopcost.ComparisonReport, dict(empirical_cost=1.0, drce_cost=2.0,
                                         pct_exceed_empirical=50.0, pct_exceed_drce=10.0,
                                         t_hat=3, xi=0.5, seed=7), ()),
        (_BandTable, dict(levels=((1, v.copy()),), next_at=np.arange(2), below=None, width=None,
                          floor=None, slots=2), ()),
        (ModelFile, dict(kind="gas", n=2, matrix=a.copy(), cost=v.copy(), x0=None,
                         cost_offset=0.0), ()),
    ]


@pytest.mark.parametrize("cls,kwargs,read_only",
                         [pytest.param(*record, id=record[0].__name__) for record in _records()])
def test_records_are_immutable_named_tuples(cls, kwargs, read_only):
    by_name = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert cls._fields == tuple(kwargs)
    assert repr(by_name) == repr(by_position)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(by_name, name, getattr(by_name, name))
    with pytest.raises(AttributeError):
        by_name.extra = 1                     # no instance dict
    for name in read_only:
        arr = getattr(by_name, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    if cls.__name__ == "StableSquares":
        assert not any(p.flags.writeable for p in by_name.powers)


def test_ambiguity_set_defaults_to_the_line_metric():
    ball = stopcost.AmbiguitySet(np.array([0.25, 0.75]), 0.5)
    assert ball.distance.kind == "line" and ball.distance.matrix is None
