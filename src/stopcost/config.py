"""Central numeric tolerances shared across the package.

`Tolerances` is an immutable named tuple, like every record in the package:
a named tuple class is built about ten times faster at import than a frozen
dataclass, and the CLI pays that build on every start.
"""
from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    # linear algebra
    reconstruction: float = 1e-6      # |P J P^-1 - M|_inf relative to max(1, |M|_inf)
    eigen_distinct: float = 1e-9      # eigenvalue (and magnitude) separation before perturbing
    perturbation: float = 1e-7        # relative size of the diagonal perturbation
    # LP
    lp_feasibility: float = 1e-7      # residual allowed in a returned LP point
    # markov
    column_sum: float = 1e-9
    entry_clamp: float = 1e-12        # magnitudes below this are treated as noise and zeroed
    stationary_residual: float = 1e-10
    # wasserstein / cutoffs
    balance: float = 1e-9             # sum-to-zero / sum-to-one checks
    vertex_boundary: float = 1e-12    # ambiguous vertex feasibility band
    positive_floor: float = 1e-12     # relative threshold for "g(t) > 0" during scans
    decay_floor: float = 1e-12        # scan horizon: stop once the envelope is below this
    rational_cap: int = 10 ** 6       # continued-fraction denominator cap for angles
    rational_err: float = 1e-9        # max |theta - a/b| for the rational fast path


DEFAULT_TOLS = Tolerances()
