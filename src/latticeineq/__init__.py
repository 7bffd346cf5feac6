"""Verification and extremal-search toolkit for sharp discrete functional
inequalities on integer lattices.

Exact rational arithmetic decides every equality claim through integer
certificates; floating point is only used where fractional powers and
logarithms force it.
"""

from .certify import (
    DEFAULT_TOL,
    ExactCertificate,
    Inequality,
    InequalityReport,
    Relation,
    ShapeClass,
    check_bl,
    check_gn,
    check_isoperimetric,
    check_log_bl,
    check_log_sobolev,
    check_loomis_whitney,
    check_sobolev,
    jensen_gap,
    set_counts,
)
from .core import (
    Cuboid,
    LatticeSet,
    LineBoundCheck,
    SparseFunction,
    axis_variation,
    boundary_count,
    indicator,
    norm,
    pointwise_line_bound,
)
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    LatticeError,
    PreconditionError,
)
from .fuzzing import FuzzSummary, fuzz
from .lab import RigidityReport, enumerate_rigidity, gn_ratio, iso_ratio
from .search import Objective, SearchTrace, anneal_sets, ascend_function

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Cuboid",
    "DEFAULT_TOL",
    "DegenerateInputError",
    "DomainError",
    "ExactCertificate",
    "FuzzSummary",
    "Inequality",
    "InequalityReport",
    "InvalidInputError",
    "LatticeError",
    "LatticeSet",
    "LineBoundCheck",
    "Objective",
    "PreconditionError",
    "Relation",
    "RigidityReport",
    "SearchTrace",
    "ShapeClass",
    "SparseFunction",
    "anneal_sets",
    "ascend_function",
    "axis_variation",
    "boundary_count",
    "check_bl",
    "check_gn",
    "check_isoperimetric",
    "check_log_bl",
    "check_log_sobolev",
    "check_loomis_whitney",
    "check_sobolev",
    "enumerate_rigidity",
    "fuzz",
    "gn_ratio",
    "indicator",
    "iso_ratio",
    "jensen_gap",
    "norm",
    "pointwise_line_bound",
    "set_counts",
]
