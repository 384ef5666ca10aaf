"""Gauss and minimal cubature rules for reflection-symmetric weights on
the square and its folded curved domain, with independent moment
certification."""

from .biangle import biangle_moments, gauss_cubature_biangle, in_omega
from .composed import composed_rule
from .opq1d import (
    EigensolverError,
    QuadratureRule1D,
    RecurrenceCoeffs,
    ZeroCountError,
    diagonal_zero_set,
    eval_jacobi_standard,
    eval_jacobi_standard_deriv,
    gauss_rule,
    jacobi_recurrence,
    quasi_S,
)
from .oracle import (
    DomainError,
    MomentOracle,
    OracleConvergenceError,
    certify,
    moment_oracle,
    square_moments,
)
from .rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec
from .squaremin import (
    merge_close_nodes,
    minimal_rule_even,
    minimal_rule_odd,
    moller_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "CubatureRule2D",
    "DomainError",
    "EigensolverError",
    "ExactnessReport",
    "MomentOracle",
    "OracleConvergenceError",
    "QuadratureRule1D",
    "RecurrenceCoeffs",
    "WeightSpec",
    "ZeroCountError",
    "biangle_moments",
    "certify",
    "composed_rule",
    "diagonal_zero_set",
    "eval_jacobi_standard",
    "eval_jacobi_standard_deriv",
    "gauss_cubature_biangle",
    "gauss_rule",
    "in_omega",
    "jacobi_recurrence",
    "merge_close_nodes",
    "minimal_rule_even",
    "minimal_rule_odd",
    "moller_bound",
    "moment_oracle",
    "quasi_S",
    "square_moments",
]
