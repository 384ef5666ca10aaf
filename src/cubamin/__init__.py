"""Gauss and minimal cubature rules for reflection-symmetric weights on
the square and its folded curved domain, with independent moment
certification."""

from .biangle import (
    biangle_moments,
    eval_koornwinder,
    gauss_cubature_biangle,
    in_omega,
    split_u_to_x,
)
from .composed import composed_rule
from .opq1d import (
    EigensolverError,
    QuadratureRule1D,
    RecurrenceCoeffs,
    ZeroCountError,
    diagonal_zero_set,
    eval_jacobi_standard,
    eval_jacobi_standard_deriv,
    eval_orthonormal,
    eval_orthonormal_deriv,
    gauss_rule,
    jacobi_recurrence,
    quasi_S,
)
from .oracle import (
    BiangleMomentOracle,
    DomainError,
    MomentOracle,
    OracleConvergenceError,
    SquareMomentOracle,
    angular_moment_ladder,
    certify,
    square_moments,
)
from .rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec
from .squaremin import (
    eval_Q_basis,
    merge_close_nodes,
    minimal_rule_even,
    minimal_rule_odd,
    moller_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BiangleMomentOracle",
    "ConstructionError",
    "CubatureRule2D",
    "DomainError",
    "EigensolverError",
    "ExactnessReport",
    "MomentOracle",
    "OracleConvergenceError",
    "QuadratureRule1D",
    "RecurrenceCoeffs",
    "SquareMomentOracle",
    "WeightSpec",
    "ZeroCountError",
    "angular_moment_ladder",
    "biangle_moments",
    "certify",
    "composed_rule",
    "diagonal_zero_set",
    "eval_Q_basis",
    "eval_jacobi_standard",
    "eval_jacobi_standard_deriv",
    "eval_koornwinder",
    "eval_orthonormal",
    "eval_orthonormal_deriv",
    "gauss_cubature_biangle",
    "gauss_rule",
    "in_omega",
    "jacobi_recurrence",
    "merge_close_nodes",
    "minimal_rule_even",
    "minimal_rule_odd",
    "moller_bound",
    "quasi_S",
    "split_u_to_x",
    "square_moments",
]
