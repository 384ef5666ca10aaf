"""Gauss and minimal cubature rules for reflection-symmetric weights on
the square and its folded curved domain, with independent moment
certification."""

from .biangle import gauss_cubature_biangle, in_omega
from .composed import composed_rule
from .opq1d import (
    QuadratureRule1D,
    RecurrenceCoeffs,
    diagonal_zero_set,
    eval_jacobi_standard,
    eval_jacobi_standard_deriv,
    gauss_rule,
    jacobi_recurrence,
    quasi_S,
)
from .oracle import DomainError, certify, reference_gram
from .rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec, rule_shape
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
    "ExactnessReport",
    "QuadratureRule1D",
    "RecurrenceCoeffs",
    "WeightSpec",
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
    "quasi_S",
    "reference_gram",
    "rule_shape",
]
