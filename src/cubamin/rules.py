"""Shared value types for 2D cubature rules and their certification."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

__all__ = ["WeightSpec", "CubatureRule2D", "ExactnessReport", "ConstructionError",
           "RULE_FAMILIES", "check_jacobi_parameters", "rule_shape"]

# each rule family in one row: the WeightSpec family of its weight, the
# spec fields it fixes, with their values, and its (degree, node count) at
# size n (biangle) or m, and ell
RULE_FAMILIES = {
    "biangle": ("biangle-gamma", {}, lambda n, ell: (2 * n - 1, n * (n + 1) // 2)),
    "square-even": ("square-W", {"ell": 1}, lambda m, ell: (4 * m - 1, 2 * m * (m + 1))),
    "square-odd": ("square-W", {"ell": 1}, lambda m, ell: (4 * m + 1, 2 * (m + 1) ** 2 - 1)),
    "composed": ("square-W", {"gamma": -0.5},
                 lambda m, ell: (4 * ell * m - 1, 2 * ell * ell * m * m + 2 * ell * m)),
}


class ConstructionError(RuntimeError):
    """A rule or a reference could not be built to contract; nothing partial is returned."""


def check_jacobi_parameters(alpha: float, beta: float) -> None:
    """Raise ValueError unless alpha and beta are finite and exceed -1."""
    if not all(math.isfinite(v) and v > -1.0 for v in (alpha, beta)):
        raise ValueError("Jacobi parameters must be finite and exceed -1")


def rule_shape(family: str, size: int, ell: int = 1) -> Tuple[int, int]:
    """Degree and node count of the rule of a family at size n (biangle)
    or m, and ell for the composed family."""
    if not (isinstance(family, str) and family in RULE_FAMILIES):
        raise ValueError("unknown rule family %r" % (family,))
    return RULE_FAMILIES[family][2](size, ell)


@dataclass(frozen=True)
class WeightSpec:
    """Symbolic description of a 2D weight family.

    family: 'biangle-gamma' (curved domain, parameter gamma) or 'square-W'
    (the |y1-y2|^{2a+1} |y1+y2|^{2b+1} ((1-x1^2)(1-x2^2))^g family on the
    square at y = T_ell(x); ell > 1 is the composed weight, g = -1/2).
    alpha/beta are the Jacobi parameters of the base 1D weight, which
    every family requires.
    """

    family: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: float = -0.5
    ell: int = 1

    def __post_init__(self):
        if self.family not in ("biangle-gamma", "square-W"):
            raise ValueError("unknown weight family %r" % (self.family,))
        if self.gamma not in (-0.5, 0.5):
            raise ValueError("gamma restricted to -1/2 and +1/2")
        if isinstance(self.ell, bool) or not isinstance(self.ell, numbers.Integral):
            raise ValueError("ell must be an integer, got %r" % (self.ell,))
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.ell > 1 and self.gamma != -0.5:
            raise ValueError("composed family exists only for gamma = -1/2")
        if self.ell != 1 and self.family != "square-W":
            raise ValueError("ell is a parameter of the square-W family only")
        missing = [k for k in ("alpha", "beta") if getattr(self, k) is None]
        if missing:
            raise ValueError("missing Jacobi parameter: %s" % ", ".join(missing))
        check_jacobi_parameters(self.alpha, self.beta)


@dataclass(frozen=True)
class CubatureRule2D:
    """Nodes and positive weights of a 2D rule; its degree and node count are
    its family's at param, and its spec is its family's weight in RULE_FAMILIES."""

    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    spec: WeightSpec
    param: int  # n for Gauss-type rules, m for the minimal families
    family: str

    def __post_init__(self):
        if isinstance(self.param, bool) or not isinstance(self.param, numbers.Integral):
            raise ValueError("param must be an integer, got %r" % (self.param,))
        if self.param < 1:
            raise ValueError("param must be >= 1, got %r" % (self.param,))
        # raises on an unknown family
        count = rule_shape(self.family, self.param, self.spec.ell)[1]
        weight, fixed, _ = RULE_FAMILIES[self.family]
        if self.spec.family != weight or any(getattr(self.spec, k) != v for k, v in fixed.items()):
            raise ValueError("%s rule needs a %s spec%s, got %r" % (
                self.family, weight, "".join(" with %s = %r" % kv for kv in fixed.items()),
                self.spec))
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(
            self, "weights", np.asarray(self.weights, dtype=float)
        )
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (N, 2), got %r" % (nodes.shape,))
        if self.weights.ndim != 1:
            raise ValueError("weights must have shape (N,), got %r" % (self.weights.shape,))
        if len(self.weights) != len(nodes):
            raise ValueError("node/weight length mismatch")
        if len(nodes) != count:
            raise ConstructionError(
                "%s rule has %d nodes, expected %d" % (self.family, len(nodes), count))
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(self.weights))):
            raise ValueError("non-finite node or weight")
        if np.any(self.weights <= 0.0):
            raise ConstructionError("nonpositive cubature weight")

    @property
    def degree(self) -> int:
        return rule_shape(self.family, self.param, self.spec.ell)[0]

    @property
    def domain(self) -> str:
        """'biangle', the curved domain of the biangle-gamma weight, or 'square'."""
        return "biangle" if self.spec.family == "biangle-gamma" else "square"

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def apply(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes[:, 0], self.nodes[:, 1])))

    def sorted_rule(self) -> "CubatureRule2D":
        """The rule with its rows sorted by (x1, x2), the row order of every rule file."""
        order = np.lexsort((self.nodes[:, 1], self.nodes[:, 0]))
        return replace(self, nodes=self.nodes[order], weights=self.weights[order])


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of certifying a rule against reference moments."""

    max_degree_tested: int
    worst_rel_error: float
    failures: tuple = field(default_factory=tuple)  # ((i, j, rel_err), ...)

    @property
    def certified_degree(self) -> int:
        """One below the lowest failing total degree; all tested if none failed."""
        if not self.failures:
            return self.max_degree_tested
        return min(i + j for i, j, _ in self.failures) - 1
