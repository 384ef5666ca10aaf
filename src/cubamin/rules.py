"""Shared value types for 2D cubature rules and their certification."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

__all__ = ["WeightSpec", "CubatureRule2D", "ExactnessReport", "ConstructionError",
           "RULE_WEIGHTS", "rule_shape"]

# the weight each rule family is built on: its WeightSpec family, the domain
# of that weight, and the spec fields the family fixes, with their values
RULE_WEIGHTS = {
    "biangle": ("biangle-gamma", "biangle", {}),
    "square-even": ("square-W", "square", {"ell": 1}),
    "square-odd": ("square-W", "square", {"ell": 1}),
    "composed": ("square-W", "square", {"gamma": -0.5}),
}


class ConstructionError(RuntimeError):
    """A rule or a reference could not be built to contract; nothing partial is returned."""


def rule_shape(family: str, size: int, ell: int = 1) -> Tuple[int, int]:
    """Degree and node count of the rule of a family at size n (biangle)
    or m, and ell for the composed family."""
    if family == "biangle":
        return 2 * size - 1, size * (size + 1) // 2
    if family == "square-even":
        return 4 * size - 1, 2 * size * (size + 1)
    if family == "square-odd":
        return 4 * size + 1, 2 * (size + 1) ** 2 - 1
    if family == "composed":
        return 4 * ell * size - 1, 2 * ell * ell * size * size + 2 * ell * size
    raise ValueError("unknown rule family %r" % (family,))


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
        if not all(np.isfinite(v) and v > -1 for v in (self.alpha, self.beta)):
            raise ValueError("Jacobi parameters must be finite and exceed -1")


@dataclass(frozen=True)
class CubatureRule2D:
    """Nodes and positive weights of a 2D rule; its degree and node count are
    its family's at param, and its spec is its family's weight in RULE_WEIGHTS."""

    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    spec: WeightSpec
    param: int  # n for Gauss-type rules, m for the minimal families
    family: str

    def __post_init__(self):
        if self.param < 1:
            raise ValueError("param must be >= 1, got %r" % (self.param,))
        # raises on an unknown family
        count = rule_shape(self.family, self.param, self.spec.ell)[1]
        weight, _, fixed = RULE_WEIGHTS[self.family]
        if self.spec.family != weight or any(getattr(self.spec, k) != v for k, v in fixed.items()):
            raise ValueError("%s rule needs a %s spec%s, got %r" % (
                self.family, weight, "".join(" with %s = %r" % kv for kv in fixed.items()),
                self.spec))
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(
            self, "weights", np.asarray(self.weights, dtype=float)
        )
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
        return RULE_WEIGHTS[self.family][1]

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
