"""Independent reference moments and the exactness-certification engine.

The square-family moments are computed in angle coordinates x = cos(theta).
After rotating to u = (theta1+theta2)/2, v = (theta1-theta2)/2 and folding
the v < 0 half by symmetry, the domain is the triangle with vertices
(0,0), (pi,0), (pi/2,pi/2).  It is split at u = pi/2 and each half is
collapsed onto the unit square by a Duffy substitution; every algebraic
boundary factor is absorbed exactly into Gauss-Jacobi weights, so the
remaining integrand is smooth (analytic on the half-integer parameter
grid).  A doubling ladder certifies convergence.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .biangle import biangle_moment, in_omega
from .opq1d import fold_panel_angles, gauss_rule, jacobi_recurrence
from .rules import CubatureRule2D, ExactnessReport, WeightSpec

__all__ = [
    "OracleConvergenceError",
    "DomainError",
    "angular_moments",
    "angular_moment_ladder",
    "square_moment",
    "square_moments",
    "composed_moment",
    "composed_moments",
    "chebyshev_moment_1d",
    "certify",
    "SquareMomentOracle",
    "ComposedMomentOracle",
    "BiangleMomentOracle",
]


class OracleConvergenceError(RuntimeError):
    """The doubling ladder did not reach the requested agreement."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class DomainError(ValueError):
    """A rule node lies outside the closed domain of its weight."""


# absolute slack of the domain test in certify: admits the last-bit
# rounding of nodes built on the boundary, nothing visibly outside
_DOMAIN_SLACK = 1e-12


def chebyshev_moment_1d(i: int) -> float:
    """Integral of t^i (1-t^2)^{-1/2} over [-1,1]: pi (i-1)!!/i!! for even i."""
    if i % 2 == 1:
        return 0.0
    val = math.pi
    for k in range(2, i + 1, 2):
        val *= (k - 1.0) / k
    return val


def _unit_gauss_jacobi(p_exp: float, q_exp: float, n: int):
    """Nodes/weights for integral over [0,1] of a^p (1-a)^q g(a) da."""
    rc = jacobi_recurrence(q_exp, p_exp, n)
    q = gauss_rule(rc, n)
    a = 0.5 * (1.0 + q.nodes)
    w = q.weights * 2.0 ** (-(p_exp + q_exp + 1.0))
    return a, w


def _panel_theta(a: np.ndarray, b: np.ndarray, left: bool):
    """Map the collapsed unit square onto one half of the (u,v) triangle."""
    A, B = np.meshgrid(a, b, indexing="ij")
    v = 0.5 * math.pi * A * B
    if left:
        u = 0.5 * math.pi * A
    else:
        u = math.pi - 0.5 * math.pi * A
    return A, B, u, v


def angular_moments(
    alpha: float,
    beta: float,
    gamma: float,
    hfuncs: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    rtol: float = 1e-13,
    max_doublings: int = 12,
    n0: int = 24,
    min_levels: int = 2,
) -> np.ndarray:
    """Batched integrals over [0,pi]^2 of h(theta1,theta2) K(theta1,theta2)
    where K = |cos t1 - cos t2|^{2a+1} |cos t1 + cos t2|^{2b+1}
    (sin t1 sin t2)^{2g+1}.

    Each h must be vectorized and smooth; since K is symmetric the result
    equals the full-square integral for arbitrary h (the fold only needs
    the symmetric part, which is formed internally).
    """
    levels = angular_moment_ladder(
        alpha, beta, gamma, hfuncs, rtol, max_doublings, n0, min_levels
    )
    return levels[-1]


def angular_moment_ladder(
    alpha: float,
    beta: float,
    gamma: float,
    hfuncs: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    rtol: float = 1e-13,
    max_doublings: int = 12,
    n0: int = 24,
    min_levels: int = 2,
) -> List[np.ndarray]:
    """Like angular_moments but returns every ladder level (for convergence
    diagnostics); the final entry is the converged batch."""
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("weight parameters must exceed -1")
    if gamma not in (-0.5, 0.5):
        raise ValueError("gamma restricted to -1/2 and +1/2")
    pa = 4.0 * alpha + 3.0
    qa = 2.0 * beta + 1.0
    pb = 2.0 * alpha + 1.0
    ea = 2.0 * alpha + 1.0
    eb = 2.0 * beta + 1.0

    # the kernel mass rides along as a final batch entry: it anchors the
    # convergence scale so structurally zero moments cannot stall the
    # ladder, and certification tolerances are mass-relative anyway
    batch = list(hfuncs) + [lambda t1, t2: 0.5 * np.ones_like(t1)]

    levels: List[np.ndarray] = []
    n = n0
    for level in range(max_doublings + 1):
        a_nodes, a_w = _unit_gauss_jacobi(pa, qa, n)
        b_nodes, b_w = _unit_gauss_jacobi(pb, 0.0, n)
        total = np.zeros(len(batch))
        for left in (True, False):
            A, B, u, v = _panel_theta(a_nodes, b_nodes, left)
            t1 = u + v
            t2 = u - v
            # smooth quotients: 2 sin u sin v = sm_sin * a^2 b,
            #                   2 |cos u| cos v = sm_cos * (1-a)
            sm_sin = 2.0 * (0.5 * math.pi) ** 2 * np.sinc(A / 2.0) * np.sinc(A * B / 2.0)
            sm_cos = math.pi * np.sinc((1.0 - A) / 2.0) * np.cos(v)
            core = 2.0 * (0.5 * math.pi) ** 2 * sm_sin**ea * sm_cos**eb
            if gamma == 0.5:
                core = core * (np.sin(t1) * np.sin(t2)) ** 2
            wmat = np.outer(a_w, b_w) * core
            for idx, h in enumerate(batch):
                hv = h(t1, t2) + h(t2, t1)
                total[idx] += float(np.sum(wmat * hv))
        levels.append(total)
        if level >= 1 and len(levels) >= min_levels:
            prev = levels[-2]
            scale = float(np.max(np.abs(total))) + 1e-300
            if np.all(np.abs(total - prev) <= rtol * scale):
                return [lv[:-1] for lv in levels]
        n *= 2
    last, prev = levels[-1], levels[-2]
    achieved = float(np.max(np.abs(last - prev)) / (np.max(np.abs(last)) + 1e-300))
    raise OracleConvergenceError(
        "moment ladder did not converge to %.1e after %d doublings "
        "(achieved %.1e)" % (rtol, max_doublings, achieved),
        achieved,
    )


def _monomial_h(i: int, j: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def h(t1, t2):
        return np.cos(t1) ** i * np.cos(t2) ** j

    return h


def _cosbasis_h(i: int, j: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def h(t1, t2):
        return np.cos(i * t1) * np.cos(j * t2)

    return h


def square_moments(
    spec: WeightSpec, pairs: Iterable[Tuple[int, int]], **ladder_kw
) -> Dict[Tuple[int, int], float]:
    """Moments of x1^i x2^j against the square weight, batched over pairs.

    Odd total degree is zero by central symmetry; (i,j) and (j,i) coincide.
    """
    if spec.family != "square-W":
        raise ValueError("square_moments needs a square-W spec")
    pairs = list(pairs)

    def structural_zero(i: int, j: int) -> bool:
        # central symmetry kills odd total degree; with alpha == beta the
        # weight also survives single-axis reflection, killing odd-odd
        if (i + j) % 2 == 1:
            return True
        return spec.alpha == spec.beta and i % 2 == 1

    need: List[Tuple[int, int]] = []
    for (i, j) in pairs:
        if i < 0 or j < 0:
            raise ValueError("exponents must be nonnegative")
        key = (min(i, j), max(i, j))
        if not structural_zero(i, j) and key not in need:
            need.append(key)
    got: Dict[Tuple[int, int], float] = {}
    if need:
        vals = angular_moments(
            spec.alpha,
            spec.beta,
            spec.gamma,
            [_monomial_h(i, j) for (i, j) in need],
            **ladder_kw,
        )
        got = {key: float(v) for key, v in zip(need, vals)}
    return {
        (i, j): 0.0 if structural_zero(i, j) else got[(min(i, j), max(i, j))]
        for (i, j) in pairs
    }


def square_moment(spec: WeightSpec, i: int, j: int, **ladder_kw) -> float:
    """Single moment of x1^i x2^j against the square weight family."""
    return square_moments(spec, [(i, j)], **ladder_kw)[(i, j)]


def cos_basis_moments(
    alpha: float,
    beta: float,
    gamma: float,
    pairs: Sequence[Tuple[int, int]],
    **ladder_kw,
) -> np.ndarray:
    """Integrals of cos(i t1) cos(j t2) (symmetrized) against the angular
    kernel; the right-hand sides of the odd-rule moment systems."""
    return angular_moments(
        alpha, beta, gamma, [_cosbasis_h(i, j) for (i, j) in pairs], **ladder_kw
    )


def _folded_h(ell: int, i: int, j: int):
    """h for composed moments: x^i x^j folded through the degree-ell cosine
    map.  Substituting psi = ell*phi splits [0, ell*pi] into ell panels;
    parametrizing odd panels in reverse keeps cos(psi) = +cos(theta) on
    every panel, so all panel pairs see the same angular kernel and one
    batched call suffices.
    """

    def axis(theta, p):
        return np.sum(np.cos(fold_panel_angles(ell, theta)) ** p, axis=0)

    def h(t1, t2):
        return axis(t1, i) * axis(t2, j) / (ell * ell)

    return h


def composed_moments(
    ell: int,
    alpha: float,
    beta: float,
    pairs: Iterable[Tuple[int, int]],
    **ladder_kw,
) -> Dict[Tuple[int, int], float]:
    """Moments of x1^i x2^j against the degree-ell composed weight
    (gamma = -1/2 family). For the Chebyshev base this reduces to product
    Chebyshev moments, which the tests cross-check."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    pairs = list(pairs)

    def structural_zero(i: int, j: int) -> bool:
        # folded arguments flip sign under x -> -x only for odd ell, so
        # the single-axis reflection symmetry needs even ell or alpha ==
        # beta; central symmetry holds either way
        if (i + j) % 2 == 1:
            return True
        return (ell % 2 == 0 or alpha == beta) and i % 2 == 1

    need: List[Tuple[int, int]] = []
    for (i, j) in pairs:
        key = (min(i, j), max(i, j))
        if not structural_zero(i, j) and key not in need:
            need.append(key)
    got: Dict[Tuple[int, int], float] = {}
    if need:
        vals = angular_moments(
            alpha,
            beta,
            -0.5,
            [_folded_h(ell, i, j) for (i, j) in need],
            **ladder_kw,
        )
        got = {key: float(v) for key, v in zip(need, vals)}
    return {
        (i, j): 0.0 if structural_zero(i, j) else got[(min(i, j), max(i, j))]
        for (i, j) in pairs
    }


def composed_moment(
    ell: int, i: int, j: int, alpha: float = -0.5, beta: float = -0.5, **kw
) -> float:
    """Moment of the composed family; defaults to the Chebyshev base."""
    return composed_moments(ell, alpha, beta, [(i, j)], **kw)[(i, j)]


class SquareMomentOracle:
    """Moment source for the square weight family, with batch caching."""

    def __init__(self, alpha: float, beta: float, gamma: float):
        self.spec = WeightSpec("square-W", alpha=alpha, beta=beta, gamma=gamma)
        self._cache: Dict[Tuple[int, int], float] = {}

    def moments(self, pairs: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], float]:
        missing = [p for p in pairs if p not in self._cache]
        if missing:
            self._cache.update(square_moments(self.spec, missing))
        return {p: self._cache[p] for p in pairs}

    def moment(self, i: int, j: int) -> float:
        return self.moments([(i, j)])[(i, j)]

    @property
    def mass(self) -> float:
        return self.moment(0, 0)


class ComposedMomentOracle:
    """Moment source for the composed family."""

    def __init__(self, ell: int, alpha: float, beta: float):
        self.ell = ell
        self.alpha = alpha
        self.beta = beta
        self._cache: Dict[Tuple[int, int], float] = {}

    def moments(self, pairs: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], float]:
        missing = [p for p in pairs if p not in self._cache]
        if missing:
            self._cache.update(
                composed_moments(self.ell, self.alpha, self.beta, missing)
            )
        return {p: self._cache[p] for p in pairs}

    def moment(self, i: int, j: int) -> float:
        return self.moments([(i, j)])[(i, j)]

    @property
    def mass(self) -> float:
        return self.moment(0, 0)


class BiangleMomentOracle:
    """Moment source for the curved-domain family (exact tensor route)."""

    def __init__(self, rc, gamma: float):
        self._fn = lambda a, b: biangle_moment(rc, gamma, a, b)
        self._cache: Dict[Tuple[int, int], float] = {}

    def moments(self, pairs: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], float]:
        for p in pairs:
            if p not in self._cache:
                self._cache[p] = self._fn(*p)
        return {p: self._cache[p] for p in pairs}

    def moment(self, i: int, j: int) -> float:
        return self.moments([(i, j)])[(i, j)]

    @property
    def mass(self) -> float:
        return self.moment(0, 0)


def certify(
    rule: CubatureRule2D,
    moments,
    max_degree: int,
    rel_tol: float = 1e-9,
) -> ExactnessReport:
    """Compare the rule against reference moments for every monomial of
    total degree <= max_degree.

    The per-monomial relative error is |rule - moment| divided by
    max(|moment|, mass * scale) with scale the sup of |x^i y^j| over the
    node set, so zero moments are handled without blowups.

    Raises DomainError, before any moment is computed, when a node lies
    outside the rule's closed domain by more than 1e-12: such a
    node would inflate the scale and hide its own error.
    """
    x = rule.nodes[:, 0]
    y = rule.nodes[:, 1]
    if rule.domain == "square":
        inside = np.maximum(np.abs(x), np.abs(y)) <= 1.0 + _DOMAIN_SLACK
    else:
        inside = in_omega(x, y, _DOMAIN_SLACK)
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise DomainError(
            "node %d at (%r, %r) lies outside the %s domain"
            % (bad, float(x[bad]), float(y[bad]), rule.domain)
        )
    pairs = [
        (i, d - i) for d in range(max_degree + 1) for i in range(d + 1)
    ]
    ref = moments.moments(pairs)
    mass = moments.mass
    deg_max = max_degree
    xp = np.vander(x, deg_max + 1, increasing=True)
    yp = np.vander(y, deg_max + 1, increasing=True)
    failures = []
    worst = 0.0
    bad_degrees = set()
    for (i, j) in pairs:
        vals = xp[:, i] * yp[:, j]
        approx = float(np.dot(rule.weights, vals))
        scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
        denom = max(abs(ref[(i, j)]), abs(mass) * scale, 1e-300)
        rel = abs(approx - ref[(i, j)]) / denom
        worst = max(worst, rel)
        if rel > rel_tol:
            failures.append((i, j, rel))
            bad_degrees.add(i + j)
    certified = max_degree if not bad_degrees else min(bad_degrees) - 1
    failures.sort(key=lambda t: (t[0] + t[1], t[0]))
    return ExactnessReport(
        max_degree_tested=max_degree,
        certified_degree=certified,
        worst_rel_error=worst,
        failures=tuple(failures),
    )
