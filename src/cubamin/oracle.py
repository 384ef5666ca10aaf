"""Independent reference moments and the exactness certification engine.

Every verify oracle runs one exact routine, biangle.tensor_moments, on the
tensor Gauss grid of Koornwinder's weight.  The fold y_k = cos phi_k
(phi1, phi2 = theta1 -+ theta2) turns the square kernel in x = cos(theta)
into the Jacobi(a, b) tensor weight times ((y1 - y2)/2)^(2g+1); a square or
composed moment contracts per-axis feature rows at the grid's angle images.
moment_oracle(spec) builds the one cached MomentOracle for every family.  The angular ladder, a
doubling ladder on Duffy panels of the angle triangle with the boundary
factors in Gauss-Jacobi weights, supplies the odd builder's right-hand sides.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .biangle import biangle_moments, in_omega, tensor_moments
from .opq1d import fold_panel_angles, gauss_rule, jacobi_recurrence
from .rules import CubatureRule2D, ExactnessReport, WeightSpec

__all__ = [
    "OracleConvergenceError",
    "DomainError",
    "angular_moment_ladder",
    "square_moments",
    "cos_basis_moments",
    "certify",
    "MomentOracle",
    "moment_oracle",
]


class OracleConvergenceError(RuntimeError):
    """The doubling ladder did not reach the requested agreement."""


class DomainError(ValueError):
    """A rule node lies outside the closed domain of its weight."""


# absolute slack of the domain test in certify: admits the last-bit
# rounding of nodes built on the boundary, nothing visibly outside
_DOMAIN_SLACK = 1e-12

# nodes per np.dot in certify: OpenBLAS threads longer dots, moving last bits
_DOT_CHUNK = 8192


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


def angular_moment_ladder(
    alpha: float,
    beta: float,
    gamma: float,
    pairs: Sequence[Tuple[int, int]],
    row: Callable[[np.ndarray, int], np.ndarray],
    rtol: float = 1e-13,
    max_doublings: int = 12,
    n0: int = 24,
    min_levels: int = 2,
) -> List[np.ndarray]:
    """Batched integrals over [0,pi]^2 of f_i(theta1) f_j(theta2)
    K(theta1,theta2), one per pair (i, j), where
    K = |cos t1 - cos t2|^{2a+1} |cos t1 + cos t2|^{2b+1}
    (sin t1 sin t2)^{2g+1}.

    row(theta, p) evaluates the smooth feature f_p on a grid of angles.
    Since K is symmetric the result equals the full-square integral (the
    fold only needs the symmetric part, which is formed internally).
    Returns every ladder level (for convergence diagnostics); the final
    entry is the converged batch.
    """
    WeightSpec("square-W", alpha=alpha, beta=beta, gamma=gamma)  # raises on bad parameters
    pa = 4.0 * alpha + 3.0
    qa = 2.0 * beta + 1.0
    pb = 2.0 * alpha + 1.0
    ea = 2.0 * alpha + 1.0
    eb = 2.0 * beta + 1.0

    # pairs of even exponents first, then odd ones, each by descending
    # larger exponent: for a triangle i + j <= d of even total degree at
    # most about d/4 rows per coordinate are alive at once
    order = sorted(range(len(pairs)), key=lambda idx: (pairs[idx][0] % 2, -max(pairs[idx])))
    last_use = {p: pos for pos, idx in enumerate(order) for p in pairs[idx]}

    levels: List[np.ndarray] = []
    n = n0
    for level in range(max_doublings + 1):
        a_nodes, a_w = _unit_gauss_jacobi(pa, qa, n)
        b_nodes, b_w = _unit_gauss_jacobi(pb, 0.0, n)
        # the kernel mass rides along as a final entry: it anchors the
        # convergence scale so structurally zero moments cannot stall the
        # ladder, and certification tolerances are mass-relative anyway
        total = np.zeros(len(pairs) + 1)
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
            # each feature row is evaluated once per panel, at its first
            # use, and dropped after its last; one weighted sum per pair
            # rather than (f1 * wmat) @ f2.T, since a matrix product sums
            # in another order and the odd-rule right-hand sides taken
            # from here would move the last bits of their rule files
            f1: Dict[int, np.ndarray] = {}
            f2: Dict[int, np.ndarray] = {}
            for pos, idx in enumerate(order):
                i, j = pairs[idx]
                for p in (i, j):
                    if p not in f1:
                        f1[p], f2[p] = row(t1, p), row(t2, p)
                total[idx] += float(np.sum(wmat * (f1[i] * f2[j] + f2[i] * f1[j])))
                for p in {i, j}:
                    if last_use[p] == pos:
                        del f1[p], f2[p]
            total[-1] += float(np.sum(wmat))
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
        "(achieved %.1e)" % (rtol, max_doublings, achieved)
    )


def _fold_images(ell: int, y1: np.ndarray, y2: np.ndarray):
    """Per-panel cosines of the fold grid's angles, cos(fold_panel_angles(
    ell, t)) at t = ((phi2 + phi1)/2, (phi2 - phi1)/2) with phi = arccos y,
    and at pi - t, each linked both ways.  A folded panel-sum row of even
    ell is not invariant under x -> -x, so both images count."""
    phi1 = np.arccos(y1)
    phi2 = np.arccos(y2)
    t1 = 0.5 * (phi2 + phi1)
    t2 = 0.5 * (phi2 - phi1)
    coords = [np.cos(fold_panel_angles(ell, t)) for t in (t1, t2, math.pi - t1, math.pi - t2)]
    return coords, [(0, 1), (1, 0), (2, 3), (3, 2)]


def square_moments(
    alpha: float,
    beta: float,
    gamma: float,
    ell: int,
    pairs: Iterable[Tuple[int, int]],
) -> Dict[Tuple[int, int], float]:
    """Moments of x1^i x2^j against the square weight pushed through the
    degree-ell fold (ell = 1: the square weight itself; ell > 1: the
    composed weight, gamma = -1/2), on the Jacobi(alpha, beta) tensor grid.

    The feature row is the panel sum of folded powers, which is a
    polynomial of degree at most p in cos theta, so (i+j)//4 + 2 points
    (+1 for gamma = +1/2) are exact.  Odd total degree is zero by central
    symmetry.  Folded arguments flip sign under x -> -x only for odd ell,
    so odd-odd exponents vanish by single-axis reflection for even ell or
    alpha == beta.
    """
    WeightSpec("square-W", alpha=alpha, beta=beta, gamma=gamma, ell=ell)  # raises on bad parameters
    pairs = list(pairs)
    if any(min(p) < 0 for p in pairs):
        raise ValueError("exponents must be nonnegative")

    def npts(d: int) -> int:
        return d // 4 + 2 + int(gamma == 0.5)

    reflect = ell % 2 == 0 or alpha == beta
    live = [(i, j) for (i, j) in pairs
            if (i + j) % 2 == 0 and not (reflect and i % 2 == 1)]
    rc = jacobi_recurrence(alpha, beta, max([npts(i + j) for i, j in live], default=1))
    got = tensor_moments(rc, gamma, live, npts,
                         lambda y1, y2: _fold_images(ell, y1, y2),
                         lambda c, p: np.sum(c**p, axis=0) / ell)
    scale = 2.0 ** (-2.0 * gamma - 2.0)
    return {p: scale * got.get(p, 0.0) for p in pairs}


def cos_basis_moments(
    alpha: float,
    beta: float,
    gamma: float,
    pairs: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """Integrals of cos(i t1) cos(j t2) (symmetrized) against the angular
    kernel; the right-hand sides of the odd-rule moment systems."""
    return angular_moment_ladder(
        alpha, beta, gamma, pairs, lambda theta, p: np.cos(p * theta)
    )[-1]


class MomentOracle:
    """Cached moment source: compute(pairs) returns {(i, j): moment} for a
    batch of exponent pairs, and each pair is computed once."""

    def __init__(
        self, compute: Callable[[List[Tuple[int, int]]], Dict[Tuple[int, int], float]]
    ):
        self._compute = compute
        self._cache: Dict[Tuple[int, int], float] = {}

    def moments(self, pairs: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], float]:
        missing = [p for p in pairs if p not in self._cache]
        if missing:
            self._cache.update(self._compute(missing))
        return {p: self._cache[p] for p in pairs}

    def moment(self, i: int, j: int) -> float:
        return self.moments([(i, j)])[(i, j)]

    @property
    def mass(self) -> float:
        return self.moment(0, 0)


def moment_oracle(spec: WeightSpec) -> MomentOracle:
    """Cached moment source for the weight of spec: biangle_moments for the
    curved domain, square_moments for the square and composed weights."""
    a, b, g = spec.alpha, spec.beta, spec.gamma
    if spec.family == "biangle-gamma":
        return MomentOracle(lambda pairs: biangle_moments(a, b, g, pairs))
    return MomentOracle(lambda pairs: square_moments(a, b, g, spec.ell, pairs))


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

    Raises ValueError unless rel_tol is finite and positive and
    max_degree >= 0, and DomainError, before any moment is computed,
    when a node lies outside the rule's closed domain by more than
    1e-12: such a node would inflate the scale and hide its own error.
    Raises OverflowError when a reference moment is infinite or NaN,
    which no comparison could fail.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError("rel_tol must be a finite positive number, got %r" % (rel_tol,))
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %r" % (max_degree,))
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        ref = moments.moments(pairs)
    for (i, j) in pairs:
        if not math.isfinite(ref[(i, j)]):
            raise OverflowError("reference moment of x^%d y^%d is %r: the weight's "
                                "moments exceed float range" % (i, j, ref[(i, j)]))
    mass = moments.mass
    # powers as contiguous rows, each the one before times the base, as in
    # np.vander; x^i is carried as one running row
    yp = np.empty((max_degree + 1, len(y)))
    yp[0] = 1.0
    for k in range(1, max_degree + 1):
        yp[k] = yp[k - 1] * y
    xi = yp[0].copy()
    vals = np.empty_like(yp)
    w = rule.weights
    failures = []
    worst = 0.0
    bad_degrees = set()
    for i in range(max_degree + 1):
        # the products x^i y^j for every j; one dot per pair and chunk,
        # added left to right, rather than one matrix product, which would
        # sum in another order and move the last bits of the report
        block = np.multiply(xi, yp[: max_degree + 1 - i], out=vals[: max_degree + 1 - i])
        scales = np.maximum(block.max(axis=1, initial=0.0), -block.min(axis=1, initial=0.0))
        for j, row in enumerate(block):
            approx = float(np.dot(w[:_DOT_CHUNK], row[:_DOT_CHUNK]))
            for c in range(_DOT_CHUNK, len(w), _DOT_CHUNK):
                approx += float(np.dot(w[c : c + _DOT_CHUNK], row[c : c + _DOT_CHUNK]))
            denom = max(abs(ref[(i, j)]), abs(mass) * float(scales[j]), 1e-300)
            rel = abs(approx - ref[(i, j)]) / denom
            worst = max(worst, rel)
            if rel > rel_tol:
                failures.append((i, j, rel))
                bad_degrees.add(i + j)
        xi = xi * x
    certified = max_degree if not bad_degrees else min(bad_degrees) - 1
    failures.sort(key=lambda t: (t[0] + t[1], t[0]))
    return ExactnessReport(
        max_degree_tested=max_degree,
        certified_degree=certified,
        worst_rel_error=worst,
        failures=tuple(failures),
    )
