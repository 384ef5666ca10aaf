"""Independent reference moments and the exactness certification engine.

certify compares a rule with its weight in the Chebyshev basis of the
domain, T_i(x1) T_j(x2) on the square and T_i(u1/2) T_j(u2) on the curved
domain, where every product is at most 1 in magnitude.  Both sides are one
Gram contraction, sum_k w_k T_i(a_k) T_j(b_k): over the rule's nodes, and
over Koornwinder's tensor Gauss grid of the weight (reference_gram).  The
fold y_k = cos phi_k (phi1, phi2 = theta1 -+ theta2) turns the square kernel
in x = cos(theta) into the Jacobi(a, b) tensor weight times
((y1 - y2)/2)^(2g+1), so the square and composed tables contract per-axis
rows at the grid's angle images.  The angular ladder, a doubling ladder on
Duffy panels of the angle triangle with the boundary factors in
Gauss-Jacobi weights, supplies the odd builder's right-hand sides.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .biangle import in_omega
from .opq1d import fold_panel_angles, gauss_rule, jacobi_recurrence
from .rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec

__all__ = [
    "DomainError",
    "angular_moment_ladder",
    "cos_basis_moments",
    "certify",
    "reference_gram",
]


class DomainError(ValueError):
    """A rule node lies outside the closed domain of its weight."""


# absolute slack of the domain test in certify: admits the last-bit
# rounding of nodes built on the boundary, nothing visibly outside
_DOMAIN_SLACK = 1e-12

# points per Gram contraction: bounds the rows held at once; einsum sums
# each entry in one fixed order, whatever the number of BLAS threads
_CHUNK = 8192


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
    raise ConstructionError(
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


def _chebyshev_rows(c: np.ndarray, degree: int) -> np.ndarray:
    """T_0(c), ..., T_degree(c) by the three-term recurrence, one row each."""
    rows = np.empty((degree + 1,) + c.shape)
    rows[0] = 1.0
    if degree >= 1:
        rows[1] = c
    two_c = 2.0 * c
    for p in range(2, degree + 1):
        np.multiply(two_c, rows[p - 1], out=rows[p])
        rows[p] -= rows[p - 2]
    return rows


def _gram(weights: np.ndarray, coords: List[np.ndarray],
          links: Sequence[Tuple[int, int]], degree: int) -> np.ndarray:
    """G[i, j] = sum over points k and links (a, b) of
    w_k R_i(C[a][:, k]) R_j(C[b][:, k]), for i, j <= degree, where each
    C[a] has a leading axis of panels and R_p is the panel mean of T_p.
    One einsum per chunk of _CHUNK points and link, not a matrix product:
    a threaded GEMM sums in an order that moves the last bits."""
    out = np.zeros((degree + 1, degree + 1))
    for c0 in range(0, len(weights), _CHUNK):
        part = slice(c0, c0 + _CHUNK)
        rows = [sum(_chebyshev_rows(panel, degree) for panel in c[:, part]) / len(c)
                for c in coords]
        for a, b in links:
            out += np.einsum("ik,jk->ij", rows[a] * weights[part], rows[b], optimize=False)
    return out


def reference_gram(spec: WeightSpec, degree: int) -> np.ndarray:
    """Table of the integrals of T_i(x1) T_j(x2) (square) or T_i(u1/2)
    T_j(u2) (curved domain) against the weight of spec, exact for
    i + j <= degree, from the tensor Gauss grid of its Jacobi(alpha, beta)
    weight.

    One grid serves the whole table: degree//4 + 2 points (+1 for
    gamma = +1/2) on the square, degree//2 + 2 on the curved domain.
    Its cells (y1, y2) weigh 1/2 lam_a lam_b |y1 - y2|^(2 gamma + 1).
    The curved domain reads its rows at u = (y1 + y2, y1 y2).  The
    square reads them at the fold images of _fold_images, each row the
    mean over the ell panel preimages, scaled by 2^(-2 gamma - 2).
    """
    a, b, g = spec.alpha, spec.beta, spec.gamma
    curved = spec.family == "biangle-gamma"
    npts = degree // 2 + 2 if curved else degree // 4 + 2 + int(g == 0.5)
    q = gauss_rule(jacobi_recurrence(a, b, npts), npts)
    y1 = np.repeat(q.nodes, npts)
    y2 = np.tile(q.nodes, npts)
    w = 0.5 * np.outer(q.weights, q.weights).ravel() * np.abs(y1 - y2) ** (2.0 * g + 1.0)
    if curved:
        return _gram(w, [0.5 * (y1 + y2)[None], (y1 * y2)[None]], [(0, 1)], degree)
    coords, links = _fold_images(spec.ell, y1, y2)
    return _gram(w * 2.0 ** (-2.0 * g - 2.0), coords, links, degree)


def certify(rule: CubatureRule2D, max_degree: int, rel_tol: float = 1e-9) -> ExactnessReport:
    """Compare the rule with reference_gram(rule.spec, max_degree) on every
    Chebyshev product T_i T_j of total degree i + j <= max_degree.

    The rule side is the same Gram contraction over the nodes, at
    (x1, x2) on the square and (u1/2, u2) on the curved domain.  Every
    product is at most 1 in magnitude there, so the error of a product is
    |rule - reference| divided by the mass, the reference T_0 T_0 entry.

    Raises ValueError unless rel_tol is finite and positive and
    max_degree >= 0, and DomainError, before any moment is computed,
    when a node lies outside the rule's closed domain by more than
    1e-12: such a node would carry products beyond 1 in magnitude.
    Raises OverflowError when a reference entry is infinite or NaN,
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        ref = reference_gram(rule.spec, max_degree)
    i, j = np.indices(ref.shape)
    live = i + j <= max_degree
    broken = np.argwhere(live & ~np.isfinite(ref))
    if len(broken):
        bi, bj = broken[np.argmin(broken.sum(axis=1))]
        raise OverflowError("reference moment of T_%d T_%d is %r: the weight's "
                            "moments exceed float range" % (bi, bj, float(ref[bi, bj])))
    if rule.domain == "biangle":
        x = 0.5 * x
    got = _gram(rule.weights, [x[None], y[None]], [(0, 1)], max_degree)
    rel = np.abs(got - ref) / max(abs(float(ref[0, 0])), 1e-300)
    fail = live & ~(rel <= rel_tol)
    order = np.lexsort((i[fail], (i + j)[fail]))
    failures = tuple(zip(i[fail][order].tolist(), j[fail][order].tolist(),
                         rel[fail][order].tolist()))
    return ExactnessReport(
        max_degree_tested=max_degree,
        worst_rel_error=float(rel[live].max()),
        failures=failures,
    )
