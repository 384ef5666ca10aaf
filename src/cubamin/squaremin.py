"""Minimal cubature rules on [-1,1]^2 attaining the lower node bound.

Weight family on the square:

    W(x1, x2) = |x1-x2|^(2a+1) |x1+x2|^(2b+1) (1-x1^2)^g (1-x2^2)^g

with Jacobi parameters a, b > -1 and g = +-1/2.  Even degrees 4m-1 admit
fully explicit rules built from 1-D Gauss nodes in half-angle pairs; odd
degrees 4m+1 add points on the diagonal (g = -1/2) or anti-diagonal
(g = +1/2), with weights recovered from a symmetry-reduced moment system.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from . import oracle as _oracle
from .opq1d import diagonal_zero_set, gauss_pairs
from .rules import ConstructionError, CubatureRule2D, WeightSpec, rule_shape

__all__ = [
    "moller_bound",
    "minimal_rule_even",
    "minimal_rule_odd",
    "half_angle_orbit",
    "merge_close_nodes",
]


# per-axis distance within which two nodes are one point and their weights add
_MERGE_TOL = 1e-12


def moller_bound(n: int) -> int:
    """Lower bound on the node count of a degree 2n-1 cubature rule for a
    centrally symmetric weight on the square."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n + 1) // 2 + n // 2


def half_angle_orbit(c_j, c_k) -> np.ndarray:
    """The four sign-and-swap images of the half-angle points, as an array
    of shape c_j.shape + (4, 2) in the order (s,t), (t,s), (-s,-t), (-t,-s).

    Takes the plain cosines c = cos(theta) and forms
    s = cos((theta_j - theta_k)/2), t = cos((theta_j + theta_k)/2)
    through s + t = sqrt((1+c_j)(1+c_k)), s - t = sqrt((1-c_j)(1-c_k)).
    The algebraic route keeps the structural cases exact: c_j == c_k
    gives the boundary orbit (1, c_j), and c_k == -c_j gives t == 0.0
    bit for bit, which downstream zero-sum cancellations rely on.
    """
    c_j = np.asarray(c_j, dtype=float)
    c_k = np.asarray(c_k, dtype=float)
    p = np.sqrt((1.0 + c_j) * (1.0 + c_k))
    q = np.sqrt((1.0 - c_j) * (1.0 - c_k))
    same = c_j == c_k
    s = np.where(same, 1.0, 0.5 * (p + q))
    t = np.where(same, c_j, 0.5 * (p - q))
    images = [(s, t), (t, s), (-s, -t), (-t, -s)]
    return np.stack([np.stack(im, axis=-1) for im in images], axis=-2)


def merge_close_nodes(
    points: Sequence[Tuple[float, float]], weights: Sequence[float], group: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points that coincide within a group, as one point carrying their
    summed weight: the runs of the points sorted by group, then x, then y.
    A point within _MERGE_TOL per axis of the first point of the current
    run, and in its group, adds its weight to the run; any other point
    starts a run.  Returns the run points, their summed weights and their
    groups.

    The runs are found with array code.  A run starts wherever a point is
    not near the anchor (the first point) of the run before it; since that
    anchor is set by the starts themselves, the starts are iterated to
    their fixed point from the breaks between neighbours.  Each pass fixes
    at least one more leading start, and the fixed point is unique: it is
    the sequential scan's.  Run weights are summed left to right, one run
    position at a time, so every sum is the scan's bit for bit.
    """
    pts = np.asarray(points, dtype=float).reshape(len(points), 2)
    wts, group = np.asarray(weights, dtype=float), np.asarray(group)
    order = np.lexsort((pts[:, 1], pts[:, 0], group))
    x, y, g, w = pts[order, 0], pts[order, 1], group[order], wts[order]
    idx = np.arange(len(x))

    def near(k: np.ndarray, a: np.ndarray) -> np.ndarray:
        return ((g[k] == g[a]) & (np.abs(x[k] - x[a]) <= _MERGE_TOL)
                & (np.abs(y[k] - y[a]) <= _MERGE_TOL))

    start = np.ones(len(x), dtype=bool)
    start[1:] = ~near(idx[1:], idx[:-1])
    while True:
        anchor = np.maximum.accumulate(np.where(start, idx, 0))
        again = start.copy()
        again[1:] = ~near(idx[1:], anchor[:-1])
        if np.array_equal(again, start):
            break
        start = again

    first = np.flatnonzero(start)
    length = np.diff(np.append(first, len(x)))
    total = w[first]
    for pos in range(1, int(length.max(initial=1))):
        runs = np.flatnonzero(length > pos)
        total[runs] += w[first[runs] + pos]
    return np.column_stack([x[first], y[first]]), total, g[first]


def minimal_rule_even(spec: WeightSpec, m: int) -> CubatureRule2D:
    """Minimal rule of degree 4m-1 with 2m(m+1) nodes.

    g = -1/2: half-angle orbits of all unordered pairs of the m-point
    Gauss angles, per-point weight lam_j lam_k / 2, halved again on the
    diagonal j = k (whose orbits land on the square's boundary).
    g = +1/2: strict pairs of the (m+1)-point Gauss angles, per-point
    weight lam_j lam_k (t_j - t_k)^2 / 8.
    """
    t, J, K, w4 = gauss_pairs(spec.alpha, spec.beta, m, spec.gamma)
    if spec.gamma == -0.5:
        w4 = w4 / 2.0
    else:
        gap = t[J] - t[K]
        w4 = w4 * gap * gap / 8.0
    pts = half_angle_orbit(t[J], t[K]).reshape(-1, 2)
    return CubatureRule2D(nodes=pts, weights=np.repeat(w4, 4), spec=spec, param=m,
                          family="square-even").sorted_rule()


def _symmetrized_cos_rows(
    pairs: Sequence[Tuple[int, int]], classes: Sequence[np.ndarray]
) -> np.ndarray:
    """Matrix of per-class sums of the swap-symmetrized product cosines."""
    i, j = (np.array(e)[:, None] for e in zip(*pairs))
    A = np.zeros((len(pairs), len(classes)))
    for c, ang in enumerate(np.arccos(np.clip(x, -1.0, 1.0)) for x in classes):
        v1 = np.cos(i * ang[:, 0]) * np.cos(j * ang[:, 1])
        v2 = np.cos(j * ang[:, 0]) * np.cos(i * ang[:, 1])
        A[:, c] = np.sum(np.where(i == j, v1, v1 + v2), axis=1)
    return A


def minimal_rule_odd(spec: WeightSpec, m: int) -> CubatureRule2D:
    """Minimal rule of degree 4m+1 with 2(m+1)^2 - 1 nodes.

    The off-diagonal orbits come from the zeros of a parameter-shifted
    1-D orthogonal polynomial; 2m+1 extra points sit on the diagonal
    (g = -1/2) or the anti-diagonal (g = +1/2).  Class weights solve the
    moment system over the swap-and-parity invariant subspace; the solve
    must reach residual 1e-9 relative with all weights positive, else the
    construction fails loudly.
    """
    alpha, beta, gamma = spec.alpha, spec.beta, spec.gamma

    if gamma == -0.5:
        zeros, J, K, _ = gauss_pairs(alpha + 1.0, beta, m, gamma)
        line = diagonal_zero_set(alpha, beta, m, "-")
    else:
        zeros, J, K, _ = gauss_pairs(alpha, beta + 1.0, m, gamma)
        line = diagonal_zero_set(alpha, beta, m, "+")
    classes = list(half_angle_orbit(zeros[J], zeros[K]))
    # the extra line nodes: the origin, then mirror pairs on the diagonal
    # (gamma = -1/2) or the anti-diagonal (gamma = +1/2)
    classes.append(np.array([[0.0, 0.0]]))
    for x in line[line > 0.0]:
        y = x if gamma == -0.5 else -x
        classes.append(np.array([[x, y], [-x, -y]]))

    deg = rule_shape("square-odd", m)[0]
    pairs = [
        (i, j)
        for j in range(deg + 1)
        for i in range(j + 1)
        if (i + j) % 2 == 0 and i + j <= deg
    ]
    A = _symmetrized_cos_rows(pairs, classes)
    raw = _oracle.cos_basis_moments(alpha, beta, gamma, pairs)
    b = np.array([(2.0 if i != j else 1.0) * v for (i, j), v in zip(pairs, raw)])

    # solve and gate on b / 2^e, e the binary exponent of max |b|: a power
    # of two commutes with every rounding of the solve, so the weights keep
    # their bits, and the norms stay in float range for moments near 1e160
    # (beta = 300)
    e = int(np.frexp(np.max(np.abs(b)))[1])
    scaled = np.ldexp(b, -e)
    w, _, rank, sv = np.linalg.lstsq(A, scaled, rcond=None)
    resid = float(np.linalg.norm(A @ w - scaled))
    if resid > 1e-9 * float(np.linalg.norm(scaled)):
        raise ConstructionError(
            "odd-rule moment system residual %.3e exceeds tolerance (rank %d/%d)"
            % (math.ldexp(resid, e), rank, len(classes))
        )
    sol = np.ldexp(w, e)
    if np.any(sol <= 0.0):
        # against the solve's resolution, cond * eps of the largest weight,
        # so that a weight lost in rounding reads as such
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
        with np.errstate(invalid="ignore"):  # nan when every weight is 0
            spread = float(w.min() / np.abs(w).max())
        raise ConstructionError(
            "odd-rule weights not positive (min/max %.3e, cond * eps %.3e)"
            % (spread, cond * np.finfo(float).eps))

    wts = np.repeat(sol, [len(c) for c in classes])
    return CubatureRule2D(nodes=np.vstack(classes), weights=wts, spec=spec, param=m,
                          family="square-odd").sorted_rule()
