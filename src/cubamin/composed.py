"""Cosine-composed weight family and its rotation-orbit minimal rules.

The degree-ell Chebyshev map T_ell folds [-1,1] onto itself ell times.
Pushing a base weight w through the fold gives

    w_ell(t) = w(T_ell(t)) sqrt(1 - T_ell(t)^2) / sqrt(1 - t^2),

whose angular form satisfies w_ell(cos phi) sin phi = w(cos(ell phi))
|sin(ell phi)|.  The two-variable family built on w_ell admits minimal
rules of degree 4*ell*m - 1 whose nodes are full T_ell-preimage orbits of
the degree 4m-1 rule for the base family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .opq1d import (
    RecurrenceCoeffs,
    eval_orthonormal,
    fold_panel_angles,
    gauss_pairs,
    gauss_rule,
)
from .rules import ConstructionError, CubatureRule2D, WeightSpec
from .squaremin import _merge_runs, _pow_with_sentinel, merge_close_nodes

__all__ = [
    "OrbitSet",
    "w_ell_value",
    "orbit_sets",
    "preimage_angles",
    "composed_rule",
    "folding_identity_check",
    "composed_op_identity_check",
]


@dataclass(frozen=True)
class OrbitSet:
    """Product orbit of preimage angles for one (theta, phi) pair."""

    points: np.ndarray
    theta: float
    phi: float
    ell: int
    sign: str

    def __len__(self) -> int:
        return len(self.points)


def w_ell_value(jacobi: Tuple[float, float], ell: int, t) -> np.ndarray:
    """Pointwise value of the folded weight for a Jacobi base.

    The base-weight and square-root factors are combined before
    exponentiation, so points where T_ell hits +-1 get the correct limit
    (0, finite, or the inf sentinel depending on alpha, beta).
    """
    alpha, beta = jacobi
    if ell < 1:
        raise ValueError("ell must be >= 1")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("|t| must be < 1")
    T = np.cos(ell * np.arccos(t))
    out = _pow_with_sentinel(1.0 - T, alpha + 0.5)
    out = out * _pow_with_sentinel(1.0 + T, beta + 0.5)
    return out / np.sqrt(1.0 - t * t)


def preimage_angles(ell: int, theta: float, sign: str, tol: float = 1e-12) -> np.ndarray:
    """All u in [0, pi] with cos(ell u) = cos(theta) (sign '+') or
    -cos(theta) (sign '-'), deduplicated and sorted."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    base = theta if sign == "+" else math.pi - theta
    cand: List[float] = []
    for nu in range(-1, ell + 2):
        for branch in (base, -base):
            u = (2.0 * math.pi * nu + branch) / ell
            if -tol <= u <= math.pi + tol:
                cand.append(min(max(u, 0.0), math.pi))
    cand.sort()
    out: List[float] = []
    for u in cand:
        if not out or u - out[-1] > tol:
            out.append(u)
    return np.array(out)


def orbit_sets(ell: int, theta: float, phi: float) -> Tuple[OrbitSet, OrbitSet]:
    """The two product orbits for the angle pair: points whose ell-fold
    angle images are (-cos theta, -cos phi) resp. (+cos theta, +cos phi).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    both = []
    for sign in ("-", "+"):
        uu = preimage_angles(ell, theta, sign)
        vv = preimage_angles(ell, phi, sign)
        U, V = np.meshgrid(np.cos(uu), np.cos(vv), indexing="ij")
        pts = np.column_stack([U.ravel(), V.ravel()])
        both.append(OrbitSet(points=pts, theta=theta, phi=phi, ell=ell, sign=sign))
    return both[0], both[1]


def composed_rule(
    rc: RecurrenceCoeffs, ell: int, m: int, alpha: float, beta: float
) -> CubatureRule2D:
    """Minimal rule of degree 4*ell*m - 1 with 2 ell^2 m^2 + 2 ell m nodes
    for the composed family over the Jacobi(alpha, beta) base.

    Each unordered Gauss-angle pair spawns four angular orbit nodes, and
    every node splits over the ell^2 panel pairs with equal share
    lam_j lam_k / (2 ell^2), halved for j = k.  Preimages falling on a
    panel junction coincide as points and their shares add, which is how
    the diagonal orbits drop to 2 ell (ell+1) distinct nodes; at ell = 1
    this reproduces the even square rule exactly.
    """
    if ell < 1 or m < 1:
        raise ValueError("ell and m must be >= 1")
    spec = WeightSpec("square-W-ell", alpha=alpha, beta=beta, gamma=-0.5, ell=ell)
    q = gauss_rule(rc, m)
    J, K, share = gauss_pairs(q, False)
    share = share / (2.0 * ell * ell)
    share[J == K] *= 0.5
    theta = np.arccos(q.nodes)
    th = 0.5 * np.abs(theta[J] - theta[K])
    ph = 0.5 * (theta[J] + theta[K])
    # the four angular orbit images of each pair, one axis at a time, and
    # the cosines of their panel preimages: shape (pairs, 4, ell)
    first = np.column_stack([th, ph, math.pi - th, math.pi - ph])
    second = np.column_stack([ph, th, math.pi - ph, math.pi - th])
    x1, x2 = (
        np.cos(np.moveaxis(fold_panel_angles(ell, a), 0, -1)) for a in (first, second)
    )
    # quarter-circle preimages leave ~1e-17 dust; structurally these are
    # exact zeros and downstream parity cancellations need them exact.
    # Panel-junction preimages repeat across adjacent panels, and the
    # repeats carry real weight in the merge below.
    for c in (x1, x2):
        c[np.abs(c) < 1e-14] = 0.0
    # every panel pair of every image, 4 * ell * ell points per pair; each
    # pair's orbit is merged on its own, in one scan over all pairs
    X1, X2 = np.broadcast_arrays(x1[..., :, None], x2[..., None, :])
    block = 4 * ell * ell
    pts, wts, orbit = _merge_runs(
        np.stack([X1, X2], axis=-1).reshape(-1, 2),
        np.repeat(share, block),
        np.repeat(np.arange(len(J)), block),
    )
    got = np.bincount(orbit, minlength=len(J))
    want = np.where(J == K, 2 * ell * (ell + 1), block)
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = bad[0]
        raise ConstructionError(
            "orbit of pair (%d,%d) has %d points, expected %d"
            % (J[i], K[i], got[i], want[i])
        )
    nodes, weights = merge_close_nodes(pts, wts)
    expected = 2 * ell * ell * m * m + 2 * ell * m
    if len(nodes) != expected:
        raise ConstructionError(
            "composed rule has %d nodes after merging, expected %d"
            % (len(nodes), expected)
        )
    return CubatureRule2D(
        nodes=nodes,
        weights=weights,
        degree=4 * ell * m - 1,
        domain="square",
        spec=spec,
        param=m,
        family="composed",
    ).sorted_rule()


def folding_identity_check(ell: int, i: int) -> float:
    """Deviation between the Chebyshev-weight integrals of T_ell(t)^i and
    t^i; identically zero in exact arithmetic for every ell."""
    if ell < 1 or i < 0:
        raise ValueError("ell >= 1 and i >= 0 required")
    n = max(200, ell * i // 2 + 1)
    psi = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    left = math.pi / n * float(np.sum(np.cos(ell * psi) ** i))
    if i % 2 == 1:
        right = 0.0
    else:
        right = math.pi
        for k in range(2, i + 1, 2):
            right *= (k - 1.0) / k
    return abs(left - right)


def composed_op_identity_check(
    rc: RecurrenceCoeffs, ell: int, m: int, grid: int = 200
) -> float:
    """Max deviation of the orthogonality integrals that characterize the
    composed family's degree-ell*m orthogonal polynomial as the base
    polynomial evaluated through T_ell.

    Each integral is assembled panel by panel from a grid-point Gauss rule
    of the base weight; the panel contributions cancel only because the
    preimage cosine sums vanish, which is the identity under test.
    """
    if ell < 1 or m < 1:
        raise ValueError("ell and m must be >= 1")
    if rc.size < grid:
        raise ValueError("recurrence too short for the requested grid")
    q = gauss_rule(rc, grid)
    psi = np.arccos(q.nodes)
    core = q.weights * eval_orthonormal(rc, m, q.nodes)
    ang = fold_panel_angles(ell, psi)
    worst = 0.0
    for k in range(ell * m):
        total = float(np.sum(np.cos(k * ang) @ core))
        worst = max(worst, abs(total / ell))
    return worst
