"""Gauss cubature on the parabolic biangle.

The domain is the image of the square [-1,1]^2 under the symmetric map
(x1,x2) -> (x1+x2, x1*x2); it is bounded above by the parabola
u1^2 = 4 u2 and below by the two lines u2 = u1 - 1 and u2 = -u1 - 1.
Integrals against the mapped product weight are normalized with a factor
one half so that the covering is counted once:

    I[f] = (1/2) * integral over the square of
           f(x1+x2, x1*x2) w(x1) w(x2) |x1-x2|^(2*gamma+1) dx1 dx2.

For gamma = -1/2 and gamma = +1/2 the rules below are Gauss rules: they
integrate every polynomial of total degree 2n-1 in (u1,u2) exactly with
n(n+1)/2 positive-weight nodes inside the closed domain.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .opq1d import (
    RecurrenceCoeffs,
    divided_difference,
    eval_orthonormal,
    gauss_pairs,
    gauss_rule,
)
from .rules import CubatureRule2D, WeightSpec

__all__ = [
    "split_u_to_x",
    "in_omega",
    "eval_koornwinder",
    "gauss_cubature_biangle",
    "biangle_moments",
    "tensor_moments",
]


def in_omega(u1, u2, tol: float = 0.0) -> np.ndarray:
    """Membership test for the closed domain, with optional slack tol."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    above = u1 * u1 - 4.0 * u2 >= -tol
    below = 1.0 + u2 - np.abs(u1) >= -tol
    return above & below


def split_u_to_x(u1, u2):
    """Recover the unordered root pair {x1, x2} of z^2 - u1 z + u2.

    The larger-magnitude root is taken from the quadratic formula and the
    other from the product, avoiding cancellation.  Points outside the
    domain (negative discriminant) produce a ValueError.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    disc = u1 * u1 - 4.0 * u2
    if np.any(disc < -1e-13 * np.maximum(1.0, u1 * u1)):
        raise ValueError("point below the parabolic arc has complex roots")
    s = np.sqrt(np.maximum(disc, 0.0))
    big = np.where(u1 >= 0.0, 0.5 * (u1 + s), 0.5 * (u1 - s))
    with np.errstate(divide="ignore", invalid="ignore"):
        other = np.where(big != 0.0, u2 / np.where(big != 0.0, big, 1.0), 0.0)
    return big, other


def _pair_basis(rc: RecurrenceCoeffs, hi: int, lo: int, gamma: float, x1, x2):
    """Koornwinder's pair kernel at the root pair (x1, x2): the symmetrized
    product p_hi(x1) p_lo(x2) + p_hi(x2) p_lo(x1) for gamma = -1/2, the
    divided difference of order hi+1 for gamma = +1/2."""
    if gamma == -0.5:
        return (
            eval_orthonormal(rc, hi, x1) * eval_orthonormal(rc, lo, x2)
            + eval_orthonormal(rc, hi, x2) * eval_orthonormal(rc, lo, x1)
        )
    if gamma == 0.5:
        return divided_difference(rc, hi + 1, lo, x1, x2)
    raise ValueError("gamma restricted to -1/2 and +1/2")


def eval_koornwinder(
    rc: RecurrenceCoeffs, n: int, k: int, gamma: float, p
) -> np.ndarray:
    """Orthonormal bivariate basis element of degree n, index 0 <= k <= n,
    at points p with columns (u1, u2).

    gamma = -1/2: symmetrized products of the 1-D orthonormal family,
    scaled by 1/sqrt(2) at k = n.
    gamma = +1/2: divided differences of order-(n+1) products; on the
    parabolic arc (coincident roots) the quotient is replaced by its
    derivative limit.
    """
    if not 0 <= k <= n:
        raise ValueError("index k must satisfy 0 <= k <= n")
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    x1, x2 = split_u_to_x(pts[:, 0], pts[:, 1])
    out = _pair_basis(rc, n, k, gamma, x1, x2)
    return out / math.sqrt(2.0) if gamma == -0.5 and k == n else out


def gauss_cubature_biangle(
    rc: RecurrenceCoeffs, n: int, gamma: float
) -> CubatureRule2D:
    """Gauss cubature of degree 2n-1 with n(n+1)/2 nodes.

    gamma = -1/2: nodes are the symmetric images of unordered pairs of the
    n-point Gauss abscissae; a pair taken twice lands on the parabolic arc
    and carries half the product weight.
    gamma = +1/2: strict pairs of the (n+1)-point Gauss abscissae; the
    squared node gap absorbs the |x1-x2|^2 weight factor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = WeightSpec("biangle-gamma", gamma=gamma)
    q = gauss_rule(rc, n + 1 if gamma == 0.5 else n)
    J, K, weights = gauss_pairs(q, gamma == 0.5)
    t = q.nodes
    if gamma == -0.5:
        weights[J == K] *= 0.5
    else:
        # square each gap with libm pow, element by element, as the scalar
        # formula lam_j lam_k (t_j - t_k)**2 does: numpy's vectorized square
        # differs from pow in the last bit for some gaps, and rule files
        # must stay byte-identical
        weights = weights * np.array([gap**2 for gap in (t[J] - t[K]).tolist()])
    return CubatureRule2D(
        nodes=np.column_stack([t[J] + t[K], t[J] * t[K]]),
        weights=weights,
        degree=2 * n - 1,
        spec=spec,
        param=n,
        family="biangle",
    ).sorted_rule()


def tensor_moments(
    rc: RecurrenceCoeffs, gamma: float, pairs: Iterable[Tuple[int, int]],
    npts: Callable, images: Callable, row: Callable,
) -> Dict[Tuple[int, int], float]:
    """Exact moments on Koornwinder's tensor grid, one per pair (i, j).

    The grid is the npts(i + j)-point Gauss grid (Y1, Y2) of rc's weight,
    with cell weights 1/2 lam_a lam_b |y_a - y_b|^(2 gamma + 1).  images
    maps it to per-axis coordinate arrays C and index links (a, b); the
    pair sums row(C[a], i) row(C[b], j) over the links.  Sized by its own
    degree, a moment does not depend on the batch; rows are kept per grid.
    """
    if gamma not in (-0.5, 0.5):
        raise ValueError("gamma restricted to -1/2 and +1/2")
    out: Dict[Tuple[int, int], float] = {}
    grid = None
    for (i, j) in sorted(pairs, key=lambda p: npts(p[0] + p[1])):
        if grid != npts(i + j):
            grid = npts(i + j)
            q = gauss_rule(rc, grid)
            Y1, Y2 = np.meshgrid(q.nodes, q.nodes, indexing="ij")
            gap = np.abs(Y1 - Y2) ** (2.0 * gamma + 1.0)
            W = 0.5 * np.outer(q.weights, q.weights) * gap
            coords, links = images(Y1, Y2)
            rows = {}
        for p in (i, j):
            if p not in rows:
                rows[p] = [row(c, p) for c in coords]
        linked = sum(rows[i][a] * rows[j][b] for a, b in links)
        out[(i, j)] = float(np.sum(W * linked))
    return out


def biangle_moments(
    rc: RecurrenceCoeffs, gamma: float, pairs: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], float]:
    """Reference moments of u1^a u2^b on the tensor grid at u = (y1 + y2,
    y1 y2); (a+b)//2 + 2 points are exact.  For an even 1-D weight, odd a
    dies by reflecting both coordinates, and a = 0 with odd b and no
    coupling factor leaves the lone term mu_b^2 with an odd 1-D moment.
    """
    pairs = list(pairs)
    if any(min(p) < 0 for p in pairs):
        raise ValueError("exponents must be nonnegative")
    even = bool(np.all(rc.a == 0.0))
    live = [(a, b) for (a, b) in pairs if not (even and (
        a % 2 == 1 or (gamma == -0.5 and a == 0 and b % 2 == 1)))]
    got = tensor_moments(
        rc, gamma, live,
        npts=lambda d: d // 2 + 2,
        images=lambda y1, y2: ([y1 + y2, y1 * y2], [(0, 1)]),
        row=lambda u, p: u**p,
    )
    return {p: got.get(p, 0.0) for p in pairs}
