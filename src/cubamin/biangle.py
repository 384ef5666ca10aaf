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

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .opq1d import RecurrenceCoeffs, gauss_pairs, gauss_rule, jacobi_recurrence
from .rules import CubatureRule2D, WeightSpec

__all__ = [
    "in_omega",
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


def gauss_cubature_biangle(spec: WeightSpec, n: int) -> CubatureRule2D:
    """Gauss cubature of degree 2n-1 with n(n+1)/2 nodes.

    gamma = -1/2: nodes are the symmetric images of unordered pairs of the
    n-point Gauss abscissae; a pair taken twice lands on the parabolic arc
    and carries half the product weight.
    gamma = +1/2: strict pairs of the (n+1)-point Gauss abscissae; the
    squared node gap absorbs the |x1-x2|^2 weight factor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.family != "biangle-gamma":
        raise ValueError("gauss_cubature_biangle needs a biangle-gamma spec")
    gamma = spec.gamma
    q = gauss_rule(jacobi_recurrence(spec.alpha, spec.beta, n + 1), n + 1 if gamma == 0.5 else n)
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
    alpha: float, beta: float, gamma: float, pairs: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], float]:
    """Reference moments of u1^a u2^b against the Jacobi(alpha, beta)
    biangle weight, on the tensor grid at u = (y1 + y2, y1 y2); (a+b)//2 + 2
    points are exact.  For an even 1-D weight, odd a dies by reflecting both
    coordinates, and a = 0 with odd b and no coupling factor leaves the lone
    term mu_b^2 with an odd 1-D moment.
    """
    pairs = list(pairs)
    if any(min(p) < 0 for p in pairs):
        raise ValueError("exponents must be nonnegative")

    def npts(d: int) -> int:
        return d // 2 + 2

    rc = jacobi_recurrence(alpha, beta, max([npts(a + b) for a, b in pairs], default=1))
    even = bool(np.all(rc.a == 0.0))
    live = [(a, b) for (a, b) in pairs if not (even and (
        a % 2 == 1 or (gamma == -0.5 and a == 0 and b % 2 == 1)))]
    got = tensor_moments(
        rc, gamma, live, npts,
        images=lambda y1, y2: ([y1 + y2, y1 * y2], [(0, 1)]),
        row=lambda u, p: u**p,
    )
    return {p: got.get(p, 0.0) for p in pairs}
