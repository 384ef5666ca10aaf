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

import numpy as np

from .opq1d import gauss_pairs
from .rules import CubatureRule2D, WeightSpec

__all__ = [
    "gauss_cubature_biangle",
]


def gauss_cubature_biangle(spec: WeightSpec, n: int) -> CubatureRule2D:
    """Gauss cubature of degree 2n-1 with n(n+1)/2 nodes.

    gamma = -1/2: nodes are the symmetric images of unordered pairs of the
    n-point Gauss abscissae; a pair taken twice lands on the parabolic arc
    and carries half the product weight.
    gamma = +1/2: strict pairs of the (n+1)-point Gauss abscissae; the
    squared node gap absorbs the |x1-x2|^2 weight factor.
    """
    t, J, K, weights = gauss_pairs(spec.alpha, spec.beta, n, spec.gamma)
    if spec.gamma == 0.5:
        # square each gap with libm pow, element by element, as the scalar
        # formula lam_j lam_k (t_j - t_k)**2 does: numpy's vectorized square
        # differs from pow in the last bit for some gaps, and rule files
        # must stay byte-identical
        weights = weights * np.array([gap**2 for gap in (t[J] - t[K]).tolist()])
    return CubatureRule2D(
        nodes=np.column_stack([t[J] + t[K], t[J] * t[K]]),
        weights=weights,
        spec=spec,
        param=n,
        family="biangle",
    ).sorted_rule()
