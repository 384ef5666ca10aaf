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

import numpy as np

from .opq1d import fold_panel_angles, gauss_pairs
from .rules import ConstructionError, CubatureRule2D, WeightSpec
from .squaremin import merge_close_nodes

__all__ = ["composed_rule"]


def composed_rule(spec: WeightSpec, m: int) -> CubatureRule2D:
    """Minimal rule of degree 4*ell*m - 1 with 2 ell^2 m^2 + 2 ell m nodes
    for the composed weight of spec, the fold of degree ell over its
    Jacobi(alpha, beta) base.

    Each unordered Gauss-angle pair spawns four angular orbit nodes, and
    every node splits over the ell^2 panel pairs with equal share
    lam_j lam_k / (2 ell^2), halved for j = k.  Preimages falling on a
    panel junction coincide as points and their shares add, which is how
    the diagonal orbits drop to 2 ell (ell+1) distinct nodes.  At ell = 1
    this is the even square rule up to rounding, not bit for bit: a node
    may differ in its last bits, and the sorted rows then in their order.
    """
    ell = spec.ell
    t, J, K, w = gauss_pairs(spec.alpha, spec.beta, m, spec.gamma)
    share = w / (2.0 * ell * ell)
    theta = np.arccos(t)
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
    pts, wts, orbit = merge_close_nodes(
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
    return CubatureRule2D(nodes=pts, weights=wts, spec=spec, param=m,
                          family="composed").sorted_rule()
