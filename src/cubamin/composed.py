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
from .rules import CubatureRule2D, WeightSpec

__all__ = ["composed_rule"]


def composed_rule(spec: WeightSpec, m: int) -> CubatureRule2D:
    """Minimal rule of degree 4*ell*m - 1 with 2 ell^2 m^2 + 2 ell m nodes
    for the composed weight of spec, the fold of degree ell over its
    Jacobi(alpha, beta) base.

    Each unordered Gauss-angle pair spawns four angular orbit nodes, and
    every node splits over the ell^2 panel pairs with equal share
    lam_j lam_k / (2 ell^2), halved for j = k.  Only a pair j = k has
    preimages that coincide, on a panel junction; each such twin is one
    point carrying both shares, so its orbit has 2 ell (ell+1) nodes by
    construction, with no merge.  At ell = 1 this is the even square rule
    up to rounding, not bit for bit: a node may differ in its last bits,
    and the sorted rows then in their order.
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
    for c in (x1, x2):
        c[np.abs(c) < 1e-14] = 0.0
    # Only a pair j = k (th = 0) folds an axis to 0 (images 0, 1) or pi
    # (images 2, 3), image i on axis i % 2, and those preimages meet at panel
    # junctions: at 0 panel 2 repeats 1, 4 repeats 3, ...; at pi 1 repeats
    # 0, 3 repeats 2, ...  count[axis] is each preimage's number of shares:
    # 0 for a repeat, 2 for the panel it repeats, which keeps the smaller
    # cosine of the two (at pi they may differ in the last bit).
    count = np.ones((2,) + x1.shape)
    for image in range(4):
        count[image % 2, J == K, image, 2 - image // 2::2] = 0.0
    for c, k in zip((x1, x2), count):
        twin = k[..., 1:] == 0.0
        c[..., :-1][twin] = np.minimum(c[..., :-1], c[..., 1:])[twin]
        k[..., :-1][twin] = 2.0
    # every panel pair of every image that carries a share: 4 ell^2 points
    # per strict pair and 2 ell (ell+1) per pair j = k; the shares are
    # multiplied after the selection, as an inf share times 0 is nan
    X1, X2 = np.broadcast_arrays(x1[..., :, None], x2[..., None, :])
    n_shares = count[0][..., :, None] * count[1][..., None, :]
    keep = n_shares > 0.0
    pts = np.stack([X1, X2], axis=-1)[keep]
    wts = np.broadcast_to(share[:, None, None, None], keep.shape)[keep] * n_shares[keep]
    return CubatureRule2D(nodes=pts, weights=wts, spec=spec, param=m,
                          family="composed").sorted_rule()
