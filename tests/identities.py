"""The paper's identity checks and pointwise maps, used only by the tests.

None of these functions feeds a rule or a certificate.  They state the
folding identities, the orbit structure and the weight formulas behind
the constructions, and the tests hold the shipped code to them.
preimage_angles runs the shipped opq1d.fold_panel_angles, the panel map
of the composed builder.
"""

import math
from typing import Tuple

import numpy as np

from cubamin.opq1d import RecurrenceCoeffs, eval_orthonormal, fold_panel_angles, gauss_rule
from cubamin.rules import WeightSpec


def chebyshev_moment_1d(i: int) -> float:
    """Integral of t^i (1-t^2)^{-1/2} over [-1,1]: pi (i-1)!!/i!! for even i."""
    if i % 2 == 1:
        return 0.0
    val = math.pi
    for k in range(2, i + 1, 2):
        val *= (k - 1.0) / k
    return val


def map_x_to_u(x1, x2):
    """Symmetric-function coordinates (x1+x2, x1*x2)."""
    return np.asarray(x1) + np.asarray(x2), np.asarray(x1) * np.asarray(x2)


def fold_to_biangle(x1, x2):
    """The degree-2 invariant map (2 x1 x2, x1^2 + x2^2 - 1); it sends the
    square onto the curved domain of module biangle and even-rule nodes
    onto Gauss-cubature nodes there."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return 2.0 * x1 * x2, x1 * x1 + x2 * x2 - 1.0


def _pow_with_sentinel(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with the convention 0**0 = 1, 0**negative = +inf."""
    base = np.asarray(base, dtype=float)
    if expo == 0.0:
        return np.ones_like(base)
    with np.errstate(divide="ignore"):
        out = np.where(base > 0.0, base, 1.0) ** expo
        out = np.where(base > 0.0, out, 0.0 if expo > 0.0 else np.inf)
    return out


def weight_W(spec: WeightSpec, x1, x2):
    """Pointwise weight value for a square-family spec.

    Zero-exponent factors are 1 even on their vanishing line; negative
    exponents produce an inf sentinel there instead of raising.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(np.abs(x1) > 1.0) or np.any(np.abs(x2) > 1.0):
        raise ValueError("points must lie in [-1,1]^2")
    a, b, g = spec.alpha, spec.beta, spec.gamma
    if spec.family == "square-W":
        y1, y2 = x1, x2
    elif spec.family == "square-W-ell":
        ell = spec.ell
        y1 = np.cos(ell * np.arccos(x1))
        y2 = np.cos(ell * np.arccos(x2))
    else:
        raise ValueError("weight_W needs a square-family spec")
    out = _pow_with_sentinel(np.abs(y1 - y2), 2.0 * a + 1.0)
    out = out * _pow_with_sentinel(np.abs(y1 + y2), 2.0 * b + 1.0)
    out = out * _pow_with_sentinel(1.0 - x1 * x1, g)
    out = out * _pow_with_sentinel(1.0 - x2 * x2, g)
    return out


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
    -cos(theta) (sign '-'), sorted: the panel preimages of
    fold_panel_angles, with the twins at panel junctions taken once."""
    if ell < 1 or sign not in ("+", "-"):
        raise ValueError("ell must be >= 1 and sign '+' or '-'")
    base = theta if sign == "+" else math.pi - theta
    u = np.sort(fold_panel_angles(ell, base))
    return u[np.concatenate([[True], np.diff(u) > tol])]


def orbit_sets(ell: int, theta: float, phi: float) -> Tuple[np.ndarray, np.ndarray]:
    """The two product orbits for the angle pair, as point arrays of shape
    (N, 2): points whose ell-fold angle images are (-cos theta, -cos phi)
    resp. (+cos theta, +cos phi).
    """
    both = []
    for sign in ("-", "+"):
        uu = np.cos(preimage_angles(ell, theta, sign))
        vv = np.cos(preimage_angles(ell, phi, sign))
        both.append(np.column_stack([np.repeat(uu, len(vv)), np.tile(vv, len(uu))]))
    return both[0], both[1]


def folding_identity_check(ell: int, i: int) -> float:
    """Deviation between the Chebyshev-weight integrals of T_ell(t)^i and
    t^i; identically zero in exact arithmetic for every ell."""
    if ell < 1 or i < 0:
        raise ValueError("ell >= 1 and i >= 0 required")
    n = max(200, ell * i // 2 + 1)
    psi = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    left = math.pi / n * float(np.sum(np.cos(ell * psi) ** i))
    return abs(left - chebyshev_moment_1d(i))


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
