"""The paper's identity checks, pointwise maps and orthogonal bases, used
only by the tests.

None of these functions feeds a rule or a certificate.  They state the
folding identities, the orbit structure and the weight formulas behind
the constructions, and the tests hold the shipped code to them.
preimage_angles runs the shipped opq1d.fold_panel_angles, the panel map
of the composed builder.  reference_certify is the monomial certificate
that certify replaced: it compares each x^i y^j with the moments of
monomial_oracle, which runs tensor_moments, the exact engine that sized
one Gauss grid per pair, and it must agree with certify on the degree
every rule is exact through; monomials_from_gram maps certify's Chebyshev
tables onto the same moments.  grid_square_gram is the square table of
reference_gram by the route its closed form replaced, the tensor Gauss
grid read at the fold images of fold_images, which square_moments also
runs.  reference_min_node_gap is the all-pairs
scan that the plot's sorted scan must match.  reference_positive_zeros is the one-bracket-at-a-time zero
search of the odd builder's diagonal abscissas, which the lockstep search
in opq1d must match bit for bit.  in_omega is the membership test of the
curved domain that the sample grids of criterion 5 are drawn with.

The orthogonal-basis evaluators (eval_orthonormal and its derivative,
divided_difference, eval_koornwinder on the curved domain and eval_Q_basis
on the square) serve criterion 5: the builders take their nodes straight
from 1-D Gauss rules, and these check that the nodes are common zeros of
the top-degree orthogonal polynomials, as the paper constructs them.
"""

import math
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from cubamin.opq1d import (
    RecurrenceCoeffs,
    fold_panel_angles,
    gauss_rule,
    jacobi_recurrence,
)
from cubamin.rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec


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


def in_omega(u1, u2) -> np.ndarray:
    """Membership of the closed curved domain, without certify's slack: on
    or under the parabola u1^2 = 4 u2, on or above the lines u2 = |u1| - 1.
    The tests draw their sample grids inside the domain with it."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    return (u1 * u1 - 4.0 * u2 >= 0.0) & (1.0 + u2 - np.abs(u1) >= 0.0)


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
    if spec.family != "square-W":
        raise ValueError("weight_W needs a square-family spec")
    if spec.ell == 1:
        y1, y2 = x1, x2
    else:
        ell = spec.ell
        y1 = np.cos(ell * np.arccos(x1))
        y2 = np.cos(ell * np.arccos(x2))
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


def fold_images(ell: int, y1: np.ndarray, y2: np.ndarray):
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


def grid_square_gram(spec: WeightSpec, degree: int) -> np.ndarray:
    """The square table of reference_gram by the grid route: the
    (degree//4 + 2)-point (+1 at gamma = +1/2) tensor Gauss grid of the
    Jacobi(alpha, beta) weight, with cell weights
    1/2 lam_a lam_b |y1 - y2|^(2 gamma + 1) 2^(-2 gamma - 2), read at the
    images of fold_images; each row is the mean of T_p over the ell panel
    preimages.  Exact for i + j <= degree, by quadrature in place of the
    closed form."""
    a, b, g = spec.alpha, spec.beta, spec.gamma
    npts = degree // 4 + 2 + int(g == 0.5)
    q = gauss_rule(jacobi_recurrence(a, b, npts), npts)
    y1 = np.repeat(q.nodes, npts)
    y2 = np.tile(q.nodes, npts)
    w = (0.5 * np.outer(q.weights, q.weights).ravel() * np.abs(y1 - y2) ** (2.0 * g + 1.0)
         * 2.0 ** (-2.0 * g - 2.0))
    coords, links = fold_images(spec.ell, y1, y2)
    rows = [np.polynomial.chebyshev.chebvander(c, degree).mean(axis=0) for c in coords]
    return sum((rows[i] * w[:, None]).T @ rows[j] for i, j in links)


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
                         lambda y1, y2: fold_images(ell, y1, y2),
                         lambda c, p: np.sum(c**p, axis=0) / ell)
    scale = 2.0 ** (-2.0 * gamma - 2.0)
    return {p: scale * got.get(p, 0.0) for p in pairs}


class MonomialOracle:
    """Cached monomial moments: compute(pairs) returns {(i, j): moment} for
    a batch of exponent pairs, and each pair is computed once."""

    def __init__(
        self, compute: Callable[[List[Tuple[int, int]]], Dict[Tuple[int, int], float]]
    ):
        self._compute = compute
        self._cache: Dict[Tuple[int, int], float] = {}

    def moments(self, pairs) -> Dict[Tuple[int, int], float]:
        missing = [p for p in pairs if p not in self._cache]
        if missing:
            self._cache.update(self._compute(missing))
        return {p: self._cache[p] for p in pairs}

    def moment(self, i: int, j: int) -> float:
        return self.moments([(i, j)])[(i, j)]

    @property
    def mass(self) -> float:
        return self.moment(0, 0)


def monomial_oracle(spec: WeightSpec) -> MonomialOracle:
    """Moments of x1^i x2^j (square) or u1^i u2^j (curved domain) against
    the weight of spec."""
    a, b, g = spec.alpha, spec.beta, spec.gamma
    if spec.family == "biangle-gamma":
        return MonomialOracle(lambda pairs: biangle_moments(a, b, g, pairs))
    return MonomialOracle(lambda pairs: square_moments(a, b, g, spec.ell, pairs))


def monomials_from_gram(gram: np.ndarray, curved: bool) -> np.ndarray:
    """Moments of x1^i x2^j (square) or u1^i u2^j (curved domain) from a
    table of Chebyshev moments (reference_gram), valid for i + j up to
    the table's exact degree.  The change of basis x^k = sum_a P[k, a]
    T_a(x) has coefficients that are nonnegative, sum to 1 and vanish for
    a > k, so it adds no more than the table's own error; the curved
    table is read at u1/2, so row i is scaled by 2^i."""
    n = len(gram)
    P = np.zeros((n, n))
    for k in range(n):
        P[k, : k + 1] = np.polynomial.chebyshev.poly2cheb([0.0] * k + [1.0])
    out = P @ gram @ P.T
    return out * 2.0 ** np.arange(n)[:, None] if curved else out


def reference_certify(
    rule: CubatureRule2D, moments: MonomialOracle, max_degree: int, rel_tol: float = 1e-9
) -> ExactnessReport:
    """The monomial certificate, without certify's input and domain checks:
    the error of x^i y^j is |rule - moment| divided by max(|moment|,
    mass * max |x^i y^j| over the nodes).  Its defect at degree 2n falls
    as 4^-n, so on large rules it passes degrees the rule does not have."""
    pairs = [(i, d - i) for d in range(max_degree + 1) for i in range(d + 1)]
    ref = moments.moments(pairs)
    mass = moments.mass
    xp = np.vander(rule.nodes[:, 0], max_degree + 1, increasing=True)
    yp = np.vander(rule.nodes[:, 1], max_degree + 1, increasing=True)
    failures = []
    worst = 0.0
    for (i, j) in pairs:
        vals = xp[:, i] * yp[:, j]
        approx = float(np.dot(rule.weights, vals))
        scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
        denom = max(abs(ref[(i, j)]), abs(mass) * scale, 1e-300)
        rel = abs(approx - ref[(i, j)]) / denom
        worst = max(worst, rel)
        if rel > rel_tol:
            failures.append((i, j, rel))
    failures.sort(key=lambda t: (t[0] + t[1], t[0]))
    return ExactnessReport(
        max_degree_tested=max_degree,
        worst_rel_error=worst,
        failures=tuple(failures),
    )


def eval_orthonormal(rc: RecurrenceCoeffs, n: int, t):
    """Value of the orthonormal polynomial p_n at t (scalar or array)."""
    return _orthonormal_series(rc, n, t)[0]


def eval_orthonormal_deriv(rc: RecurrenceCoeffs, n: int, t):
    """(p_n(t), p_n'(t)) via the differentiated recurrence."""
    return _orthonormal_series(rc, n, t, want_deriv=True)


def _orthonormal_series(rc: RecurrenceCoeffs, n: int, t, want_deriv: bool = False):
    if n < 0:
        raise ValueError("degree must be >= 0")
    # p_n needs a_0..a_{n-1} and b_1..b_n
    if n > rc.size or (n >= 1 and n - 1 > len(rc.b)):
        raise ValueError("insufficient recurrence coefficients for degree %d" % n)
    t = np.asarray(t, dtype=float)
    p_prev = np.zeros_like(t)
    p = np.full_like(t, 1.0 / math.sqrt(rc.mu0))
    d_prev = np.zeros_like(t)
    d = np.zeros_like(t)
    for k in range(n):
        sb_next = math.sqrt(rc.b[k]) if k < len(rc.b) else None
        if sb_next is None:
            raise ValueError("insufficient recurrence coefficients")
        sb = math.sqrt(rc.b[k - 1]) if k >= 1 else 0.0
        p_next = ((t - rc.a[k]) * p - sb * p_prev) / sb_next
        if want_deriv:
            d_next = (p + (t - rc.a[k]) * d - sb * d_prev) / sb_next
            d_prev, d = d, d_next
        p_prev, p = p, p_next
    if want_deriv:
        return p, d
    return p, None


def divided_difference(rc: RecurrenceCoeffs, hi: int, lo: int, x1, x2) -> np.ndarray:
    """(p_hi(x1) p_lo(x2) - p_hi(x2) p_lo(x1)) / (x1 - x2) for the
    orthonormal family of rc.

    Where |x1 - x2| < 1e-5 the quotient is replaced by its limit
    p_hi' p_lo - p_hi p_lo' at the midpoint, so coincident arguments (the
    parabolic arc, the edges of the square) evaluate without cancellation.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    diff = x1 - x2
    out = np.empty_like(diff)
    near = np.abs(diff) < 1e-5
    far = ~near
    if np.any(far):
        a, b = x1[far], x2[far]
        out[far] = (
            eval_orthonormal(rc, hi, a) * eval_orthonormal(rc, lo, b)
            - eval_orthonormal(rc, hi, b) * eval_orthonormal(rc, lo, a)
        ) / diff[far]
    if np.any(near):
        c = 0.5 * (x1[near] + x2[near])
        p_hi, d_hi = eval_orthonormal_deriv(rc, hi, c)
        p_lo, d_lo = eval_orthonormal_deriv(rc, lo, c)
        out[near] = d_hi * p_lo - p_hi * d_lo
    return out


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


def eval_Q_basis(
    alpha: float,
    beta: float,
    gamma: float,
    n: int,
    branch: int,
    k: int,
    x1,
    x2,
) -> np.ndarray:
    """Degree-n orthogonal basis element (two branches) for the square
    weight family: Koornwinder's pair kernel (_pair_basis) at the folded
    root pair
    cos(th1 - th2) = x1 x2 + sqrt((1-x1^2)(1-x2^2)) and
    cos(th1 + th2) = x1 x2 - sqrt((1-x1^2)(1-x2^2)).

    Branch 2 carries the antisymmetric polynomial factor (x1^2 - x2^2)
    for even n; odd degrees split into (x1 + x2) and (x1 - x2) branches
    with correspondingly parameter-shifted 1-D families.
    """
    if gamma not in (-0.5, 0.5):
        raise ValueError("gamma restricted to -1/2 and +1/2")
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(np.abs(x1) > 1.0) or np.any(np.abs(x2) > 1.0):
        raise ValueError("points must lie in [-1,1]^2")
    root = np.sqrt(np.maximum(1.0 - x1 * x1, 0.0) * np.maximum(1.0 - x2 * x2, 0.0))
    cm = np.clip(x1 * x2 + root, -1.0, 1.0)
    cp = np.clip(x1 * x2 - root, -1.0, 1.0)
    half, rem = divmod(n, 2)
    if rem == 0:
        if branch == 1:
            big, da, db, factor = half, 0.0, 0.0, 1.0
        else:
            if half < 1:
                raise ValueError("branch 2 needs n >= 2 for even degrees")
            big, da, db = half - 1, 1.0, 1.0
            factor = x1 * x1 - x2 * x2
    else:
        if branch == 1:
            big, da, db = half, 0.0, 1.0
            factor = x1 + x2
        else:
            big, da, db = half, 1.0, 0.0
            factor = x1 - x2
    if not 0 <= k <= big:
        raise ValueError("index k out of range for this degree and branch")
    rc = jacobi_recurrence(alpha + da, beta + db, big + 3)
    return factor * _pair_basis(rc, big, k, gamma, cm, cp)


def reference_min_node_gap(nodes: np.ndarray) -> float:
    """Smallest pairwise distance by comparing every pair of nodes in
    512-row blocks: the plot's node gap as it was first written."""
    n = len(nodes)
    best = math.inf
    step = 512
    for i0 in range(0, n, step):
        a = nodes[i0 : i0 + step]
        for j0 in range(i0, n, step):
            b = nodes[j0 : j0 + step]
            d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
            if i0 == j0:
                np.fill_diagonal(d2, np.inf)
            m = float(np.min(d2)) if d2.size else math.inf
            best = min(best, m)
    return math.sqrt(best) if best < math.inf else 0.0


def _reference_refine_zero(f, fprime, lo: float, hi: float) -> float:
    """Bisection to width 1e-14 followed by 3 Newton polish steps."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        fp = fprime(x)
        if fp == 0.0:
            break
        step = f(x) / fp
        if not math.isfinite(step):
            break
        xn = x - step
        if abs(xn - x) > (hi - lo) + 1e-12:
            break
        x = xn
    return x


def reference_positive_zeros(f, fprime, m_expected: int, grid_n: int) -> np.ndarray:
    """Zeros of an even function on (0,1), by sign bracketing on a grid:
    opq1d._positive_zeros as it was first written, refining one bracket
    at a time through 0-d evaluations of f, with its one retry on a grid
    16 times finer when the first finds too few."""
    for cells in (grid_n, 16 * grid_n):
        ts = np.linspace(0.0, 1.0, cells + 1)
        vals = np.asarray(f(ts), dtype=float)
        zeros = []
        for i in range(len(ts) - 1):
            lo, hi = ts[i], ts[i + 1]
            vlo, vhi = vals[i], vals[i + 1]
            if vlo == 0.0 and lo > 0.0:
                zeros.append(lo)
                continue
            if (vlo < 0.0) != (vhi < 0.0):
                z = _reference_refine_zero(lambda x: float(f(x)), lambda x: float(fprime(x)),
                                           lo, hi)
                if 0.0 < z < 1.0:
                    zeros.append(z)
        zeros = sorted(set(round(z, 15) for z in zeros))
        if len(zeros) >= m_expected:
            break
    if len(zeros) != m_expected:
        raise ConstructionError(
            "expected %d positive zeros, found %d on a %d-cell grid"
            % (m_expected, len(zeros), cells)
        )
    return np.array(zeros)
