"""One-dimensional orthogonal polynomials and Gauss quadrature.

Monic three-term recurrences for Jacobi weights, classically normalized
Jacobi polynomials, Gauss rules via an in-house Golub-Welsch (implicit-shift
QL on the symmetrized tridiagonal matrix), and the even quasi-orthogonal
combinations whose zeros supply the diagonal / anti-diagonal nodes of the
odd-degree minimal square rules.

Also the pieces every explicit 2-D family shares: the unordered pairs of
Gauss nodes with their product weights, and the panel map of the degree-ell
cosine fold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .rules import ConstructionError, check_jacobi_parameters

__all__ = [
    "RecurrenceCoeffs",
    "QuadratureRule1D",
    "jacobi_recurrence",
    "eval_jacobi_standard",
    "eval_jacobi_standard_deriv",
    "gauss_rule",
    "gauss_pairs",
    "fold_panel_angles",
    "quasi_S",
    "diagonal_zero_set",
]

# the relative accuracy the weight mass of jacobi_recurrence must reach, a
# tenth of certify's default tolerance: the builders and the references
# share the mass, so certify cannot see its error
_MASS_RTOL = 1e-10


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Monic three-term recurrence data p_{k+1} = (t - a_k) p_k - b_k p_{k-1}.

    a holds a_0..a_{m-1}; b holds b_1..b_{m-1} (all positive); mu0 is the
    zeroth moment of the weight.
    """

    a: np.ndarray
    b: np.ndarray
    mu0: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if np.any(self.b <= 0.0):
            raise ValueError("all off-diagonal coefficients b_k must be positive")

    @property
    def size(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss rule: strictly increasing nodes in (-1,1), positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def jacobi_recurrence(alpha: float, beta: float, m: int) -> RecurrenceCoeffs:
    """Monic recurrence coefficients for the weight (1-t)^alpha (1+t)^beta.

    Returns a_0..a_{m-1} and b_1..b_{m-1}, plus mu0 = 2^{alpha+beta+1}
    B(alpha+1, beta+1).  Raises OverflowError, naming the weight, when a
    value leaves float range, or when the log terms of mu0 are so large
    that the rounding of their sum, which exp turns into a relative error
    of mu0, may pass _MASS_RTOL.
    """
    check_jacobi_parameters(alpha, beta)
    if m < 1:
        raise ValueError("m must be >= 1")
    s = alpha + beta
    # float pow and lgamma raise OverflowError past float range, while a
    # product that overflows or a quotient that underflows goes to inf, 0
    # or NaN silently (a b_k from alpha + beta of about 1e77 on); either way
    # the diagnostic names the step and the weight
    step, limit = "a recurrence coefficient", "exceeds float range"
    try:
        a = np.empty(m)
        a[0] = (beta - alpha) / (s + 2.0)
        for k in range(1, m):
            den = (2.0 * k + s) * (2.0 * k + 2.0 + s)
            a[k] = (beta * beta - alpha * alpha) / den
        b = np.empty(max(m - 1, 0))
        if m > 1:
            b[0] = (
                4.0 * (1.0 + alpha) * (1.0 + beta)
                / ((2.0 + s) ** 2 * (3.0 + s))
            )
        for k in range(2, m):
            b[k - 1] = (
                4.0 * k * (k + alpha) * (k + beta) * (k + s)
                / ((2.0 * k + s) ** 2 * (2.0 * k + 1.0 + s) * (2.0 * k - 1.0 + s))
            )
        if not (np.all(np.isfinite(a)) and np.all(b > 0.0) and np.all(b < math.inf)):
            raise OverflowError
        step = "weight mass mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1)"
        logs = ((s + 1.0) * math.log(2.0), math.lgamma(alpha + 1.0),
                math.lgamma(beta + 1.0), math.lgamma(s + 2.0))
        if 2.0**-52 * sum(map(abs, logs)) > _MASS_RTOL:
            limit = "may lose more than %g to cancellation" % _MASS_RTOL
            raise OverflowError
        mu0 = math.exp(logs[0] + logs[1] + logs[2] - logs[3])
        if not 0.0 < mu0 < math.inf:
            raise OverflowError
    except OverflowError:
        raise OverflowError(
            "%s of the Jacobi weight alpha=%g, beta=%g %s" % (step, alpha, beta, limit)
        ) from None
    return RecurrenceCoeffs(a=a, b=b, mu0=mu0)


def eval_jacobi_standard(alpha: float, beta: float, n: int, t):
    """Jacobi polynomial with P_n^{(alpha,beta)}(1) = binom(n+alpha, n)."""
    check_jacobi_parameters(alpha, beta)
    t = np.asarray(t, dtype=float)
    if n == 0:
        return np.ones_like(t)
    p1 = (alpha + beta + 2.0) * t / 2.0 + (alpha - beta) / 2.0
    if n == 1:
        return p1
    pkm1 = np.ones_like(t)
    pk = p1
    s = alpha + beta
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
        c2 = 2.0 * k + s - 1.0
        c3 = (2.0 * k + s) * (2.0 * k + s - 2.0)
        c4 = alpha * alpha - beta * beta
        c5 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + s)
        pnext = (c2 * (c3 * t + c4) * pk - c5 * pkm1) / c1
        pkm1, pk = pk, pnext
    return pk


def eval_jacobi_standard_deriv(alpha: float, beta: float, n: int, t):
    """d/dt P_n^{(alpha,beta)}(t) = (n+alpha+beta+1)/2 * P_{n-1}^{(alpha+1,beta+1)}(t)."""
    t = np.asarray(t, dtype=float)
    if n == 0:
        return np.zeros_like(t)
    return (n + alpha + beta + 1.0) / 2.0 * eval_jacobi_standard(
        alpha + 1.0, beta + 1.0, n - 1, t
    )


def _ql_implicit(d: np.ndarray, e: np.ndarray, max_iter_total: int):
    """Eigenvalues and first-row eigenvector components of a symmetric
    tridiagonal matrix (diagonal d, off-diagonal e), by implicit-shift QL.

    Only the first component of each eigenvector is carried, which is all
    Golub-Welsch needs. Convergence test: |e_l| <= 1e-15 (|d_l| + |d_l+1|).

    The sweeps run on lists of Python floats: the arithmetic is the same
    IEEE double arithmetic as on numpy scalars, operation for operation,
    so the results agree bit for bit at a fraction of the cost.
    """
    n = len(d)
    d = d.tolist()
    e = e.tolist() + [0.0]
    q = [0.0] * n
    q[0] = 1.0
    tol = 1e-15
    iters = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= tol * dd:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > max_iter_total:
                raise ConstructionError(
                    "QL iteration exceeded %d sweeps" % max_iter_total
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            sgn = r if g >= 0.0 else -r
            g = d[m] - d[l] + e[l] / (g + sgn)
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = q[i + 1]
                q[i + 1] = s * q[i] + c * f
                q[i] = c * q[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.array(d), np.array(q)


def gauss_rule(rc: RecurrenceCoeffs, m: int) -> QuadratureRule1D:
    """m-point Gauss rule for the measure behind rc (Golub-Welsch)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if rc.size < m or len(rc.b) < m - 1:
        raise ValueError("recurrence data does not cover m = %d" % m)
    d = rc.a[:m].copy()
    e = np.sqrt(rc.b[: m - 1])
    vals, q = _ql_implicit(d, e, max_iter_total=50 * m)
    order = np.argsort(vals)
    nodes = vals[order]
    weights = rc.mu0 * q[order] ** 2
    if np.all(rc.a[:m] == 0.0):
        # even measure: enforce the +-pair symmetry bit for bit, so that
        # structurally zero sums built on these nodes cancel exactly
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
    if np.any(weights <= 0.0):
        raise ConstructionError("nonpositive Gauss weight; eigensolve unreliable")
    if np.any(np.diff(nodes) <= 0.0):
        raise ConstructionError("Gauss nodes not strictly increasing")
    return QuadratureRule1D(nodes=nodes, weights=weights)


def gauss_pairs(alpha: float, beta: float, n: int, gamma: float):
    """Koornwinder's n(n+1)/2 unordered pairs of Jacobi(alpha, beta) Gauss
    nodes: j <= k of the n-point rule at gamma = -1/2, j < k of the
    (n+1)-point rule at gamma = +1/2, in row-major upper-triangle order.

    Returns the rule's nodes, the index arrays J and K, and each pair's
    weight in half the tensor measure: lam_j lam_k, and lam_j^2 / 2 on the
    diagonal.  Every explicit 2-D family pushes these pairs through its own
    point map."""
    size = n + 1 if gamma == 0.5 else n
    q = gauss_rule(jacobi_recurrence(alpha, beta, size), size)
    J, K = np.triu_indices(size, k=1 if gamma == 0.5 else 0)
    # a product past the float range stays inf, without a numpy warning:
    # the 2-D rule built on it fails its finiteness check with a one-line
    # diagnostic, and minimal_rule_odd uses only the index pairs
    with np.errstate(over="ignore"):
        w = q.weights[J] * q.weights[K]
    w[J == K] *= 0.5
    return q.nodes, J, K, w


def fold_panel_angles(ell: int, theta) -> np.ndarray:
    """One preimage per panel of the angles theta in [0, pi] under the
    degree-ell fold phi -> ell*phi, along a new leading axis of length ell.

    Panel nu covers [nu pi/ell, (nu+1) pi/ell]; odd panels run in reverse,
    so cos(ell*phi) = cos(theta) on every panel.
    """
    theta = np.asarray(theta, dtype=float)
    nu = np.arange(ell).reshape((ell,) + (1,) * theta.ndim)
    odd = nu % 2
    # even panels: (nu pi + theta) / ell; odd: ((nu+1) pi - theta) / ell
    return ((nu + odd) * math.pi + (1 - 2 * odd) * theta) / ell


def quasi_S(alpha: float, beta: float, m: int, sign: str, t):
    """Even degree-2m combination of shifted Jacobi polynomials in 2t^2-1.

    sign '-' is the difference P_m^{(a,b+1)}(1) P_m^{(a+1,b)}(2t^2-1)
    - P_m^{(a,b+1)}(2t^2-1) P_m^{(a+1,b)}(1), which vanishes at t = +-1;
    sign '+' is the corresponding sum.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    t = np.asarray(t, dtype=float)
    s = 2.0 * t * t - 1.0
    c_b1, c_a1 = _endpoint_values(alpha, beta, m)
    term1 = c_b1 * eval_jacobi_standard(alpha + 1.0, beta, m, s)
    term2 = eval_jacobi_standard(alpha, beta + 1.0, m, s) * c_a1
    return term1 - term2 if sign == "-" else term1 + term2


@functools.lru_cache(maxsize=64)
def _endpoint_values(alpha: float, beta: float, m: int) -> Tuple[float, float]:
    """The constants P_m^{(a,b+1)}(1) and P_m^{(a+1,b)}(1) of quasi_S.  A
    zero search calls quasi_S and its derivative about 45 times with the
    same (alpha, beta, m) (43 to 49 at m = 3 to 12); cached, the constants
    are evaluated at most once per search, to the same bits."""
    return (float(eval_jacobi_standard(alpha, beta + 1.0, m, np.array(1.0))),
            float(eval_jacobi_standard(alpha + 1.0, beta, m, np.array(1.0))))


def _quasi_S_deriv(alpha: float, beta: float, m: int, sign: str, t):
    t = np.asarray(t, dtype=float)
    s = 2.0 * t * t - 1.0
    c_b1, c_a1 = _endpoint_values(alpha, beta, m)
    d1 = c_b1 * eval_jacobi_standard_deriv(alpha + 1.0, beta, m, s)
    d2 = eval_jacobi_standard_deriv(alpha, beta + 1.0, m, s) * c_a1
    inner = d1 - d2 if sign == "-" else d1 + d2
    return inner * 4.0 * t


def _refine_zeros(f, fprime, lo, hi, flo) -> np.ndarray:
    """Bisection of each bracket [lo, hi] with f(lo) = flo to width 1e-14,
    then 3 Newton polish steps.  The brackets run in lockstep, one call of
    f per step for all still live; each leaves a loop at the step and by
    the test at which it would alone, so every zero keeps its bits."""
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    live = np.ones(len(lo), dtype=bool)
    for _ in range(200):
        live[hi - lo < 1e-14] = False
        i = np.flatnonzero(live)
        if i.size == 0:
            break
        mid = 0.5 * (lo[i] + hi[i])
        fm = f(mid)
        zero = fm == 0.0
        lo[i[zero]] = hi[i[zero]] = mid[zero]
        live[i[zero]] = False
        same = ~zero & ((flo[i] < 0.0) == (fm < 0.0))
        lo[i[same]], flo[i[same]] = mid[same], fm[same]
        hi[i[~zero & ~same]] = mid[~zero & ~same]
    x = 0.5 * (lo + hi)
    live[:] = True
    for _ in range(3):
        i = np.flatnonzero(live)
        if i.size == 0:
            break
        fp = fprime(x[i])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f(x[i]) / fp
        xn = x[i] - step
        ok = (fp != 0.0) & np.isfinite(step)
        ok &= ~(np.abs(xn - x[i]) > (hi - lo)[i] + 1e-12)
        x[i[ok]] = xn[ok]
        live[i[~ok]] = False
    return x


def _positive_zeros(f, fprime, m_expected: int, grid_n: int) -> np.ndarray:
    """Zeros of an even function on (0,1), by sign bracketing on a grid of
    grid_n cells.  Two zeros inside one cell leave no sign change, so when
    the grid finds too few the search runs once more on 16 grid_n cells."""
    for cells in (grid_n, 16 * grid_n):
        ts = np.linspace(0.0, 1.0, cells + 1)
        vals = np.asarray(f(ts), dtype=float)
        lo, hi, vlo, vhi = ts[:-1], ts[1:], vals[:-1], vals[1:]
        on_grid = (vlo == 0.0) & (lo > 0.0)
        bracket = ~on_grid & ((vlo < 0.0) != (vhi < 0.0))
        z = _refine_zeros(f, fprime, lo[bracket], hi[bracket], vlo[bracket])
        z = np.concatenate([lo[on_grid], z[(0.0 < z) & (z < 1.0)]])
        # numpy's round, as on the np.float64 zeros of the per-bracket loop
        zeros = sorted(set(np.round(z, 15).tolist()))
        if len(zeros) >= m_expected:
            break
    if len(zeros) != m_expected:
        raise ConstructionError(
            "expected %d positive zeros, found %d on a %d-cell grid"
            % (m_expected, len(zeros), cells)
        )
    return np.array(zeros)


def diagonal_zero_set(alpha: float, beta: float, m: int, sign: str) -> np.ndarray:
    """Sorted 2m+1 abscissas feeding the odd-degree minimal square rules.

    sign '-': diagonal abscissas xi (nodes (xi, xi)); the zeros of
    t * [P_m^{(a,b+1)}(1) P_m^{(a+1,b)}(2t^2-1) + P_m^{(a,b+1)}(2t^2-1)
    P_m^{(a+1,b)}(1)], all interior.

    sign '+': anti-diagonal abscissas eta (nodes (eta, -eta)); {0} plus the
    interior zeros of D(t)/(1-t^2) where D is the order-(m+1) difference
    combination with (alpha, beta) swapped; the forced zeros of D at t = +-1
    are excluded.

    Raises ConstructionError when the count is not exactly 2m+1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if sign == "-":
        f = lambda t: quasi_S(alpha, beta, m, "+", t)
        fp = lambda t: _quasi_S_deriv(alpha, beta, m, "+", t)
        pos = _positive_zeros(f, fp, m, 64 * m)
    elif sign == "+":
        bs, as_ = beta, alpha  # swapped roles

        def d_poly(t):
            return quasi_S(bs, as_, m + 1, "-", t)

        def d_poly_deriv(t):
            return _quasi_S_deriv(bs, as_, m + 1, "-", t)

        def g(t):
            t = np.asarray(t, dtype=float)
            den = 1.0 - t * t
            out = np.empty_like(t)
            near = den < 1e-8
            if np.any(~near):
                out[~near] = np.asarray(d_poly(t[~near])) / den[~near]
            if np.any(near):
                # L'Hopital at t -> 1: D(t)/(1-t^2) -> -D'(1)/2
                out[near] = -np.asarray(d_poly_deriv(t[near])) / (2.0 * t[near])
            return out

        def gprime(t):
            h = 1e-7
            return (g(t + h) - g(t - h)) / (2.0 * h)

        pos = _positive_zeros(g, gprime, m, 64 * (m + 1))
    else:
        raise ValueError("sign must be '+' or '-'")
    if np.any(pos >= 1.0) or np.any(pos <= 0.0):
        raise ConstructionError("zero escaped the open interval (0, 1)")
    return np.concatenate([-pos[::-1], [0.0], pos])
