"""Independent reference moments and the exactness certification engine.

certify compares a rule with its weight in the Chebyshev basis of the
domain, T_i(x1) T_j(x2) on the square and T_i(u1/2) T_j(u2) on the curved
domain, where every product is at most 1 in magnitude.  The rule side is
one Gram contraction, sum_k w_k T_i(a_k) T_j(b_k), over the nodes.  The
reference side (reference_gram) is the same contraction over Koornwinder's
tensor Gauss grid on the curved domain, and a closed form on the square:
Koornwinder's change of variables y1, y2 = cos(theta1 -+ theta2) turns
the square weight into a Jacobi(a, b) tensor weight, so each table entry
is a product of 1-D modified Chebyshev moments.  The angular ladder, a
doubling ladder on Duffy panels of the angle triangle with the boundary
factors in Gauss-Jacobi weights, supplies the odd builder's right-hand
sides.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .opq1d import gauss_rule, jacobi_recurrence
from .rules import ConstructionError, CubatureRule2D, ExactnessReport, WeightSpec

__all__ = [
    "DEFAULT_REL_TOL",
    "DomainError",
    "angular_moment_ladder",
    "cos_basis_moments",
    "certify",
    "reference_gram",
]


class DomainError(ValueError):
    """A rule node lies outside the closed domain of its weight."""


# certify's tolerance on each product's error over the mass; verify --tol overrides it
DEFAULT_REL_TOL = 1e-9

# absolute slack of the domain test in certify: admits the last-bit
# rounding of nodes built on the boundary, nothing visibly outside
_DOMAIN_SLACK = 1e-12

# the schedule of angular_moment_ladder
_LADDER_N0 = 24
_LADDER_RTOL = 1e-13
_LADDER_MIN_LEVELS = 2

# points per Gram contraction: bounds the rows held at once; einsum sums
# each entry in one fixed order, whatever the number of BLAS threads
_CHUNK = 8192

# the oracle's memory bound: the bytes certify or a moment ladder level may
# hold at once; work whose estimate exceeds it is refused before it starts
_MEMORY_BUDGET = 2 * 2**30


def _unit_gauss_jacobi(p_exp: float, q_exp: float, n: int):
    """Nodes, weights and the weights' logs for the integral over [0,1] of
    a^p (1-a)^q g(a) da; a log is finite unless its Gauss weight is 0."""
    rc = jacobi_recurrence(q_exp, p_exp, n)
    q = gauss_rule(rc, n)
    a = 0.5 * (1.0 + q.nodes)
    w = q.weights * 2.0 ** (-(p_exp + q_exp + 1.0))
    with np.errstate(divide="ignore"):
        return a, w, np.log(q.weights) - (p_exp + q_exp + 1.0) * math.log(2.0)


def angular_moment_ladder(
    alpha: float,
    beta: float,
    gamma: float,
    pairs: Sequence[Tuple[int, int]],
) -> List[np.ndarray]:
    """Batched integrals over [0,pi]^2 of cos(i theta1) cos(j theta2)
    K(theta1,theta2), one per pair (i, j), where
    K = |cos t1 - cos t2|^{2a+1} |cos t1 + cos t2|^{2b+1}
    (sin t1 sin t2)^{2g+1}.

    Since K is symmetric the result equals the full-square integral (the
    fold only needs the symmetric part, which is formed internally).
    The ladder starts at _LADDER_N0 points per panel axis and doubles them
    until two successive levels agree to _LADDER_RTOL of the largest
    entry, after at least _LADDER_MIN_LEVELS levels.  Returns every ladder
    level (for convergence diagnostics); the final entry is the converged
    batch.  A level holds at most 16 n x n float arrays of panel grids
    and temporaries (12 to 13 under tracemalloc) and two per cosine row
    the pair schedule keeps alive; one whose 8 n^2 bytes per array pass
    _MEMORY_BUDGET is not run, and a ConstructionError names the
    agreement and points per axis reached.
    A weight grid that leaves float range (from alpha = beta =
    145, where a kernel power overflows against weights near underflow)
    is formed again as exp of its summed logs.  Raises OverflowError,
    naming the weight, when a level still leaves float range.
    """
    WeightSpec("square-W", alpha=alpha, beta=beta, gamma=gamma)  # raises on bad parameters
    ea = 2.0 * alpha + 1.0
    eb = 2.0 * beta + 1.0

    # pairs of even exponents first, then odd ones, each by descending
    # larger exponent: for a triangle i + j <= d of even total degree at
    # most about d/4 rows per coordinate are alive at once
    order = sorted(range(len(pairs)), key=lambda idx: (pairs[idx][0] % 2, -max(pairs[idx])))
    last_use = {p: pos for pos, idx in enumerate(order) for p in pairs[idx]}
    live, arrays = set(), 16
    for pos, idx in enumerate(order):
        live.update(pairs[idx])
        arrays = max(arrays, 16 + 2 * len(live))
        live -= {p for p in pairs[idx] if last_use[p] == pos}

    levels: List[np.ndarray] = []
    n, achieved = _LADDER_N0, math.inf
    while 8 * n * n * arrays <= _MEMORY_BUDGET:
        a_nodes, a_w, a_log = _unit_gauss_jacobi(4.0 * alpha + 3.0, eb, n)
        b_nodes, b_w, b_log = _unit_gauss_jacobi(ea, 0.0, n)
        # the kernel mass rides along as a final entry: it anchors the
        # convergence scale so structurally zero moments cannot stall the
        # ladder, and certification tolerances are mass-relative anyway
        total = np.zeros(len(pairs) + 1)
        # a kernel power beyond float range warns nothing here: a grid that
        # is not finite is formed again from logs, and a total that is not
        # finite is checked below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the collapsed unit square (A, B) onto each half of the (u, v)
            # triangle; the grids that do not depend on the half are formed
            # once per level, and at gamma = -1/2 so is the weight grid
            A, B = np.meshgrid(a_nodes, b_nodes, indexing="ij")
            v = 0.5 * math.pi * A * B
            # smooth quotients: 2 sin u sin v = sm_sin * a^2 b,
            #                   2 |cos u| cos v = sm_cos * (1-a)
            sm_sin = 2.0 * (0.5 * math.pi) ** 2 * np.sinc(A / 2.0) * np.sinc(A * B / 2.0)
            sm_cos = math.pi * np.sinc((1.0 - A) / 2.0) * np.cos(v)
            core = 2.0 * (0.5 * math.pi) ** 2 * sm_sin**ea * sm_cos**eb

            def weight_grid(sines):
                # the Gauss weights times core, and times sines^2 (sines =
                # sin t1 sin t2) at gamma = +1/2; only a grid that is not
                # finite is formed again, so every level that passed before
                # keeps its bits
                wmat = np.outer(a_w, b_w) * (core if sines is None else core * sines**2)
                if not np.all(np.isfinite(wmat)):
                    logs = (math.log(2.0 * (0.5 * math.pi) ** 2) + ea * np.log(sm_sin)
                            + eb * np.log(sm_cos) + np.add.outer(a_log, b_log))
                    if sines is not None:
                        logs += 2.0 * np.log(np.abs(sines))
                    wmat = np.exp(logs)
                return wmat

            wmat = weight_grid(None) if gamma == -0.5 else None
            for left in (True, False):
                u = 0.5 * math.pi * A if left else math.pi - 0.5 * math.pi * A
                t1, t2 = u + v, u - v
                if gamma == 0.5:
                    wmat = weight_grid(np.sin(t1) * np.sin(t2))
                # each cosine row is evaluated once per panel, at its first
                # use, and dropped after its last; one weighted sum per pair
                # rather than (f1 * wmat) @ f2.T, since a matrix product sums
                # in another order and the odd-rule right-hand sides taken
                # from here would move the last bits of their rule files
                f1: Dict[int, np.ndarray] = {}
                f2: Dict[int, np.ndarray] = {}
                for pos, idx in enumerate(order):
                    i, j = pairs[idx]
                    for p in (i, j):
                        if p not in f1:
                            f1[p], f2[p] = np.cos(p * t1), np.cos(p * t2)
                    total[idx] += float(np.sum(wmat * (f1[i] * f2[j] + f2[i] * f1[j])))
                    for p in {i, j}:
                        if last_use[p] == pos:
                            del f1[p], f2[p]
                total[-1] += float(np.sum(wmat))
        if not np.all(np.isfinite(total)):
            raise OverflowError(
                "moment ladder of the square weight alpha=%g, beta=%g, gamma=%g "
                "exceeds float range at %d points per panel axis" % (alpha, beta, gamma, n))
        levels.append(total)
        if len(levels) >= _LADDER_MIN_LEVELS:
            prev = levels[-2]
            scale = float(np.max(np.abs(total))) + 1e-300
            if np.all(np.abs(total - prev) <= _LADDER_RTOL * scale):
                return [lv[:-1] for lv in levels]
            achieved = float(np.max(np.abs(total - prev))) / scale
        n *= 2
    raise ConstructionError(
        "moment ladder did not converge to %.1e at %d points per panel axis, the last "
        "level within the oracle's memory budget of %g GiB (achieved %.1e)"
        % (_LADDER_RTOL, n // 2 if levels else 0, _MEMORY_BUDGET / 2**30, achieved))


def cos_basis_moments(
    alpha: float,
    beta: float,
    gamma: float,
    pairs: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """Integrals of cos(i t1) cos(j t2) (symmetrized) against the angular
    kernel; the right-hand sides of the odd-rule moment systems."""
    return angular_moment_ladder(alpha, beta, gamma, pairs)[-1]


def _chebyshev_rows(c: np.ndarray, degree: int) -> np.ndarray:
    """T_0(c), ..., T_degree(c) by the three-term recurrence, one row each."""
    rows = np.empty((degree + 1,) + c.shape)
    rows[0] = 1.0
    if degree >= 1:
        rows[1] = c
    two_c = 2.0 * c
    for p in range(2, degree + 1):
        np.multiply(two_c, rows[p - 1], out=rows[p])
        rows[p] -= rows[p - 2]
    return rows


def _gram(weights: np.ndarray, x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """G[i, j] = sum over points k of w_k T_i(x_k) T_j(y_k), for i, j <=
    degree.  One einsum per chunk of _CHUNK points, not a matrix product:
    a threaded GEMM sums in an order that moves the last bits."""
    out = np.zeros((degree + 1, degree + 1))
    for c0 in range(0, len(weights), _CHUNK):
        part = slice(c0, c0 + _CHUNK)
        out += np.einsum("ik,jk->ij", _chebyshev_rows(x[part], degree) * weights[part],
                         _chebyshev_rows(y[part], degree), optimize=False)
    return out


def _chebyshev_moments(alpha: float, beta: float, n: int) -> np.ndarray:
    """mu_0, ..., mu_{n-1}: the integrals of T_k against (1 - y)^alpha
    (1 + y)^beta on [-1, 1], by the forward recurrence of Piessens and
    Branders (BIT 13, 1973),
    (a + b + k + 2) mu_{k+1} = -2 (a - b) mu_k - (a + b - k + 2) mu_{k-1},
    from mu_1 = mu_0 (b - a)/(a + b + 2).  The array is allocated before
    the loop, so a length beyond memory fails at once."""
    mu = np.empty(n)
    s = alpha + beta
    prev = jacobi_recurrence(alpha, beta, 1).mu0
    cur = prev * (beta - alpha) / (s + 2.0)
    mu[0] = prev
    for k in range(1, n):
        mu[k] = cur
        prev, cur = cur, (-2.0 * (alpha - beta) * cur - (s - k + 2.0) * prev) / (s + k + 2.0)
    return mu


def reference_gram(spec: WeightSpec, degree: int, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Table of the integrals of T_i(x1) T_j(x2) (square) or T_i(u1/2)
    T_j(u2) (curved domain) against the weight of spec, exact for
    i + j <= degree.

    The curved domain sums over the (degree//2 + 2)-point tensor Gauss
    grid (y1, y2) of its Jacobi(alpha, beta) weight, read at
    u = (y1 + y2, y1 y2), with cell weights
    1/2 lam_a lam_b |y1 - y2|^(2 gamma + 1).  The builders share that
    Gauss rule, so an error in it would cancel: before the sum, its npts
    points must reproduce the 1-D Chebyshev moments mu_0, ..., mu_{2 npts
    - 1}, which a Gauss rule integrates exactly, to rel_tol of the mass,
    or a ConstructionError names the weight and npts.

    The square needs no grid.  Under y1, y2 = cos(theta1 -+ theta2) its
    weight is the Jacobi(alpha, beta) tensor weight times
    ((y1 - y2)/2)^(2 gamma + 1), and T_i(x1) T_j(x2), symmetrized, is
    T_p(y1) T_q(y2) with p = (i + j)/2, q = |i - j|/2; odd i + j
    integrates to 0.  So with mu_k the 1-D Chebyshev moments, the entry
    is mu_p mu_q at gamma = -1/2, and at gamma = +1/2, where
    (y1 - y2)^2 brings in eta_k and nu_k, the moments of y T_k and
    y^2 T_k, it is 1/4 (nu_p mu_q + mu_p nu_q) - 1/2 eta_p eta_q.  The
    composed weight of degree ell keeps the entries of the square table
    at (i/ell, j/ell) where ell divides i and j, and is 0 elsewhere:
    the mean of T_p over the ell panel preimages is T_{p/ell} or 0.
    """
    a, b, g = spec.alpha, spec.beta, spec.gamma
    if spec.family == "biangle-gamma":
        npts = degree // 2 + 2
        q = gauss_rule(jacobi_recurrence(a, b, npts), npts)
        mu = _chebyshev_moments(a, b, 2 * npts)
        got = np.einsum("kj,j->k", _chebyshev_rows(q.nodes, 2 * npts - 1), q.weights,
                        optimize=False)
        miss = float(np.max(np.abs(got - mu))) / mu[0]
        if not miss <= rel_tol:
            raise ConstructionError(
                "the %d-point Gauss rule of the Jacobi weight alpha=%g, beta=%g misses its "
                "Chebyshev moments by %.3e of the mass, over %g" % (npts, a, b, miss, rel_tol))
        y1 = np.repeat(q.nodes, npts)
        y2 = np.tile(q.nodes, npts)
        w = 0.5 * np.outer(q.weights, q.weights).ravel() * np.abs(y1 - y2) ** (2.0 * g + 1.0)
        return _gram(w, 0.5 * (y1 + y2), y1 * y2, degree)
    top = degree // spec.ell
    mu = _chebyshev_moments(a, b, top + 3)
    k = np.arange(top + 1)
    total = k[:, None] + k
    p = total // 2
    q = np.abs(k[:, None] - k) // 2
    if g == -0.5:
        table = mu[p] * mu[q]
    else:
        eta = 0.5 * (mu[k + 1] + mu[np.abs(k - 1)])
        nu = 0.25 * (mu[k + 2] + 2.0 * mu[k] + mu[np.abs(k - 2)])
        table = 0.25 * (nu[p] * mu[q] + mu[p] * nu[q]) - 0.5 * eta[p] * eta[q]
    table[total % 2 == 1] = 0.0
    out = np.zeros((degree + 1, degree + 1))
    out[::spec.ell, ::spec.ell] = table
    return out


def certify(rule: CubatureRule2D, max_degree: int,
            rel_tol: float = DEFAULT_REL_TOL) -> ExactnessReport:
    """Compare the rule with reference_gram(rule.spec, max_degree) on every
    Chebyshev product T_i T_j of total degree i + j <= max_degree.

    The rule side is the same Gram contraction over the nodes, at
    (x1, x2) on the square and (u1/2, u2) on the curved domain.  Every
    product is at most 1 in magnitude there, so the error of a product is
    |rule - reference| divided by the mass, the reference T_0 T_0 entry.

    Raises ValueError unless rel_tol is finite and positive and
    max_degree >= 0, and MemoryError, before any table is built, when its
    peak estimate exceeds _MEMORY_BUDGET: about eleven (D + 1)^2 float
    tables (the reference, its index arrays, the rule's Gram and the
    errors) and two (D + 1) x _CHUNK row blocks of a Gram chunk.  Raises
    DomainError, before any moment is computed, when a node lies outside
    the rule's closed domain by more than _DOMAIN_SLACK: such a node
    would carry products beyond 1 in magnitude.  Raises OverflowError
    when a reference entry is infinite or NaN, which no comparison could
    fail, and ConstructionError when the curved domain's Gauss grid
    misses its 1-D moments by more than rel_tol of the mass.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError("rel_tol must be a finite positive number, got %r" % (rel_tol,))
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %r" % (max_degree,))
    peak = 8 * (max_degree + 1) * (11 * (max_degree + 1) + 2 * _CHUNK)
    if peak > _MEMORY_BUDGET:
        need = "about %.3g GiB" % (peak / 2**30) if peak < 2**1000 else "over 2^1000 bytes"
        raise MemoryError("certify through degree %d needs %s, over its budget of %g GiB"
                          % (max_degree, need, _MEMORY_BUDGET / 2**30))
    x = rule.nodes[:, 0]
    y = rule.nodes[:, 1]
    if rule.domain == "square":
        inside = np.maximum(np.abs(x), np.abs(y)) <= 1.0 + _DOMAIN_SLACK
    else:
        # under the parabola u1^2 = 4 u2 and above the lines u2 = |u1| - 1
        inside = (x * x - 4.0 * y >= -_DOMAIN_SLACK) & (1.0 + y - np.abs(x) >= -_DOMAIN_SLACK)
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise DomainError(
            "node %d at (%r, %r) lies outside the %s domain"
            % (bad, float(x[bad]), float(y[bad]), rule.domain)
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        ref = reference_gram(rule.spec, max_degree, rel_tol)
    i, j = np.indices(ref.shape)
    live = i + j <= max_degree
    broken = np.argwhere(live & ~np.isfinite(ref))
    if len(broken):
        bi, bj = broken[np.argmin(broken.sum(axis=1))]
        raise OverflowError("reference moment of T_%d T_%d is %r: the weight's "
                            "moments exceed float range" % (bi, bj, float(ref[bi, bj])))
    if rule.domain == "biangle":
        x = 0.5 * x
    got = _gram(rule.weights, x, y, max_degree)
    rel = np.abs(got - ref) / max(abs(float(ref[0, 0])), 1e-300)
    fail = live & ~(rel <= rel_tol)
    order = np.lexsort((i[fail], (i + j)[fail]))
    failures = tuple(zip(i[fail][order].tolist(), j[fail][order].tolist(),
                         rel[fail][order].tolist()))
    return ExactnessReport(
        max_degree_tested=max_degree,
        worst_rel_error=float(rel[live].max()),
        failures=failures,
    )
