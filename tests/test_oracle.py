"""Reference moments and the exactness certifier."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import cubamin.oracle as oracle_mod
from cubamin.biangle import biangle_moments, gauss_cubature_biangle
from cubamin.composed import composed_rule
from cubamin.opq1d import fold_panel_angles, jacobi_recurrence
from cubamin.oracle import (
    BiangleMomentOracle,
    DomainError,
    ExactnessReport,
    MomentOracle,
    SquareMomentOracle,
    certify,
)
from cubamin.rules import CubatureRule2D, WeightSpec
from cubamin.squaremin import minimal_rule_even, minimal_rule_odd
from identities import chebyshev_moment_1d, reference_certify

PI = math.pi
PI2 = math.pi * math.pi

# reference square moments, worked out symbolically per parameter triple
SQUARE_MOMENTS = {
    (0.5, 0.5, -0.5): {(0, 0): PI2 / 4, (2, 0): PI2 / 8, (0, 2): PI2 / 8,
                       (1, 1): 0.0, (2, 2): PI2 / 32, (4, 0): 13 * PI2 / 128,
                       (3, 1): 0.0},
    (0.5, -0.5, 0.5): {(0, 0): PI2 / 8, (2, 0): 3 * PI2 / 64,
                       (0, 2): 3 * PI2 / 64, (1, 1): -PI2 / 32,
                       (2, 2): PI2 / 64, (4, 0): 7 * PI2 / 256,
                       (3, 1): -PI2 / 64},
    (-0.5, 0.5, -0.5): {(0, 0): PI2, (2, 0): 5 * PI2 / 8, (0, 2): 5 * PI2 / 8,
                        (1, 1): PI2 / 2, (2, 2): 3 * PI2 / 8, (4, 0): PI2 / 2,
                        (3, 1): 3 * PI2 / 8},
    (0.0, 0.0, -0.5): {(0, 0): 4.0, (2, 0): 2.0, (0, 2): 2.0, (1, 1): 0.0,
                       (2, 2): 2 / 3, (4, 0): 14 / 9, (3, 1): 0.0},
}


def test_chebyshev_axis_moment_closed_form():
    for i in range(0, 26):
        got = chebyshev_moment_1d(i)
        if i % 2:
            assert got == 0.0
        else:
            assert got == pytest.approx(PI * comb(i, i // 2) / 2.0 ** i,
                                        rel=1e-15)


@pytest.mark.parametrize("key", sorted(SQUARE_MOMENTS))
def test_square_moments_match_symbolic_values(key):
    a, b, g = key
    orc = SquareMomentOracle(a, b, g)
    mass = SQUARE_MOMENTS[key][(0, 0)]
    assert orc.mass == pytest.approx(mass, rel=1e-13)
    for (i, j), want in SQUARE_MOMENTS[key].items():
        got = orc.moment(i, j)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13 * abs(mass))


def test_all_chebyshev_square_moments_factor():
    """With every exponent at -1/2 the double integral separates."""
    orc = SquareMomentOracle(-0.5, -0.5, -0.5)
    for i in range(0, 13):
        for j in range(0, 13 - i):
            want = chebyshev_moment_1d(i) * chebyshev_moment_1d(j)
            assert orc.moment(i, j) == pytest.approx(
                want, rel=1e-12, abs=1e-12 * orc.mass)


def test_square_structural_zeros_are_bit_exact():
    orc = SquareMomentOracle(0.5, -0.5, -0.5)
    assert orc.moment(3, 2) == 0.0
    assert orc.moment(1, 0) == 0.0
    sym = SquareMomentOracle(0.5, 0.5, -0.5)
    assert sym.moment(3, 1) == 0.0
    assert sym.moment(2, 1) == 0.0


def test_composed_structural_zeros():
    assert SquareMomentOracle(0.5, -0.5, -0.5, 2).moment(1, 2) == 0.0
    assert SquareMomentOracle(-0.5, -0.5, -0.5, 3).moment(1, 2) == 0.0
    assert SquareMomentOracle(-0.5, -0.5, -0.5, 3).moment(2, 1) == 0.0
    assert SquareMomentOracle(0.0, 0.0, -0.5, 2).moment(3, 2) == 0.0


def test_composed_chebyshev_is_fold_independent():
    pairs = [(i, j) for i in range(0, 9, 2) for j in range(0, 9, 2)]
    base = SquareMomentOracle(-0.5, -0.5, -0.5, 1)
    for ell in (2, 3, 5):
        orc = SquareMomentOracle(-0.5, -0.5, -0.5, ell)
        for p in pairs:
            assert orc.moment(*p) == pytest.approx(base.moment(*p), rel=1e-12)


def test_composed_trivial_fold_equals_square_oracle():
    sq = SquareMomentOracle(0.0, 0.0, -0.5)
    fo = SquareMomentOracle(0.0, 0.0, -0.5, 1)
    for i in range(0, 7, 2):
        for j in range(0, 7, 2):
            assert fo.moment(i, j) == pytest.approx(sq.moment(i, j), rel=1e-12)


def test_moments_batch_agrees_with_single_calls():
    orc = SquareMomentOracle(0.5, -0.5, 0.5)
    pairs = [(0, 0), (2, 2), (4, 0), (1, 1), (3, 3)]
    batch = orc.moments(pairs)
    assert set(batch) == set(pairs)
    for p in pairs:
        assert batch[p] == orc.moment(*p)
    # repeated lookups return the cached value unchanged
    assert orc.moment(2, 2) == batch[(2, 2)]


def test_refinement_ladder_contracts_until_roundoff():
    levels = oracle_mod.angular_moment_ladder(0.5, -0.5, -0.5, [(2, 2)],
                                              lambda t, p: np.cos(t) ** p,
                                              n0=4, min_levels=5)
    vals = [float(level[0]) for level in levels]
    floor = 1e-13 * abs(vals[-1])
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    for prev, nxt in zip(diffs, diffs[1:]):
        # successive corrections shrink fast, then sit at roundoff
        assert nxt <= max(0.5 * prev, floor)


def test_ladder_moments_do_not_depend_on_the_batch():
    """Within a panel each feature row lives from its first use to its last;
    a pair's moment must come out bit for bit as when it is alone."""
    pairs = [(i, d - i) for d in range(9) for i in range(d + 1)]

    def ladder(batch):
        # two fixed levels, so every batch stops at the same depth
        return oracle_mod.angular_moment_ladder(
            0.5, 0.0, 0.5, batch, lambda t, p: np.cos(t) ** p,
            rtol=math.inf, max_doublings=1)[-1]

    together = ladder(pairs)
    for k, pair in enumerate(pairs):
        assert together[k] == ladder([pair])[0]


@pytest.mark.parametrize("params", [(-0.5, -0.5, -0.5), (0.5, -0.5, 0.5),
                                    (0.0, 0.0, -0.5), (-0.5, 0.5, 0.5)])
def test_folding_connects_square_and_curved_moments(params):
    """Expanding the fold monomial over the square recovers curved moments.

    Two independent integration routes:  expand (2 x1 x2)^a
    (x1^2 + x2^2 - 1)^b into plain monomials and sum square moments, or
    integrate the monomial directly over the curved domain.  They differ
    by the constant 4^(-gamma) coming from the 4-to-1 cover.
    """
    al, be, g = params
    orc = SquareMomentOracle(al, be, g)
    rc = jacobi_recurrence(al, be, 16)
    mass = orc.moment(0, 0)
    for a in range(0, 5):
        for b in range(0, 5 - a):
            via_square = 0.0
            for k in range(b + 1):
                for r in range(k + 1):
                    c = comb(b, k) * comb(k, r) * (-1) ** (b - k)
                    via_square += c * orc.moment(a + 2 * r, a + 2 * (k - r))
            via_square *= 2.0 ** a
            direct = biangle_moments(rc, g, [(a, b)])[(a, b)]
            denom = max(abs(direct), abs(mass))
            assert abs(via_square - 4.0 ** (-g) * direct) <= 1e-12 * denom


def test_report_validation():
    with pytest.raises(ValueError):
        ExactnessReport(max_degree_tested=5, certified_degree=6,
                        worst_rel_error=0.0, failures=())
    with pytest.raises(ValueError):
        ExactnessReport(max_degree_tested=5, certified_degree=3,
                        worst_rel_error=0.1, failures=())
    rep = ExactnessReport(max_degree_tested=5, certified_degree=5,
                          worst_rel_error=3e-14, failures=())
    assert rep.certified_degree == 5


class _BrokenOracle:
    """Delegates to a real oracle but corrupts one chosen moment."""

    def __init__(self, inner, bad_pair):
        self._inner = inner
        self._bad = bad_pair

    @property
    def mass(self):
        return self._inner.mass

    def moments(self, pairs):
        out = dict(self._inner.moments(pairs))
        if self._bad in out:
            out[self._bad] = out[self._bad] + 0.1 * self.mass
        return out


def test_certified_degree_is_below_the_first_failure():
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 3)
    good = SquareMomentOracle(-0.5, -0.5, -0.5)
    clean = certify(rule, good, rule.degree, rel_tol=1e-9)
    assert clean.certified_degree == rule.degree
    assert clean.failures == ()
    # corrupt a single degree-4 reference: certification stops at 3 even
    # though every higher degree still matches
    broken = _BrokenOracle(good, (2, 2))
    rep = certify(rule, broken, rule.degree, rel_tol=1e-9)
    assert rep.certified_degree == 3
    assert any((i, j) == (2, 2) for (i, j, _) in rep.failures)


def _report_bits(rep):
    """The report's fields, every float as its exact hex form."""
    return (rep.max_degree_tested, rep.certified_degree, rep.worst_rel_error.hex(),
            tuple((i, j, rel.hex()) for (i, j, rel) in rep.failures))


def _one_rule_per_family():
    return [
        (gauss_cubature_biangle(jacobi_recurrence(0.5, -0.5, 8), 7, 0.5),
         BiangleMomentOracle(jacobi_recurrence(0.5, -0.5, 16), 0.5)),
        (minimal_rule_even(WeightSpec("square-W", alpha=0.0, beta=0.5, gamma=0.5), 4),
         SquareMomentOracle(0.0, 0.5, 0.5)),
        (minimal_rule_odd(-0.5, 0.0, -0.5, 2), SquareMomentOracle(-0.5, 0.0, -0.5)),
        (composed_rule(3, 2, 0.5, 0.0), SquareMomentOracle(0.5, 0.0, -0.5, 3)),
    ]


@pytest.mark.parametrize("case", range(4))
def test_certify_reports_match_the_strided_per_pair_loop(case):
    """Row-wise products and one dot per pair keep every report bit: at the
    declared degree, and two degrees past it, where monomials fail."""
    rule, oracle = _one_rule_per_family()[case]
    for degree in (rule.degree, rule.degree + 2):
        got = certify(rule, oracle, degree)
        assert _report_bits(got) == _report_bits(reference_certify(rule, oracle, degree))
    assert got.failures


def test_certify_report_of_a_failing_rule_matches_the_strided_per_pair_loop():
    """A rule checked against another weight fails from low degree on."""
    rule = minimal_rule_even(WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5), 3)
    wrong = SquareMomentOracle(0.5, 0.0, -0.5)
    got = certify(rule, wrong, rule.degree)
    assert got.certified_degree < 2 and len(got.failures) > 10
    assert _report_bits(got) == _report_bits(reference_certify(rule, wrong, rule.degree))


def test_certify_reports_worst_relative_error():
    rc = jacobi_recurrence(-0.5, -0.5, 5)
    rule = gauss_cubature_biangle(rc, 4, -0.5)
    orc = BiangleMomentOracle(jacobi_recurrence(-0.5, -0.5, 10), -0.5)
    rep = certify(rule, orc, rule.degree, rel_tol=1e-11)
    assert rep.certified_degree == rule.degree
    assert 0.0 <= rep.worst_rel_error < 1e-11


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_certify_rejects_a_non_finite_reference_moment(bad):
    """A NaN moment fails no comparison and an infinite one has a zero
    relative error; certify refuses both instead of passing the monomial."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 3)
    good = SquareMomentOracle(-0.5, -0.5, -0.5)
    broken = MomentOracle(
        lambda pairs: {p: bad if p == (2, 2) else good.moment(*p) for p in pairs})
    with pytest.raises(OverflowError, match=r"x\^2 y\^2"):
        certify(rule, broken, rule.degree)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_certify_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    """No monomial fails a NaN or infinite tolerance, so such a certificate
    would pass any rule; certify refuses it before asking for a moment."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)

    def no_moments(pairs):
        raise AssertionError("moments requested")

    with pytest.raises(ValueError, match="rel_tol"):
        certify(rule, MomentOracle(no_moments), rule.degree, rel_tol=tol)


@pytest.mark.parametrize("max_degree", [-1, -5])
def test_certify_rejects_a_negative_max_degree(max_degree):
    """-5 had died inside numpy and -1 had certified degree -1 with no
    failures; certify refuses both before asking for a moment."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)

    def no_moments(pairs):
        raise AssertionError("moments requested")

    with pytest.raises(ValueError, match="max_degree"):
        certify(rule, MomentOracle(no_moments), max_degree)


def _with_nodes(rule, nodes, weights):
    return CubatureRule2D(nodes=nodes, weights=weights, degree=rule.degree,
                          spec=rule.spec, param=rule.param, family=rule.family)


def test_rules_reject_non_finite_values():
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)
    with pytest.raises(ValueError):
        _with_nodes(rule, rule.nodes, np.full(rule.node_count, np.nan))
    bad = rule.nodes.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        _with_nodes(rule, bad, rule.weights)


def test_certify_rejects_a_node_outside_the_square():
    """A far node inflates the error scale of every monomial; without the
    domain test it hides its own weight and the rule still certifies."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)
    far = _with_nodes(rule, np.vstack([rule.nodes, [3.0, 3.0]]),
                      np.append(rule.weights, 1e-11))
    with pytest.raises(DomainError, match="outside the square"):
        certify(far, SquareMomentOracle(-0.5, -0.5, -0.5), far.degree)


def test_certify_rejects_a_node_outside_the_curved_domain():
    rc = jacobi_recurrence(0.5, -0.5, 6)
    rule = gauss_cubature_biangle(rc, 4, 0.5)
    # (0, 0.5) lies above the parabola u2 = u1^2 / 4
    off = _with_nodes(rule, np.vstack([rule.nodes, [0.0, 0.5]]),
                      np.append(rule.weights, 1e-11))
    with pytest.raises(DomainError, match="outside the biangle"):
        certify(off, BiangleMomentOracle(rc, 0.5), off.degree)


def _even_pairs(degree):
    return [(i, d - i) for d in range(0, degree + 1, 2) for i in range(d + 1)]


def _cos_power_row(t, p):
    return np.cos(t) ** p


def _panel_row(ell):
    return lambda t, p: np.sum(np.cos(fold_panel_angles(ell, t)) ** p, axis=0) / ell


# (oracle, ladder parameters, feature row, degree): the criterion-3 grid,
# two points further out, and three folds
_CROSS_CHECK = (
    [(SquareMomentOracle(a, b, g), (a, b, g), _cos_power_row, 25)
     for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5) for g in (-0.5, 0.5)]
    + [(SquareMomentOracle(a, b, g), (a, b, g), _cos_power_row, 41)
       for (a, b, g) in ((2.3, 0.7, -0.5), (-0.5, 0.5, 0.5))]
    + [(SquareMomentOracle(0.5, 0.0, -0.5, ell), (0.5, 0.0, -0.5), _panel_row(ell), 25)
       for ell in (2, 3, 4)]
)


def test_exact_engine_agrees_with_the_angular_ladder():
    """The tensor grid in fold coordinates and the angular ladder integrate
    the same kernel by independent routes; they agree to roundoff."""
    for orc, params, row, degree in _CROSS_CHECK:
        pairs = _even_pairs(degree)
        ladder = oracle_mod.angular_moment_ladder(*params, pairs, row)[-1]
        exact = orc.moments(pairs)
        err = max(abs(exact[p] - v) for p, v in zip(pairs, ladder)) / orc.mass
        assert err <= 1e-13, (params, degree, err)


def _polynomial_weight_moments(alpha, beta, gamma, degree):
    """Square moments at alpha, beta, gamma in {-1/2, 1/2}, from exact
    fractions: the weight is (x1-x2)^(2a+1) (x1+x2)^(2b+1) times
    prod (1-x_k^2)^g, and the 1-D moment of x^k against (1-x^2)^g is
    pi (k-1)!!/k!! for even k (divided by k+2 for g = +1/2), so each
    moment is pi^2 times a Fraction."""
    one_d = [Fraction(0)] * (degree + 5)  # 1-D moments over pi
    chebyshev = Fraction(1)
    for k in range(0, degree + 5, 2):
        one_d[k] = chebyshev if gamma == -0.5 else chebyshev / (k + 2)
        chebyshev *= Fraction(k + 1, k + 2)
    poly = {(0, 0): 1}
    for sign, power in ((-1, 2 * alpha + 1), (1, 2 * beta + 1)):
        for _ in range(int(power)):
            nxt = {}
            for (k, l), c in poly.items():
                nxt[(k + 1, l)] = nxt.get((k + 1, l), 0) + c
                nxt[(k, l + 1)] = nxt.get((k, l + 1), 0) + sign * c
            poly = nxt
    return {
        (i, d - i): math.pi**2 * float(
            sum(c * one_d[i + k] * one_d[d - i + l] for (k, l), c in poly.items()))
        for d in range(degree + 1) for i in range(d + 1)
    }


@pytest.mark.parametrize("g", [-0.5, 0.5])
@pytest.mark.parametrize("a", [-0.5, 0.5])
@pytest.mark.parametrize("b", [-0.5, 0.5])
def test_both_moment_routes_match_known_answers(a, b, g):
    """At half-integer alpha, beta the square weight is a polynomial times
    prod (1 - x_k^2)^gamma: exact Beta sums audit the exact engine
    through degree 95 and the angular ladder through degree 33."""
    ref = _polynomial_weight_moments(a, b, g, 95)
    mass = ref[(0, 0)]
    exact = SquareMomentOracle(a, b, g).moments(list(ref))
    assert max(abs(exact[p] - v) for p, v in ref.items()) <= 1e-13 * mass
    pairs = _even_pairs(33)
    ladder = oracle_mod.angular_moment_ladder(a, b, g, pairs, _cos_power_row)[-1]
    assert max(abs(v - ref[p]) for p, v in zip(pairs, ladder)) <= 1e-13 * mass
