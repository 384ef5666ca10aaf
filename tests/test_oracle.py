"""Reference moments and the exactness certifier.

The monomial oracle of tests/identities.py is the engine certify used
before its Chebyshev tables; the tests of its own properties (values,
structural zeros, batches) stay here, and it checks the shipped tables."""

import dataclasses
import math
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubamin.oracle as oracle_mod
from cubamin.biangle import gauss_cubature_biangle
from cubamin.composed import composed_rule
from cubamin.opq1d import fold_panel_angles
from cubamin.oracle import (
    DomainError,
    ExactnessReport,
    certify,
    reference_gram,
)
from cubamin.rules import ConstructionError, WeightSpec
from cubamin.squaremin import minimal_rule_even, minimal_rule_odd
from identities import (
    biangle_moments,
    chebyshev_moment_1d,
    grid_square_gram,
    monomial_oracle,
    monomials_from_gram,
    reference_certify,
    square_moments,
)

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
    orc = monomial_oracle(WeightSpec("square-W", a, b, g))
    mass = SQUARE_MOMENTS[key][(0, 0)]
    assert orc.mass == pytest.approx(mass, rel=1e-13)
    for (i, j), want in SQUARE_MOMENTS[key].items():
        got = orc.moment(i, j)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13 * abs(mass))


def test_all_chebyshev_square_moments_factor():
    """With every exponent at -1/2 the double integral separates."""
    orc = monomial_oracle(WeightSpec("square-W", -0.5, -0.5, -0.5))
    for i in range(0, 13):
        for j in range(0, 13 - i):
            want = chebyshev_moment_1d(i) * chebyshev_moment_1d(j)
            assert orc.moment(i, j) == pytest.approx(
                want, rel=1e-12, abs=1e-12 * orc.mass)


def test_square_structural_zeros_are_bit_exact():
    orc = monomial_oracle(WeightSpec("square-W", 0.5, -0.5, -0.5))
    assert orc.moment(3, 2) == 0.0
    assert orc.moment(1, 0) == 0.0
    sym = monomial_oracle(WeightSpec("square-W", 0.5, 0.5, -0.5))
    assert sym.moment(3, 1) == 0.0
    assert sym.moment(2, 1) == 0.0


def test_composed_structural_zeros():
    assert monomial_oracle(WeightSpec("square-W", 0.5, -0.5, -0.5, 2)).moment(1, 2) == 0.0
    assert monomial_oracle(WeightSpec("square-W", -0.5, -0.5, -0.5, 3)).moment(1, 2) == 0.0
    assert monomial_oracle(WeightSpec("square-W", -0.5, -0.5, -0.5, 3)).moment(2, 1) == 0.0
    assert monomial_oracle(WeightSpec("square-W", 0.0, 0.0, -0.5, 2)).moment(3, 2) == 0.0


def test_composed_chebyshev_is_fold_independent():
    pairs = [(i, j) for i in range(0, 9, 2) for j in range(0, 9, 2)]
    base = monomial_oracle(WeightSpec("square-W", -0.5, -0.5, -0.5, 1))
    for ell in (2, 3, 5):
        orc = monomial_oracle(WeightSpec("square-W", -0.5, -0.5, -0.5, ell))
        for p in pairs:
            assert orc.moment(*p) == pytest.approx(base.moment(*p), rel=1e-12)


def test_composed_trivial_fold_equals_square_oracle():
    sq = monomial_oracle(WeightSpec("square-W", 0.0, 0.0, -0.5))
    fo = monomial_oracle(WeightSpec("square-W", 0.0, 0.0, -0.5, 1))
    for i in range(0, 7, 2):
        for j in range(0, 7, 2):
            assert fo.moment(i, j) == pytest.approx(sq.moment(i, j), rel=1e-12)


@pytest.mark.parametrize("ell", [2.5, True, 2.0, 0])
def test_square_moments_refuses_an_ell_that_is_not_a_positive_integer(ell):
    """A float or bool ell once reached numpy and died there with a
    TypeError; every parameter now goes through the WeightSpec check."""
    with pytest.raises(ValueError, match="ell must be"):
        square_moments(0, 0, -0.5, ell, [(0, 0)])


def test_moments_batch_agrees_with_single_calls():
    orc = monomial_oracle(WeightSpec("square-W", 0.5, -0.5, 0.5))
    pairs = [(0, 0), (2, 2), (4, 0), (1, 1), (3, 3)]
    batch = orc.moments(pairs)
    assert set(batch) == set(pairs)
    for p in pairs:
        assert batch[p] == orc.moment(*p)
    # repeated lookups return the cached value unchanged
    assert orc.moment(2, 2) == batch[(2, 2)]


def test_refinement_ladder_contracts_until_roundoff(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_LADDER_N0", 4)
    monkeypatch.setattr(oracle_mod, "_LADDER_MIN_LEVELS", 5)
    levels = oracle_mod.angular_moment_ladder(0.5, -0.5, -0.5, [(2, 2)],
                                              lambda t, p: np.cos(t) ** p)
    vals = [float(level[0]) for level in levels]
    floor = 1e-13 * abs(vals[-1])
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    for prev, nxt in zip(diffs, diffs[1:]):
        # successive corrections shrink fast, then sit at roundoff
        assert nxt <= max(0.5 * prev, floor)


def test_ladder_moments_do_not_depend_on_the_batch(monkeypatch):
    """Within a panel each feature row lives from its first use to its last;
    a pair's moment must come out bit for bit as when it is alone."""
    pairs = [(i, d - i) for d in range(9) for i in range(d + 1)]
    # two fixed levels, so every batch stops at the same depth
    monkeypatch.setattr(oracle_mod, "_LADDER_RTOL", math.inf)
    monkeypatch.setattr(oracle_mod, "_LADDER_MAX_DOUBLINGS", 1)

    def ladder(batch):
        return oracle_mod.angular_moment_ladder(
            0.5, 0.0, 0.5, batch, lambda t, p: np.cos(t) ** p)[-1]

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
    orc = monomial_oracle(WeightSpec("square-W", al, be, g))
    mass = orc.moment(0, 0)
    for a in range(0, 5):
        for b in range(0, 5 - a):
            via_square = 0.0
            for k in range(b + 1):
                for r in range(k + 1):
                    c = comb(b, k) * comb(k, r) * (-1) ** (b - k)
                    via_square += c * orc.moment(a + 2 * r, a + 2 * (k - r))
            via_square *= 2.0 ** a
            direct = biangle_moments(al, be, g, [(a, b)])[(a, b)]
            denom = max(abs(direct), abs(mass))
            assert abs(via_square - 4.0 ** (-g) * direct) <= 1e-12 * denom


def test_report_derives_its_certified_degree():
    """One below the lowest failing total degree, in whatever order the
    failures come; the whole tested range when nothing failed."""
    assert ExactnessReport(max_degree_tested=5, worst_rel_error=3e-14).certified_degree == 5
    rep = ExactnessReport(max_degree_tested=9, worst_rel_error=0.1,
                          failures=((4, 3, 0.1), (0, 5, 0.01), (3, 3, 0.05)))
    assert rep.certified_degree == 4


def _break_reference(monkeypatch, bad_pair, value=None):
    """Make certify read reference tables with one entry replaced, by
    default with the entry plus a tenth of the mass."""
    real = oracle_mod.reference_gram

    def broken(spec, degree, rel_tol):
        out = real(spec, degree, rel_tol).copy()
        out[bad_pair] = out[bad_pair] + 0.1 * out[0, 0] if value is None else value
        return out

    monkeypatch.setattr(oracle_mod, "reference_gram", broken)


def _no_moments(spec, degree, rel_tol):
    raise AssertionError("moments requested")


def test_certified_degree_is_below_the_first_failure(monkeypatch):
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 3)
    clean = certify(rule, rule.degree, rel_tol=1e-9)
    assert clean.certified_degree == rule.degree
    assert clean.failures == ()
    # corrupt a single degree-4 reference: certification stops at 3 even
    # though every higher degree still matches
    _break_reference(monkeypatch, (2, 2))
    rep = certify(rule, rule.degree, rel_tol=1e-9)
    assert rep.certified_degree == 3
    assert [(i, j) for (i, j, _) in rep.failures] == [(2, 2)]


PARAMS = (-0.5, 0.0, 0.5)


def _criterion_3_grid(family):
    """(rule, spec) over the grid of criterion 3 in tests/test_acceptance.py."""
    specs = [(a, b, g) for a in PARAMS for b in PARAMS for g in (-0.5, 0.5)]
    if family == "biangle":
        return [(gauss_cubature_biangle(spec, n), spec) for a, b, g in specs
                for spec in [WeightSpec("biangle-gamma", a, b, g)] for n in range(1, 13)]
    if family == "composed":
        return [(composed_rule(spec, m), spec) for ell in range(1, 4)
                for spec in [WeightSpec("square-W", -0.5, -0.5, ell=ell)] for m in range(1, 5)]
    build, sizes = {"square-even": (minimal_rule_even, range(1, 9)),
                    "square-odd": (minimal_rule_odd, range(1, 6))}[family]
    return [(build(spec, m), spec) for a, b, g in specs
            for spec in [WeightSpec("square-W", a, b, g)] for m in sizes]


@pytest.mark.parametrize("family", ["biangle", "square-even", "square-odd", "composed"])
def test_certify_and_the_monomial_certificate_agree_on_the_declared_degree(family):
    """Two routes to one claim: the Chebyshev tables of certify and the
    monomial moments of the per-pair engine (tests/identities.py) both
    find every rule of the criterion-3 grid exact through its declared
    degree, at the tolerances of criterion 3."""
    tol = 1e-11 if family == "biangle" else 1e-9
    for rule, spec in _criterion_3_grid(family):
        sharp = certify(rule, rule.degree, rel_tol=tol)
        monomial = reference_certify(rule, monomial_oracle(spec), rule.degree, rel_tol=tol)
        assert sharp.certified_degree == monomial.certified_degree == rule.degree, spec


def test_both_certificates_fail_a_rule_of_another_weight():
    """A rule checked against another weight fails from low degree on."""
    rule = minimal_rule_even(WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5), 3)
    wrong = WeightSpec("square-W", 0.5, 0.0, -0.5)
    got = certify(dataclasses.replace(rule, spec=wrong), rule.degree)
    ref = reference_certify(rule, monomial_oracle(wrong), rule.degree)
    assert got.certified_degree == ref.certified_degree == -1
    assert len(got.failures) > 10 and len(ref.failures) > 10


_CHANGE_OF_BASIS_SPECS = (
    [WeightSpec("square-W", a, b, g) for a in (-0.5, 0.5, 1.7) for b in (0.0, 0.3)
     for g in (-0.5, 0.5)]
    + [WeightSpec("square-W", a, 0.5, -0.5, ell) for a in (-0.5, 0.5) for ell in (2, 3)]
    + [WeightSpec("biangle-gamma", a, b, g) for a in (-0.5, 0.5, 1.7) for b in (0.0, 0.3)
       for g in (-0.5, 0.5)]
)


@pytest.mark.parametrize("spec", _CHANGE_OF_BASIS_SPECS)
def test_chebyshev_tables_match_the_monomial_moments(spec):
    """Through degree 12, the exact change of basis x^k = sum P[k, a] T_a
    maps the Chebyshev table onto the monomial moments to 1e-13 of the
    mass times the sup of the monomial over the domain (2^i for u1^i on
    the curved domain, 1 on the square)."""
    curved = spec.family == "biangle-gamma"
    monomial = monomial_oracle(spec)
    for degree in range(13):
        got = monomials_from_gram(reference_gram(spec, degree), curved)
        for (i, j), want in monomial.moments(
                [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]).items():
            scale = 2.0**i if curved else 1.0
            assert abs(got[i, j] - want) <= 1e-13 * monomial.mass * scale, (degree, i, j)


# the rules on which the monomial certificate passed two degrees past the
# declared one; the Chebyshev certificate stops at the declared degree
_SHARPNESS = [
    (minimal_rule_even, WeightSpec("square-W", 0.5, 0.0, -0.5), 10),
    (minimal_rule_even, WeightSpec("square-W", 0.5, 0.0, -0.5), 20),
    (minimal_rule_odd, WeightSpec("square-W", 0.5, 0.0, -0.5), 8),
    (minimal_rule_odd, WeightSpec("square-W", 0.5, 0.0, 0.5), 10),
    (composed_rule, WeightSpec("square-W", 0.5, 0.0, -0.5, 4), 3),
    (composed_rule, WeightSpec("square-W", 0.5, 0.0, -0.5, 4), 6),
    (gauss_cubature_biangle, WeightSpec("biangle-gamma", -0.5, -0.5, -0.5), 20),
    (gauss_cubature_biangle, WeightSpec("biangle-gamma", -0.5, -0.5, -0.5), 40),
]


@pytest.mark.parametrize("build,spec,size", _SHARPNESS)
def test_certify_stops_at_the_declared_degree(build, spec, size):
    rule = build(spec, size)
    report = certify(rule, rule.degree + 2)
    assert report.certified_degree == rule.degree
    assert min(i + j for (i, j, _) in report.failures) == rule.degree + 1


def test_certify_reports_worst_relative_error():
    spec = WeightSpec("biangle-gamma", -0.5, -0.5, -0.5)
    rule = gauss_cubature_biangle(spec, 4)
    rep = certify(rule, rule.degree, rel_tol=1e-11)
    assert rep.certified_degree == rule.degree
    assert 0.0 <= rep.worst_rel_error < 1e-11


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_certify_rejects_a_non_finite_reference_moment(monkeypatch, bad):
    """A NaN moment fails no comparison and an infinite one has a zero
    relative error; certify refuses both instead of passing the product."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 3)
    _break_reference(monkeypatch, (2, 2), bad)
    with pytest.raises(OverflowError, match=r"T_2 T_2"):
        certify(rule, rule.degree)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_certify_rejects_a_tolerance_that_is_not_finite_and_positive(monkeypatch, tol):
    """No product fails a NaN or infinite tolerance, so such a certificate
    would pass any rule; certify refuses it before asking for a moment."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)
    monkeypatch.setattr(oracle_mod, "reference_gram", _no_moments)
    with pytest.raises(ValueError, match="rel_tol"):
        certify(rule, rule.degree, rel_tol=tol)


@pytest.mark.parametrize("max_degree", [-1, -5])
def test_certify_rejects_a_negative_max_degree(monkeypatch, max_degree):
    """-5 had died inside numpy and -1 had certified degree -1 with no
    failures; certify refuses both before asking for a moment."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)
    monkeypatch.setattr(oracle_mod, "reference_gram", _no_moments)
    with pytest.raises(ValueError, match="max_degree"):
        certify(rule, max_degree)


def _with_nodes(rule, nodes, weights):
    return dataclasses.replace(rule, nodes=nodes, weights=weights)


def test_rules_reject_non_finite_values():
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 2)
    with pytest.raises(ValueError):
        _with_nodes(rule, rule.nodes, np.full(rule.node_count, np.nan))
    bad = rule.nodes.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        _with_nodes(rule, bad, rule.weights)


def test_rules_refuse_a_family_or_size_without_a_shape():
    """The declared degree and node count are the family's at param, so a
    rule of no family, of size 0, or of another count is refused at
    construction."""
    rule = minimal_rule_even(WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5), 2)
    assert rule.degree == 7
    with pytest.raises(ValueError, match="unknown rule family 'square'"):
        dataclasses.replace(rule, family="square")
    with pytest.raises(ValueError, match="param must be >= 1, got 0"):
        dataclasses.replace(rule, param=0)
    with pytest.raises(ConstructionError, match="^square-even rule has 11 nodes, expected 12$"):
        _with_nodes(rule, rule.nodes[1:], rule.weights[1:])
    with pytest.raises(ConstructionError, match="^square-even rule has 12 nodes, expected 24$"):
        dataclasses.replace(rule, param=3)


_BIANGLE = WeightSpec("biangle-gamma", alpha=0.5, beta=0.0, gamma=-0.5)
_SQUARE = WeightSpec("square-W", alpha=0.5, beta=0.0, gamma=-0.5)


@pytest.mark.parametrize("build, spec, other", [
    (gauss_cubature_biangle, _BIANGLE, _SQUARE),
    (minimal_rule_even, _SQUARE, _BIANGLE),
    (minimal_rule_even, _SQUARE, dataclasses.replace(_SQUARE, ell=2)),
    (minimal_rule_odd, _SQUARE, _BIANGLE),
    (minimal_rule_odd, _SQUARE, dataclasses.replace(_SQUARE, ell=2)),
    (composed_rule, dataclasses.replace(_SQUARE, ell=2), _BIANGLE),
    (composed_rule, _SQUARE, dataclasses.replace(_SQUARE, gamma=0.5)),
])
def test_rules_refuse_a_spec_of_another_weight(build, spec, other):
    """A rule's spec is its family's weight: the square weight with ell = 1
    for the minimal square rules, with gamma = -1/2 for the composed rule,
    and the curved domain's for the Gauss rule.  A square rule labelled
    with the curved domain's weight had constructed, and certify then
    reported its nodes as outside that domain."""
    rule = build(spec, 2)
    with pytest.raises(ValueError, match="^%s rule needs a " % rule.family):
        dataclasses.replace(rule, spec=other)


def _with_node_0(rule, node, weight):
    """The rule with its node 0 and weight replaced, so its count still holds."""
    nodes, weights = rule.nodes.copy(), rule.weights.copy()
    nodes[0], weights[0] = node, weight
    return _with_nodes(rule, nodes, weights)


def test_certify_rejects_a_node_outside_the_square():
    """A far node carries Chebyshev products beyond 1 in magnitude, which
    the mass-relative error scale does not bound; certify refuses it."""
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    far = _with_node_0(minimal_rule_even(spec, 2), [3.0, 3.0], 1e-11)
    with pytest.raises(DomainError, match="node 0 at \\(3.0, 3.0\\) lies outside the square"):
        certify(far, far.degree)


def test_certify_refuses_a_degree_past_its_memory_budget_before_any_table(monkeypatch):
    """The peak estimate at degree D is 8 (D + 1) (11 (D + 1) + 2 _CHUNK)
    bytes: a budget of exactly that admits D, and one byte less refuses it
    before the reference is built."""
    rule = minimal_rule_even(WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5), 2)
    need = 8 * 8 * (11 * 8 + 2 * oracle_mod._CHUNK)
    monkeypatch.setattr(oracle_mod, "_MEMORY_BUDGET", need)
    assert certify(rule, 7).certified_degree == 7
    monkeypatch.setattr(oracle_mod, "_MEMORY_BUDGET", need - 1)
    monkeypatch.setattr(oracle_mod, "reference_gram", lambda *args: pytest.fail("table built"))
    with pytest.raises(MemoryError, match="^certify through degree 7 needs about "):
        certify(rule, 7)


def test_certify_rejects_a_node_outside_the_curved_domain():
    spec = WeightSpec("biangle-gamma", 0.5, -0.5, 0.5)
    # (0, 0.5) lies above the parabola u2 = u1^2 / 4
    off = _with_node_0(gauss_cubature_biangle(spec, 4), [0.0, 0.5], 1e-11)
    with pytest.raises(DomainError, match="node 0 at \\(0.0, 0.5\\) lies outside the biangle"):
        certify(off, off.degree)


def _node_past(boundary, margin):
    """A node that misses one boundary's inequality by margin, and its domain."""
    return {"square x = 1": ((1.0 + margin, 0.2), "square"),
            "square y = -1": ((0.2, -1.0 - margin), "square"),
            "parabola": ((0.0, margin / 4.0), "biangle"),
            "line u2 = u1 - 1": ((1.0 + margin, 0.0), "biangle"),
            "line u2 = -u1 - 1": ((-1.0 - margin, 0.0), "biangle")}[boundary]


@pytest.mark.parametrize("boundary", ["square x = 1", "square y = -1", "parabola",
                                      "line u2 = u1 - 1", "line u2 = -u1 - 1"])
def test_the_domain_slack_holds_on_both_sides_of_each_boundary(boundary):
    """certify's domain test has an absolute slack of 1e-12 on each
    inequality: max(|x1|, |x2|) <= 1 on the square, u1^2 - 4 u2 >= 0 and
    1 + u2 - |u1| >= 0 on the curved domain.  A node that misses one by
    0.5e-12 is admitted; one that misses it by 2e-12 is refused by name."""
    for margin, refused in ((0.5e-12, False), (2e-12, True)):
        node, domain = _node_past(boundary, margin)
        if domain == "square":
            base = minimal_rule_even(WeightSpec("square-W", -0.5, -0.5, -0.5), 2)
        else:
            base = gauss_cubature_biangle(WeightSpec("biangle-gamma", 0.5, -0.5, 0.5), 4)
        rule = _with_node_0(base, node, 1e-11)
        if refused:
            with pytest.raises(DomainError, match=re.escape(
                    "node 0 at (%r, %r) lies outside the %s domain" % (*node, domain))):
                certify(rule, 1)
        else:
            certify(rule, 1)


def _even_pairs(degree):
    return [(i, d - i) for d in range(0, degree + 1, 2) for i in range(d + 1)]


def _cos_power_row(t, p):
    return np.cos(t) ** p


def _chebyshev_row(t, p):
    return np.cos(p * t)


def _panel_row(ell):
    return lambda t, p: np.mean(np.cos(p * fold_panel_angles(ell, t)), axis=0)


# (spec, ladder parameters, feature row, degree): the criterion-3 grid, two
# points further out, and three folds; at x = cos(t), T_p(x) = cos(p t)
_CROSS_CHECK = (
    [(WeightSpec("square-W", a, b, g), (a, b, g), _chebyshev_row, 25)
     for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5) for g in (-0.5, 0.5)]
    + [(WeightSpec("square-W", a, b, g), (a, b, g), _chebyshev_row, 41)
       for (a, b, g) in ((2.3, 0.7, -0.5), (-0.5, 0.5, 0.5))]
    + [(WeightSpec("square-W", 0.5, 0.0, -0.5, ell), (0.5, 0.0, -0.5), _panel_row(ell), 25)
       for ell in (2, 3, 4)]
)


def test_exact_engine_agrees_with_the_angular_ladder():
    """The closed-form square tables and the angular ladder integrate the
    same kernel by independent routes; they agree to roundoff."""
    for spec, params, row, degree in _CROSS_CHECK:
        pairs = _even_pairs(degree)
        ladder = oracle_mod.angular_moment_ladder(*params, pairs, row)[-1]
        exact = reference_gram(spec, degree)
        err = max(abs(exact[p] - v) for p, v in zip(pairs, ladder)) / exact[0, 0]
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
    prod (1 - x_k^2)^gamma: exact Beta sums audit the exact engine's
    Chebyshev table, mapped onto monomials by the exact change of basis,
    through degree 95 and the angular ladder through degree 33."""
    ref = _polynomial_weight_moments(a, b, g, 95)
    mass = ref[(0, 0)]
    exact = monomials_from_gram(reference_gram(WeightSpec("square-W", a, b, g), 95), False)
    assert max(abs(exact[p] - v) for p, v in ref.items()) <= 1e-13 * mass
    pairs = _even_pairs(33)
    ladder = oracle_mod.angular_moment_ladder(a, b, g, pairs, _cos_power_row)[-1]
    assert max(abs(v - ref[p]) for p, v in zip(pairs, ladder)) <= 1e-13 * mass


@st.composite
def _square_specs(draw):
    ell = draw(st.integers(1, 4))
    gamma = draw(st.sampled_from([-0.5, 0.5])) if ell == 1 else -0.5
    alpha, beta = (draw(st.floats(-0.9, 4.0)) for _ in range(2))
    return WeightSpec("square-W", alpha, beta, gamma, ell)


@settings(max_examples=100, deadline=None)
@given(spec=_square_specs(), degree=st.integers(0, 60))
def test_the_closed_form_square_table_matches_the_grid_route(spec, degree):
    """reference_gram's closed form and the tensor Gauss grid in fold
    coordinates (tests/identities.py) agree on every i + j <= degree.  The
    grid alone is off by about 1.75e-11 of the mass near alpha, beta = -1,
    so the draws stop at -0.9."""
    closed = reference_gram(spec, degree)
    grid = grid_square_gram(spec, degree)
    i, j = np.indices(closed.shape)
    live = i + j <= degree
    assert np.max(np.abs(closed - grid)[live]) <= 1e-12 * closed[0, 0]


def _exact_square_table(alpha, beta, gamma, degree):
    """The square table of reference_gram over mu_0^2, in exact rationals,
    on i + j <= degree, by a route that runs no recurrence in k: with
    t = (1 + y)/2, a Beta(beta + 1, alpha + 1) variable, E t^m =
    prod_{j<m} (beta + 1 + j)/(alpha + beta + 2 + j), and T_k(2t - 1) has
    integer coefficients in t, so each mu_k/mu_0 is rational for
    binary-float alpha, beta."""
    a, b = Fraction(alpha), Fraction(beta)
    top = degree + 3
    power = [Fraction(1)]
    for m in range(top):
        power.append(power[-1] * (b + 1 + m) / (a + b + 2 + m))
    mu, prev, cur = [], [1], [-1, 2]  # T_0, T_1 in powers of t
    for k in range(top):
        mu.append(sum(c * power[m] for m, c in enumerate(prev) if c))
        # T_{k+2}(2t - 1) = 2 (2t - 1) T_{k+1} - T_k
        prev, cur = cur, [4 * (cur[m - 1] if m else 0) - 2 * (cur[m] if m < len(cur) else 0)
                          - (prev[m] if m < len(prev) else 0) for m in range(len(cur) + 1)]
    eta = [(mu[k + 1] + mu[abs(k - 1)]) / 2 for k in range(degree + 1)]
    nu = [(mu[k + 2] + 2 * mu[k] + mu[abs(k - 2)]) / 4 for k in range(degree + 1)]
    table = {}
    for i in range(degree + 1):
        for j in range(i % 2, degree + 1 - i, 2):
            p, q = (i + j) // 2, abs(i - j) // 2
            if gamma == -0.5:
                table[i, j] = mu[p] * mu[q]
            else:
                table[i, j] = (nu[p] * mu[q] + mu[p] * nu[q]) / 4 - eta[p] * eta[q] / 2
    return table


def _closed_form_error(spec, degree, exact):
    """max |table - mu_0^2 exact| over the mass, on i + j <= degree, with
    the float table and mass taken exactly: only the float table rounds."""
    table = reference_gram(spec, degree)
    mass = Fraction(table[0, 0])
    mu0_sq = Fraction(oracle_mod.jacobi_recurrence(spec.alpha, spec.beta, 1).mu0) ** 2
    worst = 0.0
    for d in range(degree + 1):
        for i in range(d + 1):
            want = mu0_sq * exact[i // spec.ell, (d - i) // spec.ell] if (
                i % spec.ell == 0 and (d - i) % spec.ell == 0 and d % 2 == 0) else 0
            worst = max(worst, abs(float((Fraction(table[i, d - i]) - want) / mass)))
    return worst


@pytest.mark.parametrize("alpha, beta, degree, tol", [
    (a, b, 60, 1e-15) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)
] + [(1.7, 0.3, 101, 1e-15)] + [
    (4.0, -0.999, 60, 1e-11), (-0.999, 4.0, 60, 1e-11),
    (-0.999, -0.99, 60, 1e-11), (-0.99, -0.999, 60, 1e-11),
])
def test_the_closed_form_square_table_is_exact_to_roundoff(alpha, beta, degree, tol):
    """Against exact rational tables, both gamma and, at gamma = -1/2, the
    composed ell = 3 table.  On the criterion-3 grid and at (1.7, 0.3) the
    closed form is within 1e-15 of the mass.  At the corners, where one
    parameter nears -1 and the eta*eta and nu*mu terms cancel at
    gamma = +1/2, it was measured within 3.9e-12."""
    for gamma in (-0.5, 0.5):
        exact = _exact_square_table(alpha, beta, gamma, degree)
        for ell in ((1, 3) if gamma == -0.5 else (1,)):
            spec = WeightSpec("square-W", alpha, beta, gamma, ell)
            assert _closed_form_error(spec, degree, exact) <= tol, (gamma, ell)


# p/q with q <= 8 in (-1, 4]: 110 distinct weights, between and beyond the
# points of the fixed grid above
_SMALL_RATIONAL = st.integers(1, 8).flatmap(lambda q: st.integers(1 - q, 4 * q).map(
    lambda p: p / q))


@settings(max_examples=30, deadline=None)
@given(alpha=_SMALL_RATIONAL, beta=_SMALL_RATIONAL, degree=st.integers(0, 40))
def test_the_closed_form_square_table_is_exact_at_drawn_rational_weights(alpha, beta, degree):
    """The exact audit above at drawn weights, so that a defect vanishing
    at each point of its fixed grid cannot pass: both gamma, and ell = 3 at
    gamma = -1/2.  Over all 12,100 pairs at degree 40, where every entry of
    a lower degree is also computed, the worst error was 2.0e-14 of the
    mass, at (29/8, -7/8), gamma = +1/2; the bound is 5e-14."""
    for gamma in (-0.5, 0.5):
        exact = _exact_square_table(alpha, beta, gamma, degree)
        for ell in ((1, 3) if gamma == -0.5 else (1,)):
            spec = WeightSpec("square-W", alpha, beta, gamma, ell)
            assert _closed_form_error(spec, degree, exact) <= 5e-14, (gamma, ell)
