"""Folded-weight family: angle preimages, orbit sizes, composed rules."""

import itertools
import math

import numpy as np
import pytest

from cubamin.composed import composed_rule
from cubamin.opq1d import jacobi_recurrence
from cubamin.oracle import certify, reference_gram
from cubamin.rules import ConstructionError, WeightSpec
from cubamin.squaremin import minimal_rule_even, moller_bound
from identities import (
    composed_op_identity_check,
    folding_identity_check,
    monomials_from_gram,
    orbit_sets,
    preimage_angles,
    reference_composed_rule,
    w_ell_value,
)

# ell = 2 folded Legendre moments, computed by direct symbolic integration
LEGENDRE_L2_MOMENTS = {(0, 0): 4.0, (2, 0): 2.0, (0, 2): 2.0,
                       (2, 2): 1.0, (4, 0): 1.5}


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_preimage_counts_generic_interior_angle(ell):
    for theta in (0.4, 1.1, 2.7):
        assert len(preimage_angles(ell, theta, "+")) == ell
        assert len(preimage_angles(ell, theta, "-")) == ell


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_preimage_counts_at_endpoint_angles(ell):
    # tangential contact at the endpoints halves the count, split by parity
    assert len(preimage_angles(ell, 0.0, "+")) == ell // 2 + 1
    assert len(preimage_angles(ell, 0.0, "-")) == (ell + 1) // 2
    assert len(preimage_angles(ell, math.pi, "+")) == (ell + 1) // 2
    assert len(preimage_angles(ell, math.pi, "-")) == ell // 2 + 1


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_preimage_sets_coincide_at_the_midpoint_angle(ell):
    plus = preimage_angles(ell, math.pi / 2, "+")
    minus = preimage_angles(ell, math.pi / 2, "-")
    assert len(plus) == ell and len(minus) == ell
    assert np.allclose(np.sort(plus), np.sort(minus), atol=1e-12)


def test_preimages_actually_map_back():
    for ell in (2, 3, 5):
        for theta in (0.0, 0.37, math.pi / 2, 2.9, math.pi):
            for u in preimage_angles(ell, theta, "+"):
                assert math.cos(ell * u) == pytest.approx(math.cos(theta), abs=1e-10)
            for u in preimage_angles(ell, theta, "-"):
                assert math.cos(ell * u) == pytest.approx(-math.cos(theta), abs=1e-10)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_orbit_sizes_are_products_of_axis_counts(ell):
    cases = [(0.9, 1.7), (0.0, 1.3), (math.pi, 0.8), (0.0, math.pi),
             (math.pi / 2, math.pi / 2), (0.0, 0.0)]
    for theta, phi in cases:
        neg, pos = orbit_sets(ell, theta, phi)
        n_minus = (len(preimage_angles(ell, theta, "-"))
                   * len(preimage_angles(ell, phi, "-")))
        n_plus = (len(preimage_angles(ell, theta, "+"))
                  * len(preimage_angles(ell, phi, "+")))
        assert len(neg) == n_minus
        assert len(pos) == n_plus


def test_orbit_generic_size_is_ell_squared():
    for ell in (2, 3, 4):
        neg, pos = orbit_sets(ell, 1.0, 2.0)
        assert len(neg) == ell * ell
        assert len(pos) == ell * ell


def test_degenerate_orbit_ell2_axis():
    neg, pos = orbit_sets(2, 0.0, 1.2)
    assert len(neg) == 2
    assert len(pos) == 4
    # the small branch collapses onto the x2 axis
    assert np.allclose(neg[:, 0], 0.0, atol=1e-12)


def test_folded_weight_values_and_domain():
    w = w_ell_value((-0.5, -0.5), 3, np.array([-0.7, 0.0, 0.4]))
    assert np.all(w > 0)
    with pytest.raises(ValueError):
        w_ell_value((-0.5, -0.5), 3, 1.0)
    with pytest.raises(ValueError):
        w_ell_value((-0.5, -0.5), 3, -1.0)


def test_folded_weight_reduces_to_base_at_ell_one():
    t = np.array([-0.8, -0.1, 0.3, 0.65])
    base = (1 - t) ** -0.5 * (1 + t) ** -0.5
    assert np.allclose(w_ell_value((-0.5, -0.5), 1, t), base, rtol=1e-13)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_folding_identity_small(ell):
    worst = max(folding_identity_check(ell, i) for i in range(13))
    assert worst <= 1e-12


@pytest.mark.parametrize("ell,m", [(1, 2), (2, 2), (3, 4)])
def test_substitution_identity_on_quadrature_grid(ell, m):
    rc = jacobi_recurrence(-0.5, -0.5, 220)
    assert composed_op_identity_check(rc, ell, m, grid=220) <= 1e-11


@pytest.mark.parametrize("ell,m", [(1, 3), (2, 3), (3, 2), (4, 2)])
def test_composed_rule_attains_the_bound(ell, m):
    rule = composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=ell), m)
    assert rule.node_count == 2 * ell * ell * m * m + 2 * ell * m
    assert rule.node_count == moller_bound(2 * ell * m)
    assert rule.degree == 4 * ell * m - 1
    assert np.all(rule.weights > 0)


def test_ell_one_reduces_to_the_plain_square_rule():
    """Composing with a trivial fold reproduces the direct construction."""
    folded = composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=1), 3)
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    direct = minimal_rule_even(spec, 3)
    assert folded.node_count == direct.node_count
    # row order is not comparable across constructions; pair by proximity
    for i in range(folded.node_count):
        d = np.sum((direct.nodes - folded.nodes[i]) ** 2, axis=1)
        j = int(np.argmin(d))
        assert math.sqrt(d[j]) < 1e-13
        assert folded.weights[i] == pytest.approx(direct.weights[j], rel=1e-12)


def test_composed_legendre_moments_frozen():
    got = monomials_from_gram(reference_gram(WeightSpec("square-W", 0.0, 0.0, -0.5, 2), 4),
                              False)
    for (i, j), want in LEGENDRE_L2_MOMENTS.items():
        assert got[i, j] == pytest.approx(want, rel=1e-13)
    # mass does not depend on the fold order
    five = reference_gram(WeightSpec("square-W", 0.0, 0.0, -0.5, 5), 0)
    assert five[0, 0] == pytest.approx(4.0, rel=1e-13)


def test_composed_rule_certifies_small_case():
    spec = WeightSpec("square-W", -0.5, -0.5, ell=2)
    rule = composed_rule(spec, 2)
    report = certify(rule, rule.degree, rel_tol=1e-9)
    assert report.certified_degree >= rule.degree


@pytest.mark.parametrize("ell,m,alpha,beta", [(2, 2, 0.0, 0.0), (3, 2, 0.5, -0.5)])
def test_composed_rule_certifies_over_non_chebyshev_bases(ell, m, alpha, beta):
    """The rule is built on the base weight it is labelled with."""
    rule = composed_rule(WeightSpec("square-W", alpha, beta, ell=ell), m)
    assert (rule.spec.alpha, rule.spec.beta) == (alpha, beta)
    report = certify(rule, rule.degree, rel_tol=1e-9)
    assert report.certified_degree >= rule.degree


def test_composed_rule_parameter_validation():
    with pytest.raises(ValueError):
        composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=0), 2)
    with pytest.raises(ValueError):
        composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=2), 0)


@pytest.mark.parametrize("call", [
    lambda ell: WeightSpec("square-W", alpha=0.0, beta=0.0, ell=ell),
    lambda ell: reference_gram(WeightSpec("square-W", 0, 0, -0.5, ell), 0),
    lambda ell: composed_rule(WeightSpec("square-W", 0, 0, ell=ell), 2),
])
@pytest.mark.parametrize("ell", [2.5, True])
def test_a_non_integer_ell_is_refused_by_name(call, ell):
    """A float or bool ell once reached numpy and died there with a
    TypeError that named no parameter."""
    with pytest.raises(ValueError, match="ell must be an integer"):
        call(ell)


def test_numpy_integer_ell_is_accepted():
    assert WeightSpec("square-W", alpha=0.0, beta=0.0, ell=np.int64(2)).ell == 2
    spec = WeightSpec("square-W", 0.0, 0.0, ell=np.int32(2))
    assert composed_rule(spec, 1).node_count == 2 * 4 + 2 * 2


# the weights of the bit-for-bit check against the merge route
MERGE_ROUTE_WEIGHTS = [(-0.5, -0.5), (0.5, 0.0), (-0.5, 0.5), (0.0, -0.5), (1.7, 0.3), (-0.9, 4.0)]


@pytest.mark.parametrize("alpha, beta", MERGE_ROUTE_WEIGHTS)
def test_the_direct_fold_is_the_merge_route_bit_for_bit(alpha, beta):
    """The fold places the shares of each junction twin on one point; the
    tolerance merge it replaced (identities.reference_composed_rule) gives
    the same nodes and weights bit for bit wherever that merge builds: ell
    <= 7 at m in {1, 2, 3, 5, 8}, and ell = 22, the largest ell it builds,
    at m in {1, 2}."""
    cases = list(itertools.product(range(1, 8), (1, 2, 3, 5, 8))) + [(22, 1), (22, 2)]
    for ell, m in cases:
        spec = WeightSpec("square-W", alpha, beta, ell=ell)
        rule, ref = composed_rule(spec, m), reference_composed_rule(spec, m)
        assert rule.nodes.tobytes() == ref.nodes.tobytes(), (ell, m)
        assert rule.weights.tobytes() == ref.weights.tobytes(), (ell, m)


def test_a_composed_rule_past_the_merge_builds_and_certifies():
    """At ell = 31 a folded-pi twin's cosine differs from the other's in the
    last bit and ell points sort between them, so the merge route splits
    the twin and fails its orbit count (it did from ell = 23 on).  The fold
    pairs the twins by panel: 1984 nodes, certified through degree 123."""
    spec = WeightSpec("square-W", -0.5, -0.5, ell=31)
    with pytest.raises(ConstructionError, match=r"^orbit of pair \(0,0\) has 2077 points, "
                       r"expected 1984$"):
        reference_composed_rule(spec, 1)
    rule = composed_rule(spec, 1)
    assert rule.node_count == 1984 == moller_bound(62)
    assert certify(rule, rule.degree).certified_degree == rule.degree == 123
