"""Curved-domain rules: geometry maps, reference moments, Gauss cubature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubamin.biangle import gauss_cubature_biangle
from cubamin.opq1d import jacobi_recurrence
from cubamin.oracle import DomainError, certify
from cubamin.rules import CubatureRule2D, WeightSpec
from identities import (
    biangle_moments,
    eval_koornwinder,
    in_omega,
    map_x_to_u,
    monomial_oracle,
    split_u_to_x,
)

PI2 = math.pi * math.pi

# reference values computed symbolically from the separable expansion of
# (t1 + t2)^a (t1 t2)^b over exact 1-D Jacobi moments
BIANGLE_MOMENTS = {
    (-0.5, -0.5, -0.5): {(0, 0): PI2 / 2, (1, 0): 0.0, (2, 0): PI2 / 2,
                         (0, 1): 0.0, (2, 1): PI2 / 4, (4, 0): 9 * PI2 / 8,
                         (0, 2): PI2 / 8, (3, 1): 0.0, (2, 2): 3 * PI2 / 16},
    (-0.5, -0.5, 0.5): {(0, 0): PI2 / 2, (1, 0): 0.0, (2, 0): PI2 / 8,
                        (0, 1): -PI2 / 4, (2, 1): 0.0, (4, 0): PI2 / 8,
                        (0, 2): 3 * PI2 / 16, (3, 1): 0.0, (2, 2): PI2 / 64},
    (0.0, 0.0, -0.5): {(0, 0): 2.0, (1, 0): 0.0, (2, 0): 4 / 3,
                       (0, 1): 0.0, (2, 1): 4 / 9, (4, 0): 32 / 15,
                       (0, 2): 2 / 9, (3, 1): 0.0, (2, 2): 4 / 15},
    (0.0, 0.0, 0.5): {(0, 0): 4 / 3, (1, 0): 0.0, (2, 0): 16 / 45,
                      (0, 1): -4 / 9, (2, 1): 0.0, (4, 0): 32 / 105,
                      (0, 2): 4 / 15, (3, 1): 0.0, (2, 2): 16 / 525},
    (0.5, -0.5, -0.5): {(0, 0): PI2 / 2, (1, 0): -PI2 / 2, (2, 0): 3 * PI2 / 4,
                        (0, 1): PI2 / 8, (2, 1): 7 * PI2 / 16,
                        (4, 0): 15 * PI2 / 8, (0, 2): PI2 / 8,
                        (3, 1): -3 * PI2 / 4, (2, 2): 21 * PI2 / 64},
    (0.5, -0.5, 0.5): {(0, 0): PI2 / 4, (1, 0): -PI2 / 8, (2, 0): PI2 / 8,
                       (0, 1): -PI2 / 16, (2, 1): PI2 / 64,
                       (4, 0): 5 * PI2 / 32, (0, 2): 3 * PI2 / 64,
                       (3, 1): -PI2 / 32, (2, 2): PI2 / 64},
}


def test_coordinate_maps_round_trip():
    x1 = np.array([-0.9, -0.2, 0.1, 0.7])
    x2 = np.array([-0.95, -0.4, 0.05, 0.3])
    u1, u2 = map_x_to_u(x1, x2)
    assert np.allclose(u1, x1 + x2)
    assert np.allclose(u2, x1 * x2)
    y1, y2 = split_u_to_x(u1, u2)
    # the split recovers the factor pair, order unspecified
    want = np.sort(np.column_stack([x1, x2]), axis=1)
    got = np.sort(np.column_stack([y1, y2]), axis=1)
    assert np.allclose(want, got, atol=1e-14)


def _certify_admits(u1, u2):
    """Whether certify admits a one-node curved-domain rule at (u1, u2)."""
    rule = CubatureRule2D(nodes=[[u1, u2]], weights=[1.0], param=1, family="biangle",
                          spec=WeightSpec("biangle-gamma", 0.0, 0.0))
    try:
        certify(rule, 0)
    except DomainError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1))
def test_image_points_lie_inside(x1, x2):
    assert _certify_admits(*map_x_to_u(x1, x2))


def test_domain_membership_extremes():
    u1 = [0.0, 2.0, -2.0, 0.0, 0.0, 2.1, 0.0]
    u2 = [0.0, 1.0, 1.0, -1.0, 1.1, 1.0, -1.0001]
    got = [_certify_admits(a, b) for a, b in zip(u1, u2)]
    assert got == [True, True, True, True, False, False, False]
    assert in_omega(u1, u2).tolist() == got


@pytest.mark.parametrize("key", sorted(BIANGLE_MOMENTS))
def test_reference_moments_match_symbolic_values(key):
    a_p, b_p, g = key
    mass = BIANGLE_MOMENTS[key][(0, 0)]
    for (a, b), ref in BIANGLE_MOMENTS[key].items():
        got = biangle_moments(a_p, b_p, g, [(a, b)])[(a, b)]
        assert got == pytest.approx(ref, rel=5e-14, abs=5e-14 * abs(mass))


def test_structural_zero_moments_are_exact():
    # odd power of the sum coordinate dies by symmetry, bit-exactly
    assert biangle_moments(-0.5, -0.5, -0.5, [(3, 2)])[(3, 2)] == 0.0
    assert biangle_moments(-0.5, -0.5, -0.5, [(1, 0)])[(1, 0)] == 0.0
    # product-coordinate odd moments with a = 0 die only without coupling
    assert biangle_moments(-0.5, -0.5, -0.5, [(0, 3)])[(0, 3)] == 0.0
    assert biangle_moments(-0.5, -0.5, 0.5, [(0, 3)])[(0, 3)] != 0.0
    assert biangle_moments(-0.5, -0.5, -0.5, [(2, 1)])[(2, 1)] == pytest.approx(PI2 / 4, rel=1e-14)


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.5, -0.5)])
@pytest.mark.parametrize("g", [-0.5, 0.5])
def test_moment_batch_equals_single_requests(ab, g):
    """Pairs that share a Gauss grid size share one grid in a batch; each
    moment must still come out bit for bit as when requested alone, for
    monomial oracle, since its cache keeps batch results."""
    pairs = [(a, d - a) for d in range(21) for a in range(d + 1)]
    batch = biangle_moments(*ab, g, pairs)
    assert list(batch) == pairs
    for p in pairs:
        assert batch[p] == biangle_moments(*ab, g, [p])[p]
    for make in (lambda: monomial_oracle(WeightSpec("square-W", *ab, g)),
                 lambda: monomial_oracle(WeightSpec("square-W", *ab, -0.5, 2 if g < 0 else 3))):
        batch = make().moments(pairs)
        for p in pairs:
            assert batch[p] == make().moment(*p)


@pytest.mark.parametrize("g", [-0.5, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rule_node_count_and_degree(g, n):
    rule = gauss_cubature_biangle(WeightSpec("biangle-gamma", 0.0, 0.0, g), n)
    assert rule.node_count == n * (n + 1) // 2
    assert rule.degree == 2 * n - 1
    assert np.all(rule.weights > 0)
    certify(rule, 0)  # raises DomainError on a node outside the domain


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.5, -0.5)])
@pytest.mark.parametrize("g", [-0.5, 0.5])
def test_certification_through_declared_degree(ab, g):
    """Every rule integrates all polynomials through 2n-1; degree 2n fails."""
    a, b = ab
    for n in (1, 2, 4, 6):
        spec = WeightSpec("biangle-gamma", a, b, g)
        rule = gauss_cubature_biangle(spec, n)
        report = certify(rule, 2 * n, rel_tol=1e-11)
        assert report.certified_degree == 2 * n - 1
        assert all(i + j == 2 * n for (i, j, _) in report.failures)


def test_single_node_rule_is_the_centroid_rule():
    # n = 1, symmetric base weight: one node at the origin carrying the mass
    rule = gauss_cubature_biangle(WeightSpec("biangle-gamma", -0.5, -0.5, -0.5), 1)
    assert rule.node_count == 1
    assert rule.nodes[0, 0] == 0.0 and rule.nodes[0, 1] == 0.0
    assert float(rule.weights[0]) == pytest.approx(PI2 / 2, rel=1e-15)


def test_gamma_validation():
    with pytest.raises(ValueError):
        gauss_cubature_biangle(WeightSpec("biangle-gamma", 0.0, 0.0, 0.0), 2)
    with pytest.raises(ValueError):
        gauss_cubature_biangle(WeightSpec("biangle-gamma", 0.0, 0.0, -0.5), 0)


@pytest.mark.parametrize("g", [-0.5, 0.5])
def test_orthogonal_basis_vanishes_at_nodes(g):
    """All n+1 degree-n basis members share the rule nodes as zeros."""
    rc = jacobi_recurrence(0.5, -0.5, 12)
    for n in (2, 4, 7):
        rule = gauss_cubature_biangle(WeightSpec("biangle-gamma", 0.5, -0.5, g), n)
        u1 = np.linspace(-1.9, 1.9, 31)
        u2 = np.linspace(-0.99, 0.99, 31)
        U1, U2 = np.meshgrid(u1, u2)
        keep = in_omega(U1.ravel(), U2.ravel())
        sample = np.column_stack([U1.ravel()[keep], U2.ravel()[keep]])
        for k in range(n + 1):
            scale = float(np.max(np.abs(eval_koornwinder(rc, n, k, g, sample))))
            at_nodes = eval_koornwinder(rc, n, k, g, rule.nodes)
            assert float(np.max(np.abs(at_nodes))) < 1e-9 * scale


def test_basis_divided_difference_limit_is_continuous():
    """Near-coincident arguments switch to the derivative form smoothly."""
    rc = jacobi_recurrence(-0.3, 0.4, 10)
    for n in (2, 5):
        for x in (-0.6, 0.1, 0.8):
            p_far = np.array([map_x_to_u(x + 2e-5, x - 2e-5)])
            p_near = np.array([map_x_to_u(x + 1e-6, x - 1e-6)])
            for k in range(n + 1):
                v_far = float(eval_koornwinder(rc, n, k, 0.5, p_far)[0])
                v_near = float(eval_koornwinder(rc, n, k, 0.5, p_near)[0])
                assert abs(v_far - v_near) <= 1e-3 * max(1.0, abs(v_far))


def test_basis_index_validation():
    rc = jacobi_recurrence(0.0, 0.0, 6)
    with pytest.raises(ValueError):
        eval_koornwinder(rc, 3, 4, -0.5, np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        eval_koornwinder(rc, 3, 1, 0.25, np.array([[0.0, 0.0]]))
