"""Acceptance gate: one test per headline guarantee.

Each test prints a single [PASS] line once every assertion in it has held,
so a verbose run reads as a checklist.  Tolerances are the advertised ones.
Certification runs in the Chebyshev basis, where the defect one degree past
the declared one stays of order one as rules grow, so criterion 3 checks
the first non-exact degree at every size of its grid.
"""

import itertools
import math
import time

import numpy as np

from cubamin.biangle import gauss_cubature_biangle, in_omega
from cubamin.composed import composed_rule
from cubamin.opq1d import jacobi_recurrence
from cubamin.oracle import certify, reference_gram
from cubamin.rules import WeightSpec
from cubamin.squaremin import minimal_rule_even, minimal_rule_odd, moller_bound
from identities import (
    chebyshev_moment_1d,
    composed_op_identity_check,
    eval_koornwinder,
    eval_Q_basis,
    folding_identity_check,
    monomials_from_gram,
    orbit_sets,
    preimage_angles,
)

PI2 = math.pi * math.pi
PARAMS = (-0.5, 0.0, 0.5)
GAMMAS = (-0.5, 0.5)


def test_criterion_1_fixed_size_rules():
    t0 = time.perf_counter()
    rule = gauss_cubature_biangle(WeightSpec("biangle-gamma", -0.5, -0.5, -0.5), 20)
    assert rule.node_count == 210 and rule.degree == 39
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 12)
    assert rule.node_count == 312 and rule.degree == 47
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    rule = composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=2), 6)
    assert rule.node_count == 312 and rule.degree == 47
    assert time.perf_counter() - t0 < 1.0
    print("[PASS] criterion 1: fixed-size rules have 210/312/312 nodes")


def test_criterion_2_node_counts_attain_the_lower_bound():
    for g in GAMMAS:
        spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=g)
        for m in range(1, 17):
            rule = minimal_rule_even(spec, m)
            assert rule.node_count == moller_bound(2 * m), (g, m)
    for g in GAMMAS:
        for m in range(1, 9):
            rule = minimal_rule_odd(WeightSpec("square-W", -0.5, -0.5, g), m)
            assert rule.node_count == moller_bound(2 * m + 1), (g, m)
            assert np.all(rule.weights > 0), (g, m)
    for ell in range(1, 5):
        for m in range(1, 17):
            rule = composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=ell), m)
            assert rule.node_count == moller_bound(2 * ell * m), (ell, m)
    print("[PASS] criterion 2: every rule meets its node-count lower bound "
          "exactly (even m<=16, odd m<=8, composed ell<=4)")


def test_criterion_3_certification_across_the_parameter_grid():
    t_start = time.perf_counter()

    def first_failure_is_next_degree(report, declared):
        # certified exactly through the declared degree, failed one past it
        assert report.certified_degree == declared
        return max(r for (_, _, r) in report.failures) > 1e-6

    # curved domain, n <= 12 at 1e-11
    for a, b in itertools.product(PARAMS, PARAMS):
        for g in GAMMAS:
            spec = WeightSpec("biangle-gamma", a, b, g)
            for n in range(1, 13):
                rule = gauss_cubature_biangle(spec, n)
                report = certify(rule, 2 * n, rel_tol=1e-11)
                assert first_failure_is_next_degree(report, 2 * n - 1), (a, b, g, n)

    # even square rules, m <= 8 at 1e-9
    for a, b in itertools.product(PARAMS, PARAMS):
        for g in GAMMAS:
            spec = WeightSpec("square-W", alpha=a, beta=b, gamma=g)
            for m in range(1, 9):
                rule = minimal_rule_even(spec, m)
                report = certify(rule, 4 * m, rel_tol=1e-9)
                assert first_failure_is_next_degree(report, 4 * m - 1), (a, b, g, m)

    # odd square rules, m <= 5 at 1e-9, all weights positive
    for a, b in itertools.product(PARAMS, PARAMS):
        for g in GAMMAS:
            spec = WeightSpec("square-W", alpha=a, beta=b, gamma=g)
            for m in range(1, 6):
                rule = minimal_rule_odd(spec, m)
                assert np.all(rule.weights > 0), (a, b, g, m)
                report = certify(rule, 4 * m + 2, rel_tol=1e-9)
                assert first_failure_is_next_degree(report, 4 * m + 1), (a, b, g, m)

    # composed rules at the product-weight point, ell <= 3, m <= 4 at 1e-9
    for ell in range(1, 4):
        for m in range(1, 5):
            spec = WeightSpec("square-W", -0.5, -0.5, ell=ell)
            rule = composed_rule(spec, m)
            report = certify(rule, 4 * ell * m, rel_tol=1e-9)
            assert first_failure_is_next_degree(report, 4 * ell * m - 1), (ell, m)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print("[PASS] criterion 3: full-grid certification at stated tolerances "
          "with next-degree failure above 1e-6 at every size (%.1fs)" % elapsed)


def test_criterion_4_product_moments_in_the_chebyshev_case():
    table = reference_gram(WeightSpec("square-W", -0.5, -0.5, -0.5), 24)
    got = monomials_from_gram(table, False)
    for i in range(0, 25):
        for j in range(0, 25 - i):
            want = chebyshev_moment_1d(i) * chebyshev_moment_1d(j)
            assert abs(got[i, j] - want) <= 1e-12 * max(abs(want), table[0, 0])
    print("[PASS] criterion 4: product closed form reproduced for all "
          "i+j<=24")


def test_criterion_5_nodes_are_common_zeros():
    # square rules: the m+1 degree-2m first-branch polynomials
    grid = np.linspace(-0.97, 0.97, 41)
    X1, X2 = np.meshgrid(grid, grid)
    for a, b in itertools.product(PARAMS, PARAMS):
        spec = WeightSpec("square-W", alpha=a, beta=b, gamma=-0.5)
        for m in range(1, 7):
            rule = minimal_rule_even(spec, m)
            for k in range(m + 1):
                ref = eval_Q_basis(a, b, -0.5, 2 * m, 1, k, X1, X2)
                scale = float(np.max(np.abs(ref)))
                at = eval_Q_basis(a, b, -0.5, 2 * m, 1, k,
                                  rule.nodes[:, 0], rule.nodes[:, 1])
                assert float(np.max(np.abs(at))) <= 1e-9 * scale, (a, b, m, k)

    # curved-domain rules: the n+1 degree-n orthogonal polynomials
    u1 = np.linspace(-1.9, 1.9, 37)
    u2 = np.linspace(-0.99, 0.99, 37)
    U1, U2 = np.meshgrid(u1, u2)
    keep = in_omega(U1.ravel(), U2.ravel())
    sample = np.column_stack([U1.ravel()[keep], U2.ravel()[keep]])
    for a, b in itertools.product(PARAMS, PARAMS):
        rc = jacobi_recurrence(a, b, 14)
        for g in GAMMAS:
            for n in range(1, 13):
                rule = gauss_cubature_biangle(WeightSpec("biangle-gamma", a, b, g), n)
                for k in range(n + 1):
                    ref = eval_koornwinder(rc, n, k, g, sample)
                    scale = float(np.max(np.abs(ref)))
                    at = eval_koornwinder(rc, n, k, g, rule.nodes)
                    assert float(np.max(np.abs(at))) <= 1e-9 * scale, \
                        (a, b, g, n, k)
    print("[PASS] criterion 5: rule nodes annihilate the full top-degree "
          "orthogonal slice in both geometries")


def test_criterion_6_folding_and_orbit_structure():
    for ell in range(1, 6):
        for i in range(0, 13):
            assert folding_identity_check(ell, i) <= 1e-12, (ell, i)

    rc_cheb = jacobi_recurrence(-0.5, -0.5, 220)
    rc_leg = jacobi_recurrence(0.0, 0.0, 220)
    for rc in (rc_cheb, rc_leg):
        for ell in range(1, 4):
            for m in range(1, 5):
                assert composed_op_identity_check(rc, ell, m, grid=220) <= 1e-11

    # orbit sizes: the generic fibre has ell points per axis; tangential
    # contact at the interval ends halves it with a parity split
    for ell in range(1, 7):
        for theta in (0.0, 0.31, math.pi / 2, 2.77, math.pi):
            for phi in (0.0, 1.03, math.pi / 2, math.pi):
                neg, pos = orbit_sets(ell, theta, phi)
                for sign, got in (("-", len(neg)), ("+", len(pos))):
                    want = 1
                    for ang in (theta, phi):
                        if 0.0 < ang < math.pi:
                            want_axis = ell
                        elif (ang == 0.0) == (sign == "+"):
                            want_axis = ell // 2 + 1
                        else:
                            want_axis = (ell + 1) // 2
                        want *= want_axis
                    assert got == want, (ell, theta, phi, sign)
                    assert len(preimage_angles(ell, theta, sign)) \
                        * len(preimage_angles(ell, phi, sign)) == want
        neg, pos = orbit_sets(ell, 0.9, 1.7)
        assert len(neg) == ell * ell and len(pos) == ell * ell
    print("[PASS] criterion 6: folding identities hold and orbit "
          "cardinalities match the closed-form counts")


def test_criterion_7_mass_integrals_and_constant_direction():
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    even_mass = float(minimal_rule_even(spec, 4).weights.sum())
    odd_mass = float(minimal_rule_odd(spec, 3).weights.sum())
    comp_mass = float(
        composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=2), 3).weights.sum())
    for mass in (even_mass, odd_mass, comp_mass):
        assert abs(mass - PI2) <= 1e-12 * PI2

    bi_mass = float(gauss_cubature_biangle(
        WeightSpec("biangle-gamma", -0.5, -0.5, -0.5), 8).weights.sum())
    assert abs(bi_mass - PI2 / 2) <= 1e-12 * PI2
    # a doubled weight constant would land on pi^2 instead, off by 2x
    assert abs(2 * bi_mass - PI2) <= 1e-12 * PI2
    assert abs(bi_mass - PI2) > 0.4 * PI2

    spec_plus = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=0.5)
    plus_mass = float(minimal_rule_even(spec_plus, 4).weights.sum())
    oracle_mass = reference_gram(spec_plus, 0)[0, 0]
    assert abs(plus_mass - PI2 / 4) <= 1e-12 * PI2
    assert abs(plus_mass - oracle_mass) <= 1e-12 * oracle_mass
    # quadrupling the normalization would land on pi^2, off by 4x
    assert abs(4 * plus_mass - PI2) <= 1e-12 * PI2
    assert abs(plus_mass - PI2) > 0.7 * PI2
    print("[PASS] criterion 7: unit-integrand masses hit pi^2 family "
          "targets; rescaled constants miss by factors 2 and 4")
