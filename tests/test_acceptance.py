"""Acceptance gate: one test per headline guarantee.

Each test prints a single [PASS] line once every assertion in it has held,
so a verbose run reads as a checklist.  Tolerances are the advertised ones;
where a check probes the first non-exact degree, the assertion grids stop
where the defect of the next degree is still above the stated threshold
(the defect shrinks geometrically as rules grow, so past a family-specific
size it drops below any fixed detection floor while exactness of the
declared degree keeps certifying).
"""

import itertools
import math
import time

import numpy as np

from cubamin.biangle import (
    eval_koornwinder,
    gauss_cubature_biangle,
    in_omega,
)
from cubamin.composed import composed_rule
from cubamin.opq1d import jacobi_recurrence
from cubamin.oracle import (
    BiangleMomentOracle,
    SquareMomentOracle,
    certify,
)
from cubamin.rules import WeightSpec
from cubamin.squaremin import (
    eval_Q_basis,
    minimal_rule_even,
    minimal_rule_odd,
    moller_bound,
)
from identities import (
    chebyshev_moment_1d,
    composed_op_identity_check,
    folding_identity_check,
    orbit_sets,
    preimage_angles,
)

PI2 = math.pi * math.pi
PARAMS = (-0.5, 0.0, 0.5)
GAMMAS = (-0.5, 0.5)


def test_criterion_1_fixed_size_rules():
    t0 = time.perf_counter()
    rc = jacobi_recurrence(-0.5, -0.5, 21)
    rule = gauss_cubature_biangle(rc, 20, -0.5)
    assert rule.node_count == 210 and rule.degree == 39
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    rule = minimal_rule_even(spec, 12)
    assert rule.node_count == 312 and rule.degree == 47
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    rule = composed_rule(2, 6, -0.5, -0.5)
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
            rule = minimal_rule_odd(-0.5, -0.5, g, m)
            assert rule.node_count == moller_bound(2 * m + 1), (g, m)
            assert np.all(rule.weights > 0), (g, m)
    for ell in range(1, 5):
        for m in range(1, 17):
            rule = composed_rule(ell, m, -0.5, -0.5)
            assert rule.node_count == moller_bound(2 * ell * m), (ell, m)
    print("[PASS] criterion 2: every rule meets its node-count lower bound "
          "exactly (even m<=16, odd m<=8, composed ell<=4)")


def test_criterion_3_certification_across_the_parameter_grid():
    t_start = time.perf_counter()

    # curved domain, n <= 12 at 1e-11; the declared degree is 2n-1 and the
    # next degree is detected for every n here; its defect exceeds 1e-6
    # only through n = 8
    for a, b in itertools.product(PARAMS, PARAMS):
        rc = jacobi_recurrence(a, b, 30)
        for g in GAMMAS:
            oracle = BiangleMomentOracle(rc, g)
            for n in range(1, 13):
                rule = gauss_cubature_biangle(rc, n, g)
                report = certify(rule, oracle, 2 * n, rel_tol=1e-11)
                assert report.certified_degree == 2 * n - 1, (a, b, g, n)
                if n <= 8:
                    worst = max(r for (_, _, r) in report.failures)
                    assert worst > 1e-6, (a, b, g, n)

    # even square rules, m <= 8 at 1e-9; degree-4m defect stays above the
    # tolerance through m = 7 and above 1e-6 through m = 5
    for a, b in itertools.product(PARAMS, PARAMS):
        for g in GAMMAS:
            oracle = SquareMomentOracle(a, b, g)
            spec = WeightSpec("square-W", alpha=a, beta=b, gamma=g)
            for m in range(1, 9):
                rule = minimal_rule_even(spec, m)
                ceiling = 4 * m if m <= 7 else 4 * m - 1
                report = certify(rule, oracle, ceiling, rel_tol=1e-9)
                assert report.certified_degree == 4 * m - 1, (a, b, g, m)
                if m <= 5:
                    worst = max(r for (_, _, r) in report.failures)
                    assert worst > 1e-6, (a, b, g, m)

    # odd square rules, m <= 5 at 1e-9, all weights positive; degree-(4m+2)
    # defect exceeds 1e-6 through m = 4
    for a, b in itertools.product(PARAMS, PARAMS):
        for g in GAMMAS:
            oracle = SquareMomentOracle(a, b, g)
            for m in range(1, 6):
                rule = minimal_rule_odd(a, b, g, m)
                assert np.all(rule.weights > 0), (a, b, g, m)
                report = certify(rule, oracle, 4 * m + 2, rel_tol=1e-9)
                assert report.certified_degree == 4 * m + 1, (a, b, g, m)
                if m <= 4:
                    worst = max(r for (_, _, r) in report.failures)
                    assert worst > 1e-6, (a, b, g, m)

    # composed rules at the product-weight point, ell <= 3, m <= 4 at 1e-9;
    # the next degree stays detectable while ell*m <= 6 and above 1e-6
    # while ell*m <= 4
    for ell in range(1, 4):
        for m in range(1, 5):
            rule = composed_rule(ell, m, -0.5, -0.5)
            oracle = SquareMomentOracle(-0.5, -0.5, -0.5, ell)
            ceiling = 4 * ell * m if ell * m <= 6 else 4 * ell * m - 1
            report = certify(rule, oracle, ceiling, rel_tol=1e-9)
            assert report.certified_degree == 4 * ell * m - 1, (ell, m)
            if ell * m <= 4:
                worst = max(r for (_, _, r) in report.failures)
                assert worst > 1e-6, (ell, m)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print("[PASS] criterion 3: full-grid certification at stated tolerances "
          "with next-degree failure demonstrated (%.1fs)" % elapsed)


def test_criterion_4_product_moments_in_the_chebyshev_case():
    oracle = SquareMomentOracle(-0.5, -0.5, -0.5)
    for i in range(0, 25):
        for j in range(0, 25 - i):
            want = chebyshev_moment_1d(i) * chebyshev_moment_1d(j)
            got = oracle.moment(i, j)
            assert abs(got - want) <= 1e-12 * max(abs(want), oracle.mass)
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
                rule = gauss_cubature_biangle(rc, n, g)
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
    odd_mass = float(minimal_rule_odd(-0.5, -0.5, -0.5, 3).weights.sum())
    comp_mass = float(
        composed_rule(2, 3, -0.5, -0.5).weights.sum())
    for mass in (even_mass, odd_mass, comp_mass):
        assert abs(mass - PI2) <= 1e-12 * PI2

    rc = jacobi_recurrence(-0.5, -0.5, 9)
    bi_mass = float(gauss_cubature_biangle(rc, 8, -0.5).weights.sum())
    assert abs(bi_mass - PI2 / 2) <= 1e-12 * PI2
    # a doubled weight constant would land on pi^2 instead, off by 2x
    assert abs(2 * bi_mass - PI2) <= 1e-12 * PI2
    assert abs(bi_mass - PI2) > 0.4 * PI2

    spec_plus = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=0.5)
    plus_mass = float(minimal_rule_even(spec_plus, 4).weights.sum())
    oracle_plus = SquareMomentOracle(-0.5, -0.5, 0.5)
    assert abs(plus_mass - PI2 / 4) <= 1e-12 * PI2
    assert abs(plus_mass - oracle_plus.mass) <= 1e-12 * oracle_plus.mass
    # quadrupling the normalization would land on pi^2, off by 4x
    assert abs(4 * plus_mass - PI2) <= 1e-12 * PI2
    assert abs(plus_mass - PI2) > 0.7 * PI2
    print("[PASS] criterion 7: unit-integrand masses hit pi^2 family "
          "targets; rescaled constants miss by factors 2 and 4")
