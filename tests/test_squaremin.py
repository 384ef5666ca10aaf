"""Minimal square rules: node budget, symmetry orbits, frozen small cases."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubamin import oracle
from cubamin.composed import composed_rule
from cubamin.oracle import angular_moment_ladder, certify, reference_gram
from cubamin.rules import ConstructionError, WeightSpec
from cubamin.squaremin import (
    half_angle_orbit,
    merge_close_nodes,
    minimal_rule_even,
    minimal_rule_odd,
    moller_bound,
)
from identities import eval_Q_basis, fold_to_biangle, weight_W

PI2 = math.pi * math.pi

S5 = math.sqrt(5.0)
S7 = math.sqrt(7.0)
S15 = math.sqrt(15.0)

# fully worked m = 1 rules: one generic four-point orbit, the origin, and a
# mirror pair on the (anti)diagonal.  Positions and weights are closed forms.
ODD_M1_RULES = {
    (-0.5, -0.5, -0.5): (
        (1.0, -0.5, PI2 / 9),
        (math.sqrt(10) / 4, math.sqrt(10) / 4, 8 * PI2 / 45),
        PI2 / 5,
    ),
    (-0.5, -0.5, 0.5): (
        ((1 + S5) / 4, (S5 - 1) / 4, PI2 / 40),
        (math.sqrt(6) / 4, -math.sqrt(6) / 4, PI2 / 30),
        PI2 / 12,
    ),
    (0.5, -0.5, -0.5): (
        (1.0, -2 / 3, 81 * PI2 / 400),
        (math.sqrt(6) / 4, math.sqrt(6) / 4, 4 * PI2 / 75),
        PI2 / 12,
    ),
    (0.5, -0.5, 0.5): (
        (math.sqrt(3) / 2, 0.0, PI2 / 96),
        (math.sqrt(2) / 2, -math.sqrt(2) / 2, PI2 / 32),
        PI2 / 48,
    ),
    (-0.5, 0.5, -0.5): (
        (1.0, 0.0, PI2 / 16),
        (math.sqrt(3) / 2, math.sqrt(3) / 2, PI2 / 3),
        PI2 / 12,
    ),
    (-0.5, 0.5, 0.5): (
        ((S15 + 5 * S7) / 20, (5 * S7 - S15) / 20, 5 * PI2 / 224),
        (math.sqrt(30) / 10, -math.sqrt(30) / 10, 5 * PI2 / 672),
        PI2 / 48,
    ),
}


def test_node_budget_lower_bound_values():
    assert moller_bound(2) == 4
    assert moller_bound(24) == 312
    assert moller_bound(40) == 840
    assert moller_bound(1) == 1
    assert moller_bound(47) == 1151


def test_node_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        moller_bound(0)
    with pytest.raises(ValueError):
        moller_bound(-3)


def test_weight_function_closed_form_chebyshev():
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=-0.5)
    x1, x2 = 0.3, 0.1
    want = 1.0 / math.sqrt((1 - x1 * x1) * (1 - x2 * x2))
    assert weight_W(spec, x1, x2) == pytest.approx(want, rel=1e-15)
    # boundary blow-up is reported as inf, not an exception
    assert math.isinf(weight_W(spec, 1.0, 0.3))


def test_weight_function_diagonal_zero():
    # 2*alpha + 1 > 0 kills the weight where x1 = x2
    spec = WeightSpec("square-W", alpha=0.5, beta=-0.5, gamma=-0.5)
    assert weight_W(spec, 0.4, 0.4) == 0.0
    assert weight_W(spec, 0.4, -0.4) > 0.0


def test_half_angle_orbit_generic():
    orbit = half_angle_orbit(np.array([0.3]), np.array([-0.8]))[0]
    assert len(orbit) == 4
    pts = {(round(a, 14), round(b, 14)) for a, b in orbit}
    for a, b in list(pts):
        assert (b, a) in pts
        assert (-a, -b) in pts


def test_half_angle_orbit_equal_args_hits_the_corner_exactly():
    orbit = half_angle_orbit(np.array([0.5]), np.array([0.5]))[0]
    assert tuple(orbit[0]) == (1.0, 0.5)
    assert (-1.0, -0.5) in map(tuple, orbit)


def test_half_angle_orbit_opposite_args_is_exactly_axial():
    orbit = half_angle_orbit(np.array([0.5]), np.array([-0.5]))[0]
    a, b = orbit[0]
    assert b == 0.0
    assert a == pytest.approx(math.sqrt(3) / 2, rel=1e-15)


def test_half_angle_orbit_rows_follow_the_pairs():
    c_j = np.array([0.3, 0.5, 0.5])
    c_k = np.array([-0.8, 0.5, -0.5])
    batch = half_angle_orbit(c_j, c_k)
    assert batch.shape == (3, 4, 2)
    for row, cj, ck in zip(batch, c_j, c_k):
        assert np.array_equal(row, half_angle_orbit(np.array([cj]), np.array([ck]))[0])


def test_merge_close_nodes_sums_weights():
    pts = [(0.5, 0.5), (0.5 + 1e-14, 0.5 - 1e-14), (-0.25, 0.75)]
    merged, wts, _ = merge_close_nodes(pts, [1.0, 2.0, 3.0], [0, 0, 0])
    assert merged.shape == (2, 2)
    assert sorted(wts.tolist()) == [3.0, 3.0]
    assert wts.sum() == 6.0


def _reference_merge(points, weights, group=None, tol=1e-12):
    """The merge as it was written, a scan on numpy rows and scalars over
    the points sorted by group, then x, then y; a run never crosses a
    group.  Returns the run points, their weights and their groups."""
    pts = np.asarray(points, dtype=float)
    wts = np.asarray(weights, dtype=float)
    grp = np.zeros(len(pts), dtype=int) if group is None else np.asarray(group)
    order = np.lexsort((pts[:, 1], pts[:, 0], grp))
    pts, wts, grp = pts[order], wts[order], grp[order]
    keep_pts, keep_wts, keep_grp = [], [], []
    for p, w, g in zip(pts, wts, grp):
        if keep_pts and g == keep_grp[-1] and abs(p[0] - keep_pts[-1][0]) <= tol and abs(
            p[1] - keep_pts[-1][1]
        ) <= tol:
            keep_wts[-1] += w
        else:
            keep_pts.append(p)
            keep_wts.append(w)
            keep_grp.append(g)
    return np.array(keep_pts), np.array(keep_wts), np.array(keep_grp, dtype=int)


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


_coord = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0 / 3.0, 0.7, 1.0])
_jitter = st.floats(-0.5e-12, 0.5e-12)


@st.composite
def _merge_inputs(draw):
    """Points with exact duplicates, jitter of at most tol/2, and chains
    whose links are within tol of each other but not of the chain's start,
    each point in one of three groups."""
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        x, y = draw(_coord), draw(_coord)
        kind = draw(st.sampled_from(["single", "duplicate", "jitter", "chain"]))
        copies = draw(st.integers(1, 4))
        for c in range(1 if kind == "single" else copies + 1):
            if kind == "jitter":
                pts.append((x + draw(_jitter), y + draw(_jitter)))
            elif kind == "chain":
                pts.append((x + 0.6e-12 * c, y - 0.6e-12 * c))
            else:
                pts.append((x, y))
    pts = draw(st.permutations(pts))
    wts = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pts), max_size=len(pts)))
    group = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    return pts, wts, group


@settings(max_examples=200, deadline=None)
@given(_merge_inputs())
def test_merge_close_nodes_matches_the_reference_scan(case):
    pts, wts, group = case
    _assert_same_arrays(merge_close_nodes(pts, wts, [0] * len(pts)), _reference_merge(pts, wts))
    _assert_same_arrays(merge_close_nodes(pts, wts, group), _reference_merge(pts, wts, group))


def test_merge_close_nodes_keeps_a_single_point_as_a_row():
    got = merge_close_nodes([(0.5, -0.25)], [2.0], [0])
    want = _reference_merge([(0.5, -0.25)], [2.0])
    assert got[0].shape == want[0].shape == (1, 2)
    assert got[1].shape == want[1].shape == (1,)
    _assert_same_arrays(got, want)


def test_merge_close_nodes_of_no_points_is_empty():
    nodes, wts, group = merge_close_nodes([], [], [])
    assert nodes.shape == (0, 2) and wts.shape == (0,) and group.shape == (0,)


def test_merge_of_a_long_chain_and_a_many_fold_duplicate_matches_the_reference():
    """A 500-link chain whose neighbours lie within tol of each other, and
    a point repeated 100 times: long runs and long sums of weights."""
    rng = np.random.default_rng(3)
    chain = [(0.25 + 0.6e-12 * c, -0.5 + 0.6e-12 * c) for c in range(500)]
    pts = chain + [(0.7, 1.0 / 3.0)] * 100
    wts = rng.uniform(0.01, 10.0, len(pts))
    order = rng.permutation(len(pts))
    pts = [pts[k] for k in order]
    got = merge_close_nodes(pts, wts, [0] * len(pts))
    want = _reference_merge(pts, wts)
    assert len(got[0]) == 250 + 1
    _assert_same_arrays(got, want)
    group = rng.integers(0, 2, len(pts))
    _assert_same_arrays(merge_close_nodes(pts, wts, group), _reference_merge(pts, wts, group))


def _square_rules_of_the_grid_and_the_readme():
    """The square-even, square-odd and composed rules of the criterion-3
    grid, then the three of the README."""
    for a, b, g in itertools.product((-0.5, 0.0, 0.5), (-0.5, 0.0, 0.5), (-0.5, 0.5)):
        spec = WeightSpec("square-W", a, b, g)
        yield from (minimal_rule_even(spec, m) for m in range(1, 9))
        yield from (minimal_rule_odd(spec, m) for m in range(1, 6))
    for ell, m in itertools.product(range(1, 4), range(1, 5)):
        yield composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=ell), m)
    yield minimal_rule_even(WeightSpec("square-W", -0.5, -0.5, -0.5), 12)
    yield minimal_rule_odd(WeightSpec("square-W", 0.5, -0.5, 0.5), 3)
    yield composed_rule(WeightSpec("square-W", -0.5, -0.5, ell=2), 6)


def test_no_two_nodes_of_a_square_rule_lie_within_the_merge_tolerance():
    """The builders end in a sort, not a merge: no two nodes of a built rule
    lie within 1e-12 per axis, so merging its rows returns them bit for bit."""
    count = 0
    for rule in _square_rules_of_the_grid_and_the_readme():
        nodes, weights, _ = merge_close_nodes(rule.nodes, rule.weights, [0] * rule.node_count)
        assert nodes.tobytes() == rule.nodes.tobytes(), (rule.family, rule.spec, rule.param)
        assert weights.tobytes() == rule.weights.tobytes(), (rule.family, rule.spec, rule.param)
        count += 1
    assert count == 18 * 13 + 12 + 3


def test_fold_map_is_exactly_four_to_one():
    rng = np.random.default_rng(7)
    for x1, x2 in rng.uniform(-1, 1, size=(25, 2)):
        base = fold_to_biangle(x1, x2)
        for y1, y2 in ((x2, x1), (-x1, -x2), (-x2, -x1)):
            assert fold_to_biangle(y1, y2) == base


@pytest.mark.parametrize("g", [-0.5, 0.5])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_even_rule_attains_the_bound(g, m):
    spec = WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=g)
    rule = minimal_rule_even(spec, m)
    assert rule.node_count == moller_bound(2 * m)
    assert rule.degree == 4 * m - 1
    assert np.all(rule.weights > 0)
    assert np.all(np.abs(rule.nodes) <= 1 + 1e-12)
    mass = reference_gram(WeightSpec("square-W", -0.5, -0.5, g), 0)[0, 0]
    assert float(rule.weights.sum()) == pytest.approx(mass, rel=1e-13)


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5)])
def test_even_rule_certifies_small_cases(ab):
    a, b = ab
    spec = WeightSpec("square-W", alpha=a, beta=b, gamma=-0.5)
    rule = minimal_rule_even(spec, 3)
    report = certify(rule, rule.degree, rel_tol=1e-9)
    assert report.certified_degree >= rule.degree


@pytest.mark.parametrize("g", [-0.5, 0.5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_odd_rule_attains_the_bound(g, m):
    rule = minimal_rule_odd(WeightSpec("square-W", -0.5, -0.5, g), m)
    assert rule.node_count == 2 * (m + 1) ** 2 - 1
    assert rule.node_count == moller_bound(2 * m + 1)
    assert rule.degree == 4 * m + 1
    assert np.all(rule.weights > 0)


def test_odd_rule_raises_the_ladder_weight_mass_overflow():
    """At alpha = 300 the moment ladder's weight (2 beta + 1, 4 alpha + 3)
    has a mass beyond float range; the odd builder raises the recurrence's
    own error, which names that weight, not the rule."""
    with pytest.raises(OverflowError, match=r"^weight mass mu0 = 2\^\(alpha\+beta\+1\) "
                       r"B\(alpha\+1, beta\+1\) of the Jacobi weight alpha=1, beta=1203 "
                       r"exceeds float range$"):
        minimal_rule_odd(WeightSpec("square-W", 300.0, 0.0, -0.5), 3)


def test_the_ladder_raises_one_overflow_error_on_a_level_past_float_range():
    """A level whose sums leave float range raises one OverflowError naming
    the weight, rather than warning and doubling NaN levels."""
    with pytest.raises(OverflowError, match=r"^moment ladder of the square weight "
                       r"alpha=0\.5, beta=0\.5, gamma=-0\.5 exceeds float range at 24 points "
                       r"per panel axis$"):
        angular_moment_ladder(0.5, 0.5, -0.5, [(0, 0)], lambda theta, p: np.full_like(theta, 1e300))


@pytest.mark.parametrize("g", [-0.5, 0.5])
def test_an_odd_rule_past_the_ladder_kernel_overflow_builds_and_certifies(g):
    """From alpha = beta = 145 the ladder's kernel powers overflow against
    Gauss-Jacobi weights near underflow, though the kernel is at most 1.
    The ladder forms those weight grids again from their logs, so the rule
    at 146 builds and certifies its declared degree."""
    rule = minimal_rule_odd(WeightSpec("square-W", 146.0, 146.0, g), 2)
    report = certify(rule, rule.degree)
    assert report.certified_degree == rule.degree == 9, report


def test_odd_rule_weights_of_zero_moments_fail_on_one_line_without_a_warning(monkeypatch):
    """Right-hand sides that are all 0 solve to weights that are all 0: the
    positivity line reads min/max nan, with no numpy warning (the test
    configuration turns a RuntimeWarning into an error)."""
    monkeypatch.setattr(oracle, "cos_basis_moments", lambda a, b, g, pairs: np.zeros(len(pairs)))
    with pytest.raises(ConstructionError, match=r"^odd-rule weights not positive \(min/max nan, "):
        minimal_rule_odd(WeightSpec("square-W", 0.5, 0.5, -0.5), 2)


@pytest.mark.parametrize("key", sorted(ODD_M1_RULES))
def test_odd_m1_rule_matches_closed_form(key):
    """m = 1 rules agree node-for-node with hand-derived positions/weights."""
    a, b, g = key
    (s, t, w_orbit), (d1, d2, w_pair), w_origin = ODD_M1_RULES[key]
    expected = [(s, t, w_orbit), (t, s, w_orbit), (-s, -t, w_orbit),
                (-t, -s, w_orbit), (d1, d2, w_pair), (-d1, -d2, w_pair),
                (0.0, 0.0, w_origin)]
    expected.sort()
    rule = minimal_rule_odd(WeightSpec("square-W", a, b, g), 1)
    assert rule.node_count == 7
    order = np.lexsort((rule.nodes[:, 1], rule.nodes[:, 0]))
    for row, (ex1, ex2, ew) in zip(order, expected):
        assert rule.nodes[row, 0] == pytest.approx(ex1, abs=1e-14)
        assert rule.nodes[row, 1] == pytest.approx(ex2, abs=1e-14)
        assert rule.weights[row] == pytest.approx(ew, rel=1e-13)


@pytest.mark.parametrize("m", [2, 4])
def test_shared_zeros_of_the_even_branch(m):
    """The m+1 degree-2m branch-1 polynomials all vanish at the rule nodes."""
    a, b, g = 0.5, -0.5, -0.5
    spec = WeightSpec("square-W", alpha=a, beta=b, gamma=g)
    rule = minimal_rule_even(spec, m)
    grid = np.linspace(-0.97, 0.97, 41)
    X1, X2 = np.meshgrid(grid, grid)
    for k in range(m + 1):
        scale = float(np.max(np.abs(eval_Q_basis(a, b, g, 2 * m, 1, k, X1, X2))))
        at_nodes = eval_Q_basis(a, b, g, 2 * m, 1, k,
                                rule.nodes[:, 0], rule.nodes[:, 1])
        assert float(np.max(np.abs(at_nodes))) < 1e-9 * scale


def test_q_basis_validation():
    with pytest.raises(ValueError):
        eval_Q_basis(-0.5, -0.5, -0.5, 4, 3, 0, 0.1, 0.2)
    with pytest.raises(ValueError):
        eval_Q_basis(-0.5, -0.5, -0.5, 4, 1, 3, 0.1, 0.2)
    with pytest.raises(ValueError):
        eval_Q_basis(-0.5, -0.5, -0.5, 4, 1, -1, 0.1, 0.2)
    with pytest.raises(ValueError):
        eval_Q_basis(-0.5, -0.5, -0.5, 4, 1, 0, 1.5, 0.2)


@pytest.mark.parametrize("g", [-0.5, 0.5])
def test_q_basis_is_finite_on_the_boundary(g):
    """Edge points make the folded arguments coincide, which takes the
    divided difference into its derivative limit; just inside, its
    quotient form applies, and the two must agree."""
    a, b = 0.5, -0.5
    inner = 1.0 - 1e-8  # |cm - cp| ~ 1e-4 here: the quotient branch
    for t in (-0.7, 0.0, 0.4):
        for edge, near_edge in (((1.0, t), (inner, t)), ((-1.0, t), (-inner, t)),
                                ((t, 1.0), (t, inner)), ((t, -1.0), (t, -inner))):
            for n in range(1, 5):
                for branch in (1, 2):
                    big = n // 2 - 1 if (n % 2 == 0 and branch == 2) else n // 2
                    for k in range(big + 1):
                        on = float(eval_Q_basis(a, b, g, n, branch, k, *edge))
                        off = float(eval_Q_basis(a, b, g, n, branch, k, *near_edge))
                        assert math.isfinite(on)
                        assert abs(on - off) <= 1e-3 * max(1.0, abs(off))


def test_weight_spec_validation():
    with pytest.raises(ValueError, match="missing Jacobi parameter: beta"):
        WeightSpec("square-W", alpha=0.0)
    with pytest.raises(ValueError):
        WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=0.25)
    with pytest.raises(ValueError):
        WeightSpec("square-W", alpha=-1.0, beta=-0.5, gamma=-0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            WeightSpec("square-W", alpha=bad, beta=-0.5, gamma=-0.5)
        with pytest.raises(ValueError, match="finite"):
            WeightSpec("biangle-gamma", alpha=-0.5, beta=bad, gamma=0.5)
    with pytest.raises(ValueError):
        WeightSpec("no-such-family", alpha=-0.5, beta=-0.5)
    with pytest.raises(ValueError):
        WeightSpec("square-W", alpha=-0.5, beta=-0.5, gamma=0.5, ell=2)
    with pytest.raises(ValueError, match="ell must be >= 1"):
        WeightSpec("square-W", alpha=-0.5, beta=-0.5, ell=0)
    with pytest.raises(ValueError, match="square-W family only"):
        WeightSpec("biangle-gamma", alpha=-0.5, beta=-0.5, ell=2)
    with pytest.raises(ValueError, match="ell = 1"):
        minimal_rule_even(WeightSpec("square-W", alpha=-0.5, beta=-0.5, ell=2), 2)
