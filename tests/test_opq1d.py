"""Tests for the 1D recurrence / Gauss quadrature layer."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubamin import opq1d
from cubamin.opq1d import (
    RecurrenceCoeffs,
    diagonal_zero_set,
    eval_jacobi_standard,
    eval_jacobi_standard_deriv,
    gauss_pairs,
    gauss_rule,
    jacobi_recurrence,
    quasi_S,
)
from cubamin.rules import ConstructionError, WeightSpec
from identities import eval_orthonormal, eval_orthonormal_deriv, reference_positive_zeros

# int_{-1}^{1} x^k (1-x)^a (1+x)^b dx, derived symbolically (Beta-function
# expansion) and cross-checked against adaptive quadrature at 25 digits
MOMENTS_1D = {
    (-0.5, -0.5): [math.pi, 0.0, math.pi / 2, 0.0, 3 * math.pi / 8, 0.0,
                   5 * math.pi / 16, 0.0, 35 * math.pi / 128, 0.0,
                   63 * math.pi / 256],
    (0.0, 0.0): [2.0, 0.0, 2 / 3, 0.0, 2 / 5, 0.0, 2 / 7, 0.0, 2 / 9, 0.0,
                 2 / 11],
    (0.5, 0.5): [math.pi / 2, 0.0, math.pi / 8, 0.0, math.pi / 16, 0.0,
                 5 * math.pi / 128, 0.0, 7 * math.pi / 256, 0.0,
                 21 * math.pi / 1024],
    (0.5, -0.5): [math.pi, -math.pi / 2, math.pi / 2, -3 * math.pi / 8,
                  3 * math.pi / 8, -5 * math.pi / 16, 5 * math.pi / 16,
                  -35 * math.pi / 128, 35 * math.pi / 128,
                  -63 * math.pi / 256, 63 * math.pi / 256],
    (-0.5, 0.5): [math.pi, math.pi / 2, math.pi / 2, 3 * math.pi / 8,
                  3 * math.pi / 8, 5 * math.pi / 16, 5 * math.pi / 16,
                  35 * math.pi / 128, 35 * math.pi / 128, 63 * math.pi / 256,
                  63 * math.pi / 256],
}

PARAMS = sorted(MOMENTS_1D)


def test_chebyshev_recurrence_coefficients():
    """First-kind Chebyshev: a_k = 0, b_1 = 1/2, b_k = 1/4 afterwards."""
    rc = jacobi_recurrence(-0.5, -0.5, 8)
    assert rc.mu0 == pytest.approx(math.pi, rel=1e-15)
    assert np.all(rc.a == 0.0)
    assert rc.b[0] == pytest.approx(0.5, rel=1e-14)
    assert np.allclose(rc.b[1:], 0.25, rtol=1e-14)


def test_legendre_recurrence_coefficients():
    rc = jacobi_recurrence(0.0, 0.0, 9)
    assert rc.mu0 == pytest.approx(2.0, rel=1e-15)
    assert np.all(rc.a == 0.0)
    ks = np.arange(1, 9, dtype=float)
    assert np.allclose(rc.b, ks * ks / (4 * ks * ks - 1), rtol=1e-13)


@pytest.mark.parametrize("ab", PARAMS)
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_gauss_rule_reproduces_moments(ab, m):
    """An m-point rule integrates x^k exactly for k <= 2m-1."""
    alpha, beta = ab
    rc = jacobi_recurrence(alpha, beta, m)
    q = gauss_rule(rc, m)
    mus = MOMENTS_1D[ab]
    for k in range(min(2 * m, len(mus))):
        got = float(np.dot(q.weights, q.nodes**k))
        assert got == pytest.approx(mus[k], rel=2e-13, abs=2e-13 * mus[0])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 10])
def test_symmetric_measure_gives_bitwise_node_pairs(m):
    # symmetric weights must produce exact +- pairs, middle node exactly
    # +0.0, also where beta - alpha = -0.0 makes a_0 = -0.0
    for ab in [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (0.0, -0.0)]:
        rc = jacobi_recurrence(*ab, m)
        q = gauss_rule(rc, m)
        assert np.all(q.nodes == -q.nodes[::-1])
        assert np.all(q.weights == q.weights[::-1])
        if m % 2 == 1:
            assert q.nodes[m // 2] == 0.0 and not np.signbit(q.nodes[m // 2])


def test_gauss_rule_nodes_increasing_weights_positive():
    for ab in PARAMS:
        rc = jacobi_recurrence(*ab, 12)
        q = gauss_rule(rc, 12)
        assert np.all(np.diff(q.nodes) > 0)
        assert np.all(q.weights > 0)
        assert np.all(np.abs(q.nodes) < 1.0)


@pytest.mark.parametrize("ab", PARAMS)
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_gauss_pairs_are_the_n_n_plus_1_over_2_pairs_of_koornwinder(ab, n):
    """j <= k of the n-point rule at gamma = -1/2, j < k of the (n+1)-point
    rule at +1/2, in row-major order, each weighing lam_j lam_k, and half
    that on the diagonal; at -1/2 the weights sum to mu_0^2 / 2."""
    for gamma, size in ((-0.5, n), (0.5, n + 1)):
        t, J, K, w = gauss_pairs(*ab, n, gamma)
        lam = gauss_rule(jacobi_recurrence(*ab, size), size).weights
        assert len(t) == size and len(J) == len(K) == len(w) == n * (n + 1) // 2
        assert np.all(K - J >= (gamma == 0.5)) and np.all(np.diff(J * size + K) > 0)
        assert np.array_equal(w, lam[J] * lam[K] * np.where(J == K, 0.5, 1.0))
    mu0 = MOMENTS_1D[ab][0]
    assert math.isclose(gauss_pairs(*ab, n, -0.5)[3].sum(), mu0 * mu0 / 2, rel_tol=1e-14)


def test_gauss_rule_insufficient_data():
    rc = jacobi_recurrence(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        gauss_rule(rc, 4)
    with pytest.raises(ValueError):
        gauss_rule(rc, 0)


def test_recurrence_validation():
    with pytest.raises(ValueError):
        RecurrenceCoeffs(a=np.zeros(3), b=np.array([0.5, -0.1]), mu0=1.0)
    with pytest.raises(ValueError):
        RecurrenceCoeffs(a=np.zeros(3), b=np.array([0.5, 0.2]), mu0=0.0)
    with pytest.raises(ValueError):
        jacobi_recurrence(-1.0, 0.0, 3)
    for bad in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            jacobi_recurrence(*bad, 3)
        # NaN compares false with -1: the standard family had returned NaN
        # values and the diagonal zero set a zero-count failure
        with pytest.raises(ValueError, match="finite"):
            eval_jacobi_standard(*bad, 2, [0.3])
        for sign in ("-", "+"):
            with pytest.raises(ValueError, match="finite"):
                diagonal_zero_set(*bad, 2, sign)


@pytest.mark.parametrize("value, accepted", [
    (0.5, True), (3, True), (True, True), (-0.999, True), (np.float32(0.5), True),
    (np.int64(3), True), (np.array(0.5), True),
    (-1, False), (-1.0, False), (np.float64(-1.0), False), (-2.5, False),
    (math.nan, False), (math.inf, False), (-math.inf, False), (np.float32("nan"), False),
])
@pytest.mark.parametrize("first", [True, False])
def test_every_caller_of_the_jacobi_parameter_rule_agrees(value, accepted, first):
    """rules.check_jacobi_parameters states the rule once; the weight spec,
    the recurrence and the standard Jacobi polynomials take and refuse the
    same parameters, with the same message."""
    ab = (value, 0.0) if first else (0.0, value)
    calls = [lambda: WeightSpec("square-W", *ab), lambda: jacobi_recurrence(*ab, 2),
             lambda: eval_jacobi_standard(*ab, 2, 0.3)]
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError,
                               match="^Jacobi parameters must be finite and exceed -1$"):
                call()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=10),
    st.data(),
)
def test_eigenvalues_match_dense_solver(diag, data):
    """The implicit-QL path agrees with a dense symmetric eigensolver."""
    n = len(diag)
    off = data.draw(
        st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1)
    )
    rc = RecurrenceCoeffs(
        a=np.array(diag), b=np.array(off) ** 2, mu0=1.0
    )
    try:
        q = gauss_rule(rc, n)
    except ConstructionError:
        return
    T = np.diag(np.array(diag)) + np.diag(np.array(off), 1) + np.diag(np.array(off), -1)
    ref = np.sort(np.linalg.eigvalsh(T))
    scale = max(1.0, float(np.max(np.abs(ref))))
    got = q.nodes
    if np.all(np.array(diag) == 0.0):
        # the symmetrized output pairs nodes exactly; compare as sets
        got = np.sort(got)
    assert np.max(np.abs(got - ref)) < 1e-11 * scale
    assert float(np.sum(q.weights)) == pytest.approx(1.0, rel=1e-11)


def test_orthonormal_family_is_orthonormal():
    rc = jacobi_recurrence(0.5, -0.5, 24)
    q = gauss_rule(rc, 24)
    for n in range(6):
        for k in range(n + 1):
            val = float(
                np.dot(
                    q.weights,
                    eval_orthonormal(rc, n, q.nodes) * eval_orthonormal(rc, k, q.nodes),
                )
            )
            want = 1.0 if n == k else 0.0
            assert val == pytest.approx(want, abs=1e-12)


def test_orthonormal_derivative_finite_difference():
    rc = jacobi_recurrence(0.0, 0.0, 10)
    ts = np.array([-0.7, -0.2, 0.33, 0.81])
    h = 1e-6
    for n in (1, 3, 6):
        _, d = eval_orthonormal_deriv(rc, n, ts)
        fd = (eval_orthonormal(rc, n, ts + h) - eval_orthonormal(rc, n, ts - h)) / (2 * h)
        assert np.max(np.abs(d - fd)) < 1e-7 * max(1.0, float(np.max(np.abs(d))))


def test_jacobi_standard_normalization_and_values():
    """P_n(1) = binom(n+alpha, n); quadratic Legendre checks closed form."""
    for (a, b) in [(0.0, 0.0), (0.5, -0.5), (1.0, 2.0)]:
        for n in range(5):
            v = float(eval_jacobi_standard(a, b, n, np.array(1.0)))
            assert v == pytest.approx(math.comb(n + int(a), n) if a == int(a) else v)
    ts = np.linspace(-1, 1, 9)
    assert np.allclose(
        eval_jacobi_standard(0.0, 0.0, 2, ts), (3 * ts * ts - 1) / 2, atol=1e-14
    )
    # derivative consistent with a central difference
    h = 1e-6
    d = eval_jacobi_standard_deriv(0.5, 0.5, 4, ts[1:-1])
    fd = (
        eval_jacobi_standard(0.5, 0.5, 4, ts[1:-1] + h)
        - eval_jacobi_standard(0.5, 0.5, 4, ts[1:-1] - h)
    ) / (2 * h)
    assert np.max(np.abs(d - fd)) < 1e-6


def test_quasi_combination_is_even_and_vanishes_at_one():
    ts = np.array([0.1, 0.45, 0.9])
    for (a, b) in [(-0.5, -0.5), (0.25, -0.4)]:
        for m in (1, 2, 4):
            minus = quasi_S(a, b, m, "-", ts)
            assert np.allclose(minus, quasi_S(a, b, m, "-", -ts), rtol=1e-13)
            edge = float(quasi_S(a, b, m, "-", np.array(1.0)))
            assert abs(edge) < 1e-12 * max(1.0, float(np.max(np.abs(minus))))


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.5, -0.5)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_diagonal_zero_sets(ab, m):
    """Both signs give 2m+1 interior points that kill the defining function."""
    a, b = ab
    for sign in ("-", "+"):
        zs = diagonal_zero_set(a, b, m, sign)
        assert len(zs) == 2 * m + 1
        assert np.all(np.diff(zs) > 0)
        assert np.all(np.abs(zs) < 1.0)
        # symmetric set with zero in the middle
        assert np.allclose(zs, -zs[::-1], atol=1e-14)
        assert zs[m] == pytest.approx(0.0, abs=1e-14)
    zs = diagonal_zero_set(a, b, m, "-")
    res = zs * quasi_S(a, b, m, "+", zs)
    assert np.max(np.abs(res)) < 1e-8
    zs = diagonal_zero_set(a, b, m, "+")
    nonzero = zs[np.abs(zs) > 1e-13]
    res = quasi_S(b, a, m + 1, "-", nonzero)
    assert np.max(np.abs(res)) < 1e-8


def test_diagonal_zero_set_rejects_bad_sign():
    with pytest.raises(ValueError):
        diagonal_zero_set(0.0, 0.0, 2, "x")
    with pytest.raises(ValueError):
        quasi_S(0.0, 0.0, 2, "0", np.array(0.5))



def _zero_set_or_error(alpha, beta, m, sign):
    try:
        return [float(z).hex() for z in diagonal_zero_set(alpha, beta, m, sign)]
    except (RuntimeError, ArithmeticError, RuntimeWarning) as exc:
        return type(exc), str(exc)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(-1.0, 4.0, exclude_min=True),
    beta=st.floats(-1.0, 4.0, exclude_min=True),
    m=st.integers(1, 10),
    sign=st.sampled_from("+-"),
)
@example(alpha=-0.9, beta=140.0, m=2, sign="-")
@example(alpha=1e4, beta=1e4, m=2, sign="-")
@example(alpha=-0.5, beta=3000.0, m=2, sign="-")
def test_lockstep_zero_search_matches_the_per_bracket_search(alpha, beta, m, sign):
    """The lockstep refinement gives every abscissa the bits of the
    one-bracket-at-a-time search, and fails where it fails.  The examples
    lose two zeros inside one cell of the first grid; the finer grid finds
    the first two pairs, and loses the third too."""
    got = _zero_set_or_error(alpha, beta, m, sign)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opq1d, "_positive_zeros", reference_positive_zeros)
        want = _zero_set_or_error(alpha, beta, m, sign)
    assert got == want


@pytest.mark.parametrize("alpha, beta, cells", [
    (0.5, 0.0, [128]),
    (-0.9, 140.0, [128, 2048]),
    (1e4, 1e4, [128, 2048]),
])
def test_zero_search_runs_a_finer_grid_only_when_the_first_finds_too_few(
        monkeypatch, alpha, beta, cells):
    """Each pass evaluates the combination once on its grid: a search whose
    first grid finds every zero runs once, so its zeros keep their bits; one
    that loses two zeros inside a cell runs once more on 16 times the cells
    and finds them.  Refinement calls take at most m points."""
    sizes = []

    def recorded(*args):
        sizes.append(np.size(args[-1]))
        return quasi_S(*args)

    monkeypatch.setattr(opq1d, "quasi_S", recorded)
    zeros = diagonal_zero_set(alpha, beta, 2, "-")
    assert len(zeros) == 5 and 0.0 < zeros[3] < zeros[4] < 1.0
    assert [n - 1 for n in sizes if n > 2] == cells


@pytest.mark.parametrize("sign", ["-", "+"])
def test_zero_search_evaluates_the_combination_a_few_dozen_times(monkeypatch, sign):
    """All brackets share each bisection and Newton step: at m = 12 the
    search calls quasi_S at most 60 times, where one bracket at a time
    took about 45 calls per bracket."""
    calls = []

    def counted(*args):
        calls.append(args)
        return quasi_S(*args)

    monkeypatch.setattr(opq1d, "quasi_S", counted)
    assert len(diagonal_zero_set(0.5, 0.0, 12, sign)) == 25
    assert len(calls) <= 60

# sha256 of nodes.tobytes() + weights.tobytes() of the m-point Gauss rule of
# jacobi_recurrence(alpha, beta, m), keyed by (alpha, beta, m) and recorded
# before the QL sweeps moved from numpy scalars to Python floats: an edit to
# the eigensolver that moves a last bit fails here.  First the oracle
# ladder's rules, (2b+1, 4a+3) and (0, 2a+1) for a, b in {-1/2, 0, 1/2} at
# n = 24 and 96; then the explicit builders' sizes m = 1, 2, 21 and 401.
GAUSS_RULE_SHA256 = {
    (0.0, 1.0, 24):
        "a6e60b412e9c8767cf4ac971c3758820f2dd6769068e195650a7e91261ded91f",
    (0.0, 1.0, 96):
        "f48ebcb927f9b4db79d230f4adf4f901e8b900c23d389aeaa2252bb807432e41",
    (1.0, 1.0, 24):
        "0ca36611ae0129664f83904d57c41a8f1e8e94e9126469c0cc77d1747b4151e6",
    (1.0, 1.0, 96):
        "629dec11848cb0c4b1e2fdd45e022a3e1b56dd6cd9caac50ebb2d8b432048b1d",
    (2.0, 1.0, 24):
        "758fd23b9ede4c9ae912ba914360935072c9623833f75bfc6acdb7bc69afea04",
    (2.0, 1.0, 96):
        "10e2bb3b2b99ef188d895c5639a43a82ae705239e680497616bc432bf0ec8418",
    (0.0, 3.0, 24):
        "83822c295842ad3ebd9c5fef8421c60901e2e775b3d71eb0dae0b345795f5ad1",
    (0.0, 3.0, 96):
        "046a9891a9cc9270407afcb0ed750c2012b33d0b5e09e8f4c5a10f700a2b8dae",
    (1.0, 3.0, 24):
        "036da647a341a4702949b330cf4c1ef4f92af1508ab490c7a0ff51e732191839",
    (1.0, 3.0, 96):
        "31216e2474e9adaf296c38f55c5a332bf291863212a942174faa72f58f572816",
    (2.0, 3.0, 24):
        "01ca1fa850576ad3cc4f5dc976253043173917819ee994b3c402dd257cdd6c23",
    (2.0, 3.0, 96):
        "0417c01e9227998ce35678e1a09a0e3450ab71eddea6de5ce4be80ff01b419b6",
    (0.0, 5.0, 24):
        "4924d20c8fdd85e24b9f01802dd18736e2c07d05a029ac0e750e91986d0c5398",
    (0.0, 5.0, 96):
        "2805051a595ded96c6d5db47f58eb284b88566bb5558ab045f3d5c8139ecb45f",
    (1.0, 5.0, 24):
        "81591ea3478c2e5e32d77dfc85d674c164fe98a057fda085f7d5963048bb61c0",
    (1.0, 5.0, 96):
        "1c00d767c65cdef703118d25d4426f30ac8347213e1f48f24bbf314a6335d6ae",
    (2.0, 5.0, 24):
        "c8cc033be32261043bb4dd8596d88de472743831c3e243ded63e4f565df4e445",
    (2.0, 5.0, 96):
        "f70f0a30ce88340bf792d7e7a32d365d0a40ebe9528370cd6ffbd027535aebc6",
    (0.0, 0.0, 24):
        "4500bc1d276eef875c87ec549fe959655834697283b5a26d51fa0a55095040ff",
    (0.0, 0.0, 96):
        "2f6b920b1628634358723737e6de2ada4299f16418ee318bbf1b1f46cc3e28ae",
    (0.0, 2.0, 24):
        "98a52bf6b233d7dcbc52c7a21fa0bd2be94c61119ae7a63bd7d9e7db5817da33",
    (0.0, 2.0, 96):
        "81261388a84cde2d0a56dd64f677f98f776edff9251a12daf90a6d74ea937008",
    (-0.5, -0.5, 1):
        "7d03c68836d4070336e48a6ea670382fdcc5018609060c86a19eb10b21e8efb5",
    (-0.5, -0.5, 2):
        "bc384fe334f8050b4d3d906e0513e980fe37399ca091c42924aa5096034f78c5",
    (-0.5, -0.5, 21):
        "bd1f37f5e33078f5d91a3e68f50f2c3a5bcce01770e6ea3d0734c6e4307ec55b",
    (-0.5, -0.5, 401):
        "519883b7a463bc8202b15c4f75f829a5d8839d1f9a13f4f0e15121241ebc3945",
    (0.0, 0.5, 1):
        "14f996b2db0cef5daa41e4ea6775625fd3f9eb136cfb0d00d8fbd47e3bd62144",
    (0.0, 0.5, 2):
        "a7446417e06afc9ca008e4e45d08425483694423f12483c12022ef69fed425c4",
    (0.0, 0.5, 21):
        "1eeb12ccb51ee934ab211d08119830a325fb1133fd276e7e554e28fbfd7e17fa",
    (0.0, 0.5, 401):
        "1b5bcc10bcefbd23456c10da02a8535c6e376293fca15e6c15b5892880278c2d",
    (1.5, -0.5, 1):
        "d050a167da5ad520a45948eb6efdee4119cd32b37f6854a05a8e146aed6e8086",
    (1.5, -0.5, 2):
        "7ebccf1872015c03f75305bf5e3bb3a706e46d9fc4ab84873852903ad1652c43",
    (1.5, -0.5, 21):
        "4209daa24c7fdcdcc88866ed94ebed36921b773e1e0db4150ffc28a2dbc254ab",
    (1.5, -0.5, 401):
        "917a9b59e9192df95ae4243396102a4ec733fd5d0f19e83d6f29a7c672867e2f",
}


@pytest.mark.parametrize("alpha, beta, m", list(GAUSS_RULE_SHA256))
def test_gauss_rules_are_bit_identical(alpha, beta, m):
    q = gauss_rule(jacobi_recurrence(alpha, beta, m), m)
    digest = hashlib.sha256(q.nodes.tobytes() + q.weights.tobytes()).hexdigest()
    assert digest == GAUSS_RULE_SHA256[(alpha, beta, m)]


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.5, 20.0])
@pytest.mark.parametrize("beta", [-0.75, -0.5, 0.0, 0.5, 3.0])
def test_a_one_point_gauss_rule_is_the_first_recurrence_entry_and_the_mass(alpha, beta):
    """The QL leaves a 1 x 1 matrix as it is: one node at a_0 carrying the
    mass, bit for bit, whatever the length of the recurrence.  (At
    alpha = beta, a_0 is +0.0, which the even-measure step keeps.)"""
    for length in (1, 2, 6):
        rc = jacobi_recurrence(alpha, beta, length)
        q = gauss_rule(rc, 1)
        assert q.nodes.tobytes() == rc.a[:1].tobytes()
        assert q.weights.tobytes() == np.array([rc.mu0]).tobytes()
