"""End-to-end checks of the command-line interface."""

import contextlib
import copy
import filecmp
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubamin.biangle as biangle_mod
import cubamin.cli as cli
import cubamin.composed as composed_mod
import cubamin.opq1d as opq1d_mod
import cubamin.oracle as oracle_mod
import cubamin.squaremin as squaremin_mod
from cubamin.cli import main, parse_rule_file
from cubamin.rules import ConstructionError
from cubamin.squaremin import moller_bound
from identities import reference_min_node_gap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_small_even(tmp_path, capsys, fmt="json", m=2):
    out = tmp_path / ("even.%s" % fmt)
    code, _, err = run(capsys, "build", "square-even", "--alpha", "-0.5",
                       "--beta", "-0.5", "--gamma", "-0.5", "--m", str(m),
                       "--out", str(out), "--format", fmt)
    assert code == 0, err
    return out


def test_bound_examples(capsys):
    for n, want in ((24, 312), (2, 4), (40, 840)):
        code, out, _ = run(capsys, "bound", "--n", str(n))
        assert code == 0
        assert out.strip() == str(want)


def test_bound_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bound", "--n", "0")
    assert code == 1
    assert err != ""


# Python 3.10.7 on limits int-to-text conversion to 4300 digits by default
_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                  reason="no int-to-text digit limit")


@_DIGIT_LIMIT
def test_bound_too_long_to_print_is_one_line(capsys):
    """n = 10^3000 parses, but its bound has 6000 digits; printing it had
    raised ValueError out of main."""
    code, stdout, err = run(capsys, "bound", "--n", str(10**3000))
    assert (code, stdout) == (1, "")
    assert err == "cubamin: --n is too large: its bound has too many digits to print\n"


@pytest.mark.parametrize("key", [
    "biangle --alpha 0.5 --beta 0 --gamma -0.5 --n 0",
    "square-even --alpha 0.5 --beta 0 --gamma -0.5 --m 0",
    "square-odd --alpha 0.5 --beta 0 --gamma 0.5 --m 0",
    "composed --ell 2 --alpha 0.5 --beta 0 --m 0",
])
def test_build_rejects_a_size_below_one(tmp_path, capsys, key):
    out = tmp_path / "rule.json"
    code, stdout, err = run(capsys, "build", *key.split(), "--out", str(out))
    flag = key.split()[-2]
    assert (code, stdout, err) == (1, "", "cubamin: %s must be >= 1\n" % flag)
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err != ""


def test_build_biangle_small(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "build", "biangle", "--alpha", "-0.5",
                          "--beta", "-0.5", "--gamma", "-0.5", "--n", "3",
                          "--out", str(out))
    assert code == 0
    assert "6 nodes" in stdout and "degree 5" in stdout
    doc = json.loads(out.read_text())
    assert doc["family"] == "biangle"
    assert doc["alpha"] == -0.5 and doc["beta"] == -0.5
    assert doc["param_n_or_m"] == 3
    assert doc["node_count"] == 6 == len(doc["nodes"])
    assert doc["moller_bound"] == moller_bound(3)


def test_json_field_order_is_stable(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys)
    pairs = json.loads(out.read_text(), object_pairs_hook=list)
    keys = [k for k, _ in pairs]
    assert keys == ["family", "alpha", "beta", "gamma", "ell", "param_n_or_m",
                    "degree", "node_count", "moller_bound", "nodes"]


def test_node_rows_are_lexicographically_sorted(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys, m=3)
    doc = json.loads(out.read_text())
    nodes = doc["nodes"]
    assert nodes == sorted(nodes, key=lambda r: (r[0], r[1]))
    for family in ("biangle --alpha -0.5 --beta 0.5 --gamma 0.5 --n 5",
                   "square-even --alpha 0.5 --beta 0.0 --gamma 0.5 --m 3",
                   "square-odd --alpha 0.5 --beta 0.0 --gamma 0.5 --m 3",
                   "composed --ell 3 --m 2 --alpha 0.5 --beta -0.5"):
        out = tmp_path / "rule.json"
        code, _, err = run(capsys, "build", *family.split(), "--out", str(out))
        assert code == 0, err
        nodes = json.loads(out.read_text())["nodes"]
        assert nodes == sorted(nodes, key=lambda r: (r[0], r[1])), family


def test_csv_layout(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys, fmt="csv")
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "x1,x2,weight"
    assert len(lines) == 1 + moller_bound(4)
    for line in lines[1:]:
        assert len(line.split(",")) == 3


def test_csv_and_json_decode_to_the_same_rule(tmp_path, capsys):
    a = build_small_even(tmp_path, capsys, fmt="json")
    b = build_small_even(tmp_path, capsys, fmt="csv")
    nodes_a, weights_a, meta_a = parse_rule_file(str(a))
    nodes_b, weights_b, meta_b = parse_rule_file(str(b))
    # shortest round-trip decimals reproduce the doubles bit for bit
    assert np.array_equal(nodes_a, nodes_b)
    assert np.array_equal(weights_a, weights_b)
    assert meta_a is not None and meta_b is None


def test_build_is_byte_deterministic(tmp_path, capsys):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    for out in (one, two):
        code, _, _ = run(capsys, "build", "composed", "--ell", "2", "--m", "2",
                         "--alpha", "-0.5", "--beta", "-0.5", "--out", str(out))
        assert code == 0
    assert filecmp.cmp(one, two, shallow=False)


def test_composed_build_counts(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "build", "composed", "--ell", "2", "--m", "2",
                     "--alpha", "-0.5", "--beta", "-0.5", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ell"] == 2
    assert doc["node_count"] == 40 == moller_bound(8)
    assert doc["degree"] == 15


def test_a_composed_rule_of_fold_degree_23_builds_and_certifies(tmp_path, capsys):
    """From ell = 23 on, the tolerance merge that the fold replaced split a
    folded-pi twin whose cosines differ in the last bit, and every composed
    build exited 2 (`orbit of pair (0,0) has 1127 points, expected 1104`)."""
    out = tmp_path / "c23.json"
    code, stdout, err = run(capsys, "build", "composed", "--alpha", "0.5", "--beta", "-0.5",
                            "--ell", "23", "--m", "2", "--out", str(out))
    assert (code, err) == (0, ""), err
    assert stdout == "wrote %s: composed, 4324 nodes, degree 183\n" % out
    assert json.loads(out.read_text())["node_count"] == 4324 == moller_bound(92)
    code, stdout, err = run(capsys, "verify", str(out))
    assert (code, err) == (0, "")
    assert stdout.startswith("declared 183, certified 183 through degree 183, "), stdout


def test_build_rejects_bad_gamma(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "build", "square-even", "--alpha", "-0.5",
                       "--beta", "-0.5", "--gamma", "0.3", "--m", "2",
                       "--out", str(out))
    assert code == 1
    assert err != ""
    assert not out.exists()


def test_build_rejects_alpha_at_minus_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "build", "biangle", "--alpha", "-1",
                       "--beta", "-0.5", "--gamma", "-0.5", "--n", "3",
                       "--out", str(out))
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    "biangle --gamma -0.5 --n 3 --alpha nan --beta 0",
    "biangle --gamma -0.5 --n 3 --alpha inf --beta 0",
    "square-even --gamma -0.5 --m 3 --alpha nan --beta 0",
    "square-even --gamma -0.5 --m 3 --alpha inf --beta 0",
    "square-odd --gamma 0.5 --m 3 --alpha nan --beta 0",
    "square-odd --gamma 0.5 --m 3 --alpha inf --beta 0",
    "composed --ell 2 --m 3 --alpha nan --beta 0",
    "composed --ell 2 --m 3 --alpha inf --beta 0",
    "biangle --gamma -0.5 --n 3 --alpha 0 --beta nan",
])
def test_build_rejects_non_finite_jacobi_parameters(tmp_path, capsys, flags):
    """NaN compares false with -1, so only an explicit finiteness test keeps
    it from the eigensolver; the build is a usage error with one line."""
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "build", *flags.split(), "--out", str(out))
    assert code == 1
    assert stdout == "" and err.count("\n") == 1 and "finite" in err, err
    assert not out.exists()


def test_construction_failure_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    def boom(spec, m):
        raise ConstructionError("synthetic failure for testing")

    monkeypatch.setattr(cli, "minimal_rule_even", boom)
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "build", "square-even", "--alpha", "-0.5",
                       "--beta", "-0.5", "--gamma", "-0.5", "--m", "2",
                       "--out", str(out))
    assert code == 2
    assert err == ("cubamin: construction failed for square-even alpha=-0.5, beta=-0.5, "
                   "gamma=-0.5, m=2: synthetic failure for testing\n"), err
    assert not out.exists()


def test_verify_round_trip(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys)
    report = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "verify", str(out), "--tol", "1e-9",
                          "--report", str(report))
    assert code == 0
    assert "OK" in stdout
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["certified_degree"] >= doc["declared_degree"] == 7
    assert doc["failures"] == []


def test_verify_detects_the_degree_ceiling(tmp_path, capsys):
    """One degree past the declared exactness the defect is visible."""
    out = build_small_even(tmp_path, capsys)
    report = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "verify", str(out), "--max-degree", "8",
                          "--tol", "1e-9", "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["certified_degree"] == 7
    assert doc["max_degree_tested"] == 8
    assert any(i + j == 8 for i, j, _ in doc["failures"])


def test_verify_odd_family(tmp_path, capsys):
    out = tmp_path / "odd.json"
    code, _, _ = run(capsys, "build", "square-odd", "--alpha", "0.5",
                     "--beta", "-0.5", "--gamma", "0.5", "--m", "2",
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "OK" in stdout


def test_verify_biangle_round_trip(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, _, _ = run(capsys, "build", "biangle", "--alpha", "0.5",
                     "--beta", "-0.5", "--gamma", "0.5", "--n", "4",
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out), "--tol", "1e-11")
    assert code == 0
    assert "OK" in stdout


def test_verify_fails_on_perturbed_weight(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["nodes"][0][2] *= 1.01
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3
    assert "FAIL" in stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                    tol):
    """The README odd rule with its first weight off by 1% fails at the
    default tolerance; a NaN or infinite one would pass it as OK."""
    out = tmp_path / "odd.json"
    code, _, err = run(capsys, "build", "square-odd", "--alpha", "0.5", "--beta",
                       "-0.5", "--gamma", "0.5", "--m", "3", "--out", str(out))
    assert code == 0, err
    doc = json.loads(out.read_text())
    doc["nodes"][0][2] *= 1.01
    out.write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    code, stdout, err = run(capsys, "verify", str(out), "--tol", tol,
                            "--report", str(report))
    assert code == 1
    assert stdout == "" and err.count("\n") == 1 and "--tol" in err, err
    assert not report.exists()


@pytest.mark.parametrize("max_degree", ["-1", "-5"])
def test_verify_rejects_a_negative_max_degree(tmp_path, capsys, max_degree):
    out = build_small_even(tmp_path, capsys)
    code, stdout, err = run(capsys, "verify", str(out), "--max-degree", max_degree)
    assert code == 1
    assert stdout == "" and err.count("\n") == 1 and "--max-degree" in err, err


def test_verify_with_low_ceiling_cannot_certify(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys)
    code, _, _ = run(capsys, "verify", str(out), "--max-degree", "5")
    assert code == 3


def test_verify_csv_is_unverifiable(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys, fmt="csv")
    code, _, err = run(capsys, "verify", str(out))
    assert code == 4
    assert "metadata" in err


def test_verify_unknown_family_is_unverifiable(tmp_path, capsys):
    out = build_small_even(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["family"] = "hexagon"
    out.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(out))
    assert code == 4
    assert err == "cubamin: no moment oracle for family 'hexagon'\n"
    # an unknown family is named as such, whatever its weight parameters
    assert _edit_and_verify(out, capsys, lambda doc: doc.update(alpha=None)) == (
        4, "", "cubamin: no moment oracle for family 'hexagon'\n")


@pytest.mark.parametrize("family, field", [
    ("square-even --alpha -0.5 --beta -0.5 --gamma -0.5 --m 2", "alpha"),
    ("square-even --alpha -0.5 --beta -0.5 --gamma -0.5 --m 2", "beta"),
    ("square-even --alpha -0.5 --beta -0.5 --gamma -0.5 --m 2", "gamma"),
    ("composed --alpha -0.5 --beta -0.5 --ell 2 --m 1", "alpha"),
])
def test_verify_names_a_null_weight_parameter(tmp_path, capsys, family, field):
    """A null alpha, beta or gamma leaves the oracle without its weight:
    exit 4, with one line that names the field.  It had read as if the
    family itself had no oracle."""
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *family.split(), "--out", str(out))[0] == 0
    code, stdout, err = _edit_and_verify(out, capsys, lambda doc: doc.update({field: None}))
    assert (code, stdout) == (4, "")
    assert err == "cubamin: no moment oracle for family %r with null %s\n" % (
        family.split()[0], field)


@pytest.mark.parametrize("degree, estimate", [(20000, "35.2"), (10**18, "8.2e+28")])
def test_verify_of_a_max_degree_beyond_memory_exits_4_with_one_line(tmp_path, capsys,
                                                                    degree, estimate):
    """certify estimates its peak memory from the degree before it builds
    any table and refuses one past its 2 GiB budget, at once.  At degree
    20000 a 12-node square file had been killed for want of memory (its
    reference's index arrays alone took 8 GB), and at 10^18 numpy's
    MemoryError for the 1-D moments had printed `Unable to allocate 6.94
    EiB`."""
    out = build_small_even(tmp_path, capsys)
    start = time.monotonic()
    code, stdout, err = run(capsys, "verify", str(out), "--max-degree", str(degree))
    assert time.monotonic() - start < 5.0
    assert (code, stdout, err) == (4, "", "cubamin: moment oracle failed: certify through "
                                   "degree %d needs about %s GiB, over its budget of 2 GiB\n"
                                   % (degree, estimate))


# a small rule of each weight family
SMALL_RULES = [
    "biangle --alpha -0.5 --beta -0.5 --gamma -0.5 --n 4",
    "square-even --alpha -0.5 --beta -0.5 --gamma -0.5 --m 2",
    "composed --alpha -0.5 --beta -0.5 --ell 2 --m 1",
]


@pytest.mark.parametrize("alpha, beta", [(521.0, 0.0), (600.0, -0.5), (1100.0, -0.5)])
@pytest.mark.parametrize("family", SMALL_RULES)
def test_verify_of_an_overflowing_weight_is_unverifiable(tmp_path, capsys,
                                                         family, alpha, beta):
    """A file whose alpha puts the reference moments beyond float range (at
    1100 the 1-D recurrence mass, at 521 and 600 the products of 1-D
    moments on the square and the grid's cell weights on the curved
    domain) exits 4 with one line; it never certifies against infinite
    moments.  Every Chebyshev moment is bounded by the mass, so the first
    alpha that overflows is the same for every family and degree."""
    out = tmp_path / "rule.json"
    code, _, err = run(capsys, "build", *family.split(), "--out", str(out))
    assert code == 0, err
    doc = json.loads(out.read_text())
    doc["alpha"] = alpha
    doc["beta"] = beta
    out.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "verify", str(out))
    assert (code, stdout) == (4, "")
    assert err.startswith("cubamin: moment oracle failed: ") and err.count("\n") == 1


_COEFFICIENT = "a recurrence coefficient"
_MASS = "weight mass mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1)"
_CANCELLED = "may lose more than 1e-10 to cancellation"


@pytest.mark.parametrize("family, step", zip(SMALL_RULES, [_COEFFICIENT, _MASS, _MASS]))
def test_verify_of_a_weight_beyond_the_recurrence_names_it(tmp_path, capsys, family, step):
    """At alpha = 1e308 the 1-D recurrence coefficients overflow in a float
    pow, whose OverflowError had printed as an errno tuple; the one line
    names the weight.  The square references take only the mass from the
    recurrence, so theirs is the line of the mass."""
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *family.split(), "--out", str(out))[0] == 0
    assert _edit_and_verify(out, capsys, lambda doc: doc.update(alpha=1e308, beta=0.0)) == (
        4, "", "cubamin: moment oracle failed: %s of the Jacobi "
        "weight alpha=1e+308, beta=0 exceeds float range\n" % step)


@pytest.mark.parametrize("weight", [1e102, 1e110, 1e153])
@pytest.mark.parametrize("family", SMALL_RULES[:1] + [
    "biangle --alpha -0.5 --beta -0.5 --gamma 0.5 --n 4"])
def test_verify_of_a_biangle_file_whose_coefficients_leave_float_range_names_it(
        tmp_path, capsys, family, weight):
    """At alpha = beta from 1e102 a product in b_k overflows to inf without
    an exception, and an edited biangle file had ended in a ValueError
    traceback with exit 1; it exits 4 with the coefficient line."""
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *family.split(), "--out", str(out))[0] == 0
    assert _edit_and_verify(out, capsys, lambda doc: doc.update(alpha=weight, beta=weight)) == (
        4, "", "cubamin: moment oracle failed: %s of the Jacobi weight alpha=%g, beta=%g "
        "exceeds float range\n" % (_COEFFICIENT, weight, weight))


@pytest.mark.parametrize("family", SMALL_RULES)
def test_verify_one_alpha_below_the_overflow_fails_the_rule(tmp_path, capsys, family):
    """At alpha = 520 the mass is near 2e307 but finite; the rule, built
    for alpha = -1/2, fails against it."""
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *family.split(), "--out", str(out))[0] == 0
    code, stdout, err = _edit_and_verify(out, capsys,
                                         lambda doc: doc.update(alpha=520.0, beta=0.0))
    assert (code, err) == (3, "") and stdout.endswith(": FAIL\n")


def test_verify_never_runs_the_angular_ladder(tmp_path, capsys, monkeypatch):
    """Every verify reference is exact, in closed form on the square and on
    the tensor grid on the curved domain; the ladder serves only the odd
    builder, so verify certifies with the ladder broken."""
    keys = ["square-even --alpha 0.5 --beta 0.0 --gamma 0.5 --m 3",
            "square-odd --alpha 0.5 --beta -0.5 --gamma 0.5 --m 3",
            "composed --alpha 0.0 --beta -0.5 --ell 3 --m 2"]
    paths = [tmp_path / ("rule%d.json" % k) for k in range(len(keys))]
    for key, path in zip(keys, paths):
        code, _, err = run(capsys, "build", *key.split(), "--out", str(path))
        assert code == 0, err

    def broken(*args, **kwargs):
        raise AssertionError("verify ran the angular moment ladder")

    monkeypatch.setattr(oracle_mod, "angular_moment_ladder", broken)
    for path in paths:
        code, stdout, err = run(capsys, "verify", str(path))
        assert code == 0, err
        assert stdout.endswith(": OK\n")


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1
    assert err != ""


def test_parse_rule_file_rejects_malformed(tmp_path):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        parse_rule_file(str(bad_csv))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text(json.dumps({"family": "biangle", "nodes": []}))
    with pytest.raises(ValueError):
        parse_rule_file(str(bad_json))
    short_row = tmp_path / "short.csv"
    short_row.write_text("x1,x2,weight\n0.1,0.2\n")
    with pytest.raises(ValueError):
        parse_rule_file(str(short_row))


@pytest.mark.parametrize("row", [
    [True, 0.1, 0.2], ["0.1", 0.1, 0.2], [None, 0.1, 0.2], [0.1, 0.2],
    [0.1, 0.2, 0.3, 0.4], {"x1": 0.1, "x2": 0.2, "weight": 0.3}, [[0.1], 0.2, 0.3],
])
def test_parse_rule_file_rejects_a_malformed_node_row(tmp_path, capsys, row):
    path = build_small_even(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["nodes"][len(doc["nodes"]) // 2] = row
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            "nodes must be a list of [x1, x2, weight] numbers")):
        parse_rule_file(str(path))


# the writers' block size while the hypothesis test runs: small, so the
# block edges cost microseconds; one fixed table checks the shipped edge
_B = 6
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.0, 3.0, 0.1, 1.0 / 3.0]


def _table(n, extra, seed):
    """n rows of [x1, x2, weight] drawn from a small pool (so values repeat
    within and across blocks) of edge values and the floats extra, about a
    third of them replaced by fresh normal values of random magnitude."""
    pool = np.array(_EDGE_FLOATS + extra)
    rng = np.random.default_rng(seed)
    table = pool[rng.integers(0, len(pool), size=(n, 3))]
    fresh = rng.random((n, 3)) < 0.3
    table[fresh] = rng.standard_normal(int(fresh.sum())) * 10.0 ** rng.integers(
        -300, 300, int(fresh.sum()))
    return table


@st.composite
def _tables(draw):
    """Tables of 0, 1, _B - 1, _B and _B + 1 rows over a drawn pool."""
    n = draw(st.sampled_from([0, 1, _B - 1, _B, _B + 1]))
    extra = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    return _table(n, extra, draw(st.integers(0, 2**32 - 1)))


def _check_writers(table):
    """JSON byte for byte json.dumps, CSV the header line and one ",".join
    of the reprs per row."""
    meta = {"family": "square-even", "alpha": -0.5, "beta": 0.0, "gamma": 0.5,
            "ell": None, "param_n_or_m": 3, "degree": 11, "node_count": len(table),
            "moller_bound": 21}
    buf = io.StringIO()
    cli.rule_to_json(meta, table[:, :2], table[:, 2], buf)
    want = dict(meta, nodes=table.tolist())
    assert buf.getvalue() == json.dumps(want) + "\n"
    buf = io.StringIO()
    cli.rule_to_csv(table[:, :2], table[:, 2], buf)
    rows = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert buf.getvalue() == "x1,x2,weight\n" + rows


@settings(max_examples=30, deadline=None)
@given(_tables())
def test_rule_to_json_writes_the_bytes_of_json_dumps(table):
    """Both writers at the edges of blocks of _B rows."""
    with mock.patch.object(cli, "_BLOCK_ROWS", _B):
        _check_writers(table)


def test_rule_to_json_writes_the_bytes_of_json_dumps_at_the_shipped_block_edge():
    """One table of cli._BLOCK_ROWS + 1 rows: a full block and one row."""
    _check_writers(_table(cli._BLOCK_ROWS + 1, [], 1))


def _edit_and_verify(path, capsys, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return run(capsys, "verify", str(path))


def test_verify_rejects_nan_weights(tmp_path, capsys):
    def edit(doc):
        for row in doc["nodes"]:
            row[2] = math.nan

    code, stdout, err = _edit_and_verify(build_small_even(tmp_path, capsys), capsys, edit)
    assert code == 1
    assert "basic validation" in err and stdout == ""


@pytest.mark.parametrize("weight", [0.0, -1e-3])
def test_verify_rejects_a_nonpositive_weight(tmp_path, capsys, weight):
    def edit(doc):
        doc["nodes"][0][2] = weight

    assert _edit_and_verify(build_small_even(tmp_path, capsys), capsys, edit) == (
        1, "", "cubamin: rule file fails basic validation: nonpositive cubature weight\n")


def test_verify_rejects_an_infinite_node(tmp_path, capsys):
    def edit(doc):
        doc["nodes"][0][0] = math.inf

    code, stdout, err = _edit_and_verify(build_small_even(tmp_path, capsys), capsys, edit)
    assert code == 1
    assert "basic validation" in err and stdout == ""


def test_verify_rejects_a_node_outside_the_square(tmp_path, capsys):
    # the file keeps its node count, which must match its family and m
    def edit(doc):
        doc["nodes"][0] = [3.0, 3.0, 1e-11]

    code, stdout, err = _edit_and_verify(build_small_even(tmp_path, capsys), capsys, edit)
    assert code == 3
    assert stdout == ""
    assert err.count("\n") == 1 and "outside the square" in err


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _short_row(doc):
    doc["nodes"][1] = doc["nodes"][1][:2]


@pytest.mark.parametrize("edit", [
    _short_row,
    _set("node_count", None),
    _set("nodes", None),
    _set("degree", 7.5),
    _set("degree", "7"),
    _set("param_n_or_m", None),
    _set("alpha", "0.5"),
], ids=["short-row", "null-node-count", "null-nodes", "float-degree",
        "string-degree", "null-param", "string-alpha"])
def test_verify_rejects_schema_violations(tmp_path, capsys, edit):
    path = build_small_even(tmp_path, capsys)
    code, stdout, err = _edit_and_verify(path, capsys, edit)
    assert code == 1
    assert stdout == "" and err.count("\n") == 1
    assert "cannot read rule file" in err
    with pytest.raises(ValueError):
        parse_rule_file(str(path))


def test_verify_rejects_a_composed_file_without_ell(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "build", "composed", "--ell", "2", "--m", "1",
                     "--alpha", "-0.5", "--beta", "-0.5", "--out", str(path))
    assert code == 0
    code, _, err = _edit_and_verify(path, capsys, _set("ell", None))
    assert code == 1
    assert "ell" in err and err.count("\n") == 1


@pytest.mark.parametrize("ell, message", [
    ("2", "composed family exists only for gamma = -1/2"),
    ("1", "composed rule needs a square-W spec with gamma = -0.5"),
])
def test_verify_honours_the_gamma_of_a_composed_file(tmp_path, capsys, ell, message):
    """The composed weight exists only for gamma = -1/2; a composed file
    claiming +1/2 had been certified against the -1/2 weight, and at
    ell = 1, where the spec itself is valid, against the square weight
    at +1/2."""
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "build", "composed", "--ell", ell, "--m", "2",
                     "--alpha", "-0.5", "--beta", "-0.5", "--out", str(path))
    assert code == 0
    code, stdout, err = _edit_and_verify(path, capsys, _set("gamma", 0.5))
    assert code == 1 and stdout == ""
    assert message in err and err.count("\n") == 1


def test_verify_honours_the_ell_of_every_family(tmp_path, capsys):
    """ell had been read only on composed files, then a square file named
    the composed weight of its ell.  Only a composed file carries one now,
    and a biangle file with one fails the weight check first."""
    square, biangle = tmp_path / "s.json", tmp_path / "b.json"
    assert run(capsys, "build", "square-even", "--alpha", "0.5", "--beta", "0.0",
               "--gamma", "-0.5", "--m", "2", "--out", str(square))[0] == 0
    assert run(capsys, "build", "biangle", "--alpha", "0.5", "--beta", "0.0",
               "--gamma", "-0.5", "--n", "3", "--out", str(biangle))[0] == 0
    code, stdout, err = _edit_and_verify(square, capsys, _set("ell", 2))
    assert code == 1 and stdout == "" and err.count("\n") == 1
    assert "only a composed rule file carries one" in err
    code, stdout, err = _edit_and_verify(biangle, capsys, _set("ell", 2))
    assert code == 1 and stdout == ""
    assert "ell is a parameter of the square-W family only" in err


def _golden_m10(tmp_path, capsys):
    path = tmp_path / "m10.json"
    assert run(capsys, "build", "square-even", "--alpha", "0.5", "--beta", "0.0",
               "--gamma", "-0.5", "--m", "10", "--out", str(path))[0] == 0
    return path


@pytest.mark.parametrize("fields,message", [
    ({"degree": 37}, "degree is 37, but a square-even rule with param_n_or_m 10 has 39"),
    ({"ell": 1000000}, "ell is 1000000, but only a composed rule file carries one"),
    ({"ell": 1000}, "ell is 1000, but only a composed rule file carries one"),
    ({"moller_bound": 7, "param_n_or_m": 3},
     "degree is 39, but a square-even rule with param_n_or_m 3 has 11"),
    ({"moller_bound": "many"}, "moller_bound is 'many', but"),
    ({"param_n_or_m": 0}, "param_n_or_m is 0, but must be >= 1"),
], ids=["degree-37", "ell-1e6", "ell-1000", "bound-7-m-3", "bound-many", "m-0"])
def test_verify_rejects_metadata_that_disagree_with_the_family(tmp_path, capsys, fields,
                                                               message):
    """The file's claim is checked before any moment: a degree-39 rule had
    certified at a declared 37, and an ell of 10^6 on a square file had
    asked for a composed weight of degree 4 * 10^6 - 1, which ran for
    minutes."""
    path = _golden_m10(tmp_path, capsys)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "certify", lambda *a, **k: calls.append(a))
        code, stdout, err = _edit_and_verify(path, capsys, lambda doc: doc.update(fields))
    assert (code, stdout, calls) == (1, "", [])
    assert err.startswith("cubamin: rule file metadata disagree: " + message)
    assert err.count("\n") == 1


@_DIGIT_LIMIT
@pytest.mark.parametrize("build, fields, message", [
    ("square-even --alpha 0.5 --beta 0 --gamma -0.5 --m 2",
     {"param_n_or_m": 10**3000, "degree": 4 * 10**3000 - 1},
     "node_count is 12, but a square-even rule with param_n_or_m %d has over 10^6000"
     % 10**3000),
    ("composed --ell 2 --m 2 --alpha 0.5 --beta 0",
     {"ell": 10**2200, "degree": 8 * 10**2200 - 1},
     "node_count is 40, but a composed rule with param_n_or_m 2 and ell %d has over 10^4400"
     % 10**2200),
], ids=["even-m-1e3000", "composed-ell-1e2200"])
def test_verify_names_an_expected_count_too_long_to_print(tmp_path, capsys, build, fields,
                                                          message):
    """A size or ell that parses, with a degree to match, asks for a node
    count of more digits than Python converts to text; formatting it had
    raised ValueError out of main.  The line gives its power of ten."""
    path = tmp_path / "rule.json"
    assert run(capsys, "build", *build.split(), "--out", str(path))[0] == 0
    code, stdout, err = _edit_and_verify(path, capsys, lambda doc: doc.update(fields))
    assert (code, stdout) == (1, "")
    assert err == "cubamin: rule file metadata disagree: %s\n" % message


@pytest.mark.parametrize("ell,m", [(2, 3), (5, 1)])
def test_verify_reads_the_ell_of_a_composed_file_into_its_shape(tmp_path, capsys, ell, m):
    """A composed file whose ell is edited no longer matches its degree."""
    path = tmp_path / "c.json"
    assert run(capsys, "build", "composed", "--ell", str(ell), "--m", str(m), "--alpha", "0.5",
               "--beta", "0.0", "--out", str(path))[0] == 0
    code, stdout, err = _edit_and_verify(path, capsys, _set("ell", ell + 1))
    assert code == 1 and stdout == ""
    assert "degree is %d, but a composed rule with param_n_or_m %d and ell %d has %d" % (
        4 * ell * m - 1, m, ell + 1, 4 * (ell + 1) * m - 1) in err


_JUNK = st.sampled_from([None, True, -3, 0, 2, 3, 7, -1.5, 0.25, 2.5, 1e300,
                         math.nan, math.inf, "x", [], [0.5], {}])


@st.composite
def _mutated(draw, doc):
    """The rule document with one to three fields or node rows broken."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        rows = doc.get("nodes")
        if isinstance(rows, list) and rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            how = draw(st.sampled_from(("drop", "junk", "short", "long", "entry")))
            row = rows[i]
            if how == "drop":
                del rows[i]
            elif how == "junk" or not (isinstance(row, list) and row):
                rows[i] = draw(_JUNK)
            elif how == "short":
                rows[i] = row[:-1]
            elif how == "long":
                rows[i] = row + [draw(_JUNK)]
            else:
                row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
        else:
            key = draw(st.sampled_from(cli._JSON_FIELDS + ("nodes",)))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(_JUNK)
    return doc


@pytest.fixture(scope="module")
def odd_m1_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("odd") / "odd1.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "square-odd", "--alpha", "0.5", "--beta", "-0.5",
                     "--gamma", "0.5", "--m", "1", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_fuzzed_rule_files_exit_with_documented_codes(
    odd_m1_doc, tmp_path_factory, data
):
    doc = data.draw(_mutated(odd_m1_doc))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    svg = tmp_path_factory.getbasetemp() / "fuzzed.svg"
    for argv, codes in ((["verify", str(path)], (0, 1, 3, 4)),
                        (["plot", str(path), str(svg)], (0, 1))):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in codes, argv
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") <= 1


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)


# every recorded rule except the ~80,000-node scale points, plus one of
# those per family: the square-even one's weights lam_j lam_k (t_j - t_k)^2
# depend in the last bit on how the square is taken, and the three run the
# array merge and the block writer at full size
@pytest.mark.parametrize("key", sorted(
    k for k in GOLDEN if not re.search(r"--n 400|--m 200|--m 50", k)
) + ["square-even --alpha -0.5 --beta 0.0 --gamma 0.5 --m 200",
     "biangle --alpha 0.5 --beta 0.0 --gamma 0.5 --n 400",
     "composed --alpha 0.5 --beta -0.5 --ell 4 --m 50"])
def test_build_reproduces_the_recorded_rule_bytes(tmp_path, capsys, key):
    out = tmp_path / "rule.json"
    code, _, err = run(capsys, "build", *key.split(), "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[key]
    head, _ = out.read_text().split(', "nodes": ', 1)
    meta = json.loads(head + "}")
    spec = cli.family_spec(*(meta[k] for k in ("family", "alpha", "beta", "gamma", "ell")))
    assert cli.metadata_mismatch(meta, spec) is None


@pytest.mark.parametrize("alpha", ["300", "1000"])
@pytest.mark.parametrize("family", [
    "biangle --gamma -0.5 --n 3",
    "square-even --gamma -0.5 --m 3",
    "square-odd --gamma -0.5 --m 3",
    "square-odd --gamma 0.5 --m 3",
    "composed --ell 2 --m 3",
])
def test_build_with_extreme_jacobi_parameters_fails_cleanly(tmp_path, capsys,
                                                            family, alpha):
    """Large alpha overflows the recurrence mass or loses zeros: the build
    either succeeds or exits 2 with one line, never a traceback."""
    out = tmp_path / "rule.json"
    code, _, err = run(capsys, "build", *family.split(), "--alpha", alpha,
                       "--beta", "0", "--out", str(out))
    assert code in (0, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1
    assert out.exists() == (code == 0)


def test_build_overflow_names_the_weight_mass(tmp_path, capsys):
    """At alpha = 300 the odd rule's moment ladder asks for a Jacobi weight
    whose mass exceeds float range; the diagnostic says so and names the
    rule's own parameters."""
    code, _, err = run(capsys, "build", "square-odd", "--alpha", "300", "--beta",
                       "0", "--gamma", "-0.5", "--m", "3",
                       "--out", str(tmp_path / "rule.json"))
    assert code == 2
    assert "weight mass" in err and "Jacobi weight" in err, err
    assert "alpha=300" in err, err


@pytest.mark.parametrize("gamma", ["-0.5", "0.5"])
def test_build_names_a_cancelled_mass_of_the_odd_rule_moments(tmp_path, capsys, gamma):
    """At alpha = beta = 1e4 the rule's own mass still holds to 1e-10, but
    the moment ladder's weight (2 beta + 1, 4 alpha + 3) loses more than
    that to cancellation; the line names the rule, then the ladder's weight
    and that limit, not float range.  At gamma = -1/2 the two positive
    diagonal zeros lie 0.005 apart, inside one cell of the first sign grid;
    the finer grid finds them, and the build stops at the ladder."""
    _build_fails(tmp_path, capsys, "square-odd --alpha 1e4 --beta 1e4 --gamma %s --m 2" % gamma,
                 "square-odd alpha=10000.0, beta=10000.0, gamma=%s, m=2" % gamma,
                 r"%s of the Jacobi weight alpha=20001, beta=40003 %s"
                 % (re.escape(_MASS), _CANCELLED))


def test_build_names_zeros_lost_between_grid_points(tmp_path, capsys, monkeypatch):
    """At alpha = -1/2, beta = 3000 the two positive diagonal zeros lie
    closer than one cell of the 16 times finer grid too, and the line names
    that grid.  The rule at that weight stops earlier, at the mass of its
    Jacobi(1/2, 3000) Gauss rule, so the search of that weight runs here in
    the build of a rule whose mass is finite."""
    real = opq1d_mod.diagonal_zero_set
    monkeypatch.setattr(squaremin_mod, "diagonal_zero_set",
                        lambda alpha, beta, m, gamma: real(-0.5, 3000.0, m, gamma))
    _build_fails(tmp_path, capsys, "square-odd --alpha -0.5 --beta 0 --gamma -0.5 --m 2",
                 "square-odd alpha=-0.5, beta=0.0, gamma=-0.5, m=2",
                 "expected 2 positive zeros, found 0 on a 2048-cell grid")


@pytest.mark.parametrize("m, nodes", [(2, 17), (3, 31)])
def test_odd_rule_with_diagonal_zeros_inside_one_grid_cell_builds_and_certifies(
        tmp_path, capsys, m, nodes):
    """At alpha = -0.9, beta = 140 the positive diagonal zeros at m = 2,
    0.99236 and 0.99967, share the last cell of the 128-cell sign grid;
    the 16 times finer grid separates them, and the rule certifies through
    its declared degree."""
    out = tmp_path / "odd.json"
    code, stdout, err = run(capsys, "build", "square-odd", "--alpha", "-0.9", "--beta", "140",
                            "--gamma", "-0.5", "--m", str(m), "--out", str(out))
    assert (code, err) == (0, ""), err
    assert stdout == "wrote %s: square-odd, %d nodes, degree %d\n" % (out, nodes, 4 * m + 1)
    code, stdout, err = run(capsys, "verify", str(out))
    assert (code, err) == (0, "")
    assert stdout.startswith("declared %d, certified %d through degree %d, "
                             % ((4 * m + 1,) * 3)) and stdout.endswith(": OK\n"), stdout


@pytest.mark.parametrize("key, rule", [
    ("biangle --gamma -0.5 --n 3 --alpha 1000 --beta 0",
     "biangle alpha=1000.0, beta=0.0, gamma=-0.5, n=3"),
    ("square-even --gamma -0.5 --m 3 --alpha 1000 --beta 0",
     "square-even alpha=1000.0, beta=0.0, gamma=-0.5, m=3"),
    ("square-odd --gamma -0.5 --m 3 --alpha 1000 --beta 0",
     "square-odd alpha=1000.0, beta=0.0, gamma=-0.5, m=3"),
    ("composed --ell 2 --m 3 --alpha 1000 --beta 0",
     "composed ell=2, m=3, alpha=1000.0, beta=0.0"),
    ("square-odd --gamma -0.5 --m 2 --alpha 1e102 --beta 1e102",
     "square-odd alpha=1e+102, beta=1e+102, gamma=-0.5, m=2"),
    ("square-odd --gamma -0.5 --m 2 --alpha 517 --beta 517",
     "square-odd alpha=517.0, beta=517.0, gamma=-0.5, m=2"),
    ("square-odd --gamma 0.5 --m 2 --alpha 517 --beta 517",
     "square-odd alpha=517.0, beta=517.0, gamma=0.5, m=2"),
    ("square-odd --gamma 0.5 --m 5 --alpha 0 --beta 300",
     "square-odd alpha=0.0, beta=300.0, gamma=0.5, m=5"),
])
def test_build_overflow_writes_one_stderr_line(tmp_path, key, rule):
    """At alpha = 1000 the Gauss weight products overflow.  Run as a child
    process, where no test harness captures numpy warnings, the build still
    writes its one diagnostic line and nothing else.  At alpha = beta =
    1e102 the odd rule's zero search had run on overflowing Jacobi values
    and printed two numpy RuntimeWarnings before its line; it now stops at
    the weight mass.  From alpha = beta = 517, at either gamma, every odd
    build stops at the mass of the moment ladder's Gauss-Jacobi weight
    (2 beta + 1, 4 alpha + 3).  The first weights that fail below it, 222
    (gamma = -1/2) and 294 (+1/2), end at the ladder's memory budget after
    about 30 s and 1.2 GB each, too costly for Tier-1; CI runs that line for
    (0.5, -0.9, -1/2), m = 1.  At beta = 300 the odd solve's right-hand
    sides near 1e160 had overflowed the norm of its residual gate, with a
    two-line numpy warning before the line."""
    out = tmp_path / "rule.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "cubamin.cli", "build", *key.split(), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 2
    assert child.stderr.startswith("cubamin: construction failed for %s: " % rule), child.stderr
    assert child.stderr.count("\n") == 1 and child.stderr.endswith("\n")
    assert child.stdout == ""
    assert not out.exists()


def test_an_odd_rule_with_moments_near_1e160_builds_without_a_warning(tmp_path):
    """The odd solve gates on its right-hand sides scaled by a power of two,
    so at beta = 300 the norm of b no longer overflows: the gate can fail
    again, and a child process writes nothing to stderr."""
    out = tmp_path / "rule.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "cubamin.cli", "build", "square-odd", "--alpha", "0",
         "--beta", "300", "--gamma", "-0.5", "--m", "2", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "wrote %s: square-odd, 17 nodes, degree 9\n" % out


@pytest.mark.parametrize("family, rule", [
    ("biangle --alpha 0 --beta 0 --gamma -0.5 --n 1000000000000000",
     "biangle alpha=0.0, beta=0.0, gamma=-0.5, n=1000000000000000"),
    ("composed --ell 1000000000000000 --m 1 --alpha 0 --beta 0",
     "composed ell=1000000000000000, m=1, alpha=0.0, beta=0.0"),
])
def test_build_of_a_size_beyond_memory_exits_2_with_one_line(tmp_path, capsys, family, rule):
    """Each size asks for 7.11 PiB at its first allocation, which fails at
    once; numpy's MemoryError had ended in a traceback with exit 1."""
    out = tmp_path / "rule.json"
    code, stdout, err = run(capsys, "build", *family.split(), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("cubamin: construction failed for %s: " % rule), err
    assert err.count("\n") == 1, err
    assert not out.exists()


ODD_M1 = "square-odd --alpha 0.5 --beta -0.5 --gamma 0.5 --m 1"
ODD_M1_RULE = "square-odd alpha=0.5, beta=-0.5, gamma=0.5, m=1"


def _build_fails(tmp_path, capsys, key, rule, cause):
    """Build key: exit 2, nothing on stdout, no file, and one stderr line
    that names the rule, the literal text rule, then fullmatches the
    pattern cause."""
    out = tmp_path / "failed.json"
    code, stdout, err = run(capsys, "build", *key.split(), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert re.fullmatch("cubamin: construction failed for %s: %s\n" % (re.escape(rule), cause),
                        err), err
    assert not out.exists()


def test_a_moment_ladder_that_does_not_converge_fails_the_odd_build(
        tmp_path, capsys, monkeypatch):
    """No ladder settles at rtol 0.  The odd rule's m = 1 pairs hold 20
    n x n arrays per level; a budget of 8 * 48^2 * 40 bytes admits the
    levels of 24 and 48 points per panel axis and refuses the third for
    any count between 10 and 40.  The odd build, whose right-hand sides
    come from the ladder, exits 2 with the ladder's line."""
    monkeypatch.setattr(oracle_mod, "_LADDER_RTOL", 0.0)
    monkeypatch.setattr(oracle_mod, "_MEMORY_BUDGET", 8 * 48**2 * 40)
    _build_fails(tmp_path, capsys, ODD_M1, ODD_M1_RULE, r"moment ladder did not converge to "
                 r"0\.0e\+00 at 48 points per panel axis, the last level within the oracle's "
                 r"memory budget of 0\.000686646 GiB \(achieved \S+\)")


def test_a_ql_sweep_limit_fails_build_and_verify(tmp_path, capsys, monkeypatch):
    """With no QL sweep allowed every Gauss rule of two or more nodes fails:
    the build exits 2 and the verify of a good biangle file, whose reference
    sums over a Gauss grid, exits 4, each with the eigensolver's line.  The
    square references are closed forms and run no QL, so good square-even
    and composed files still certify."""
    keys = SMALL_RULES + ["square-even --alpha 0.5 --beta 0 --gamma 0.5 --m 3"]
    paths = [tmp_path / ("rule%d.json" % k) for k in range(len(keys))]
    for key, path in zip(keys, paths):
        assert run(capsys, "build", *key.split(), "--out", str(path))[0] == 0
    real = opq1d_mod._ql_implicit
    monkeypatch.setattr(opq1d_mod, "_ql_implicit",
                        lambda d, e, max_iter_total: real(d, e, 0))
    _build_fails(tmp_path, capsys, "square-even --alpha -0.5 --beta -0.5 --gamma -0.5 --m 2",
                 "square-even alpha=-0.5, beta=-0.5, gamma=-0.5, m=2",
                 "QL iteration exceeded 0 sweeps")
    assert run(capsys, "verify", str(paths[0])) == (
        4, "", "cubamin: moment oracle failed: QL iteration exceeded 0 sweeps\n")
    for path in paths[1:]:
        code, stdout, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "") and stdout.endswith(": OK\n")


def test_a_lost_diagonal_zero_fails_the_odd_build(tmp_path, capsys, monkeypatch):
    """An odd rule whose zero search finds one abscissa fewer than it needs,
    on the first grid and on the 16 times finer one, exits 2 with the count
    and the finer grid."""
    real = opq1d_mod._positive_zeros
    monkeypatch.setattr(opq1d_mod, "_positive_zeros",
                        lambda f, fprime, m, grid_n: real(f, fprime, m + 1, grid_n))
    _build_fails(tmp_path, capsys, ODD_M1, ODD_M1_RULE,
                 "expected 2 positive zeros, found 1 on a 2048-cell grid")


def test_an_escaped_diagonal_zero_fails_the_odd_build(tmp_path, capsys, monkeypatch):
    real = opq1d_mod._positive_zeros
    monkeypatch.setattr(opq1d_mod, "_positive_zeros", lambda f, fprime, m, grid_n:
                        np.append(real(f, fprime, m, grid_n)[:-1], 1.0))
    _build_fails(tmp_path, capsys, ODD_M1, ODD_M1_RULE,
                 r"zero escaped the open interval \(0, 1\)")


@pytest.mark.parametrize("ql, message", [
    (lambda d, q: (d, 0.0 * q), "nonpositive cubature weight"),
    (lambda d, q: (np.full_like(d, d[0]), q), "Gauss nodes not strictly increasing"),
])
def test_a_gauss_rule_that_fails_its_checks_fails_the_build(tmp_path, capsys, monkeypatch,
                                                            ql, message):
    """Gauss nodes out of order fail gauss_rule itself.  Weights of 0 pass
    it, as a weight that underflows does, and the 2-D rule refuses them."""
    real = opq1d_mod._ql_implicit
    monkeypatch.setattr(opq1d_mod, "_ql_implicit",
                        lambda d, e, max_iter_total: ql(*real(d, e, max_iter_total)))
    _build_fails(tmp_path, capsys, "square-even --alpha 0.5 --beta 0 --gamma -0.5 --m 2",
                 "square-even alpha=0.5, beta=0.0, gamma=-0.5, m=2", message)


@pytest.mark.parametrize("rhs, message", [
    (lambda b: b + np.eye(len(b))[-1] * b[0],
     r"odd-rule moment system residual \S+ exceeds tolerance \(rank 3/3\)"),
    (lambda b: -b, r"odd-rule weights not positive \(min/max -1\.000e\+00, cond \* eps \S+\)"),
])
def test_an_odd_moment_system_without_a_positive_solution_fails_the_build(
        tmp_path, capsys, monkeypatch, rhs, message):
    """Right-hand sides that no class weights fit, or that only negative ones
    fit, fail the odd build with the solve's line."""
    real = oracle_mod.cos_basis_moments
    monkeypatch.setattr(oracle_mod, "cos_basis_moments", lambda *args: rhs(real(*args)))
    _build_fails(tmp_path, capsys, ODD_M1, ODD_M1_RULE, message)


def test_an_odd_weight_below_the_solves_resolution_reads_as_such(tmp_path, capsys):
    """At (-0.9, 140, -1/2), m = 5, the smallest class weight is negative
    only at rounding level.  The line had read `min -1.460e+69`; it states
    the smallest weight over the largest and the resolution cond * eps,
    which bounds it."""
    out = tmp_path / "rule.json"
    code, stdout, err = run(capsys, "build", "square-odd", "--alpha", "-0.9", "--beta", "140",
                            "--gamma", "-0.5", "--m", "5", "--out", str(out))
    line = re.fullmatch(r"cubamin: construction failed for square-odd alpha=-0\.9, "
                        r"beta=140\.0, gamma=-0\.5, m=5: odd-rule weights not positive "
                        r"\(min/max (\S+), cond \* eps (\S+)\)\n", err)
    assert (code, stdout) == (2, "") and line, err
    ratio, resolution = map(float, line.groups())
    assert -resolution < ratio < 0.0, err
    assert not out.exists()


@pytest.mark.parametrize("module, name, key, rule, message", [
    (squaremin_mod, "gauss_pairs", "square-even --alpha -0.5 --beta -0.5 --gamma -0.5 "
     "--m 2", "square-even alpha=-0.5, beta=-0.5, gamma=-0.5, m=2",
     "square-even rule has 8 nodes, expected 12"),
    (squaremin_mod, "half_angle_orbit", ODD_M1, ODD_M1_RULE,
     "square-odd rule has 6 nodes, expected 7"),
    (composed_mod, "gauss_pairs", "composed --ell 2 --m 2 --alpha -0.5 --beta -0.5",
     "composed ell=2, m=2, alpha=-0.5, beta=-0.5", "composed rule has 28 nodes, expected 40"),
    (biangle_mod, "gauss_pairs", "biangle --alpha 0.5 --beta 0 --gamma 0.5 --n 3",
     "biangle alpha=0.5, beta=0.0, gamma=0.5, n=3", "biangle rule has 5 nodes, expected 6"),
])
def test_a_rule_one_node_short_fails_the_build(tmp_path, capsys, monkeypatch,
                                               module, name, key, rule, message):
    """Every rule checks its node count: a set of Gauss pairs or of orbit
    images that loses a row fails the build with the rule's count.  The
    Gauss pairs lose a pair, from J, K and the weights; their nodes stay."""
    real = getattr(module, name)

    def short(*args):
        out = real(*args)
        if name == "gauss_pairs":
            return (out[0],) + tuple(a[1:] for a in out[1:])
        return tuple(a[1:] for a in out)

    monkeypatch.setattr(module, name, short)
    _build_fails(tmp_path, capsys, key, rule, message)


@pytest.mark.parametrize("key, rule, weight", [
    ("biangle --alpha 2e154 --beta 0 --gamma -0.5 --n 3",
     "biangle alpha=2e+154, beta=0.0, gamma=-0.5, n=3", "alpha=2e+154, beta=0"),
    ("biangle --alpha 1e300 --beta 0 --gamma 0.5 --n 1",
     "biangle alpha=1e+300, beta=0.0, gamma=0.5, n=1", "alpha=1e+300, beta=0"),
    ("square-even --alpha 2e154 --beta 0 --gamma -0.5 --m 3",
     "square-even alpha=2e+154, beta=0.0, gamma=-0.5, m=3", "alpha=2e+154, beta=0"),
    ("square-even --alpha 2e154 --beta 0 --gamma 0.5 --m 3",
     "square-even alpha=2e+154, beta=0.0, gamma=0.5, m=3", "alpha=2e+154, beta=0"),
    ("square-odd --alpha 2e154 --beta 0 --gamma -0.5 --m 2",
     "square-odd alpha=2e+154, beta=0.0, gamma=-0.5, m=2", "alpha=2e+154, beta=0"),
    ("square-odd --alpha 2e154 --beta 0 --gamma 0.5 --m 2",
     "square-odd alpha=2e+154, beta=0.0, gamma=0.5, m=2", "alpha=2e+154, beta=1"),
    ("composed --ell 2 --m 3 --alpha 2e154 --beta 0",
     "composed ell=2, m=3, alpha=2e+154, beta=0.0", "alpha=2e+154, beta=0"),
])
def test_a_weight_beyond_the_recurrence_fails_the_build_naming_it(tmp_path, capsys,
                                                                  key, rule, weight):
    """Past alpha + beta of about 1.34e154 the 1-D recurrence coefficients
    overflow in a float pow before the mass is reached; its OverflowError
    had printed as an errno tuple.  The odd rules shift alpha or beta by 1."""
    _build_fails(tmp_path, capsys, key, rule, r"a recurrence coefficient of the Jacobi weight "
                 r"%s exceeds float range" % re.escape(weight))


@pytest.mark.parametrize("key, rule", [
    ("biangle --gamma -0.5 --n 3 --alpha 1e7 --beta 1e7",
     "biangle alpha=10000000.0, beta=10000000.0, gamma=-0.5, n=3"),
    ("biangle --gamma 0.5 --n 3 --alpha 1e7 --beta 1e7",
     "biangle alpha=10000000.0, beta=10000000.0, gamma=0.5, n=3"),
    ("square-even --gamma -0.5 --m 3 --alpha 1e7 --beta 1e7",
     "square-even alpha=10000000.0, beta=10000000.0, gamma=-0.5, m=3"),
    ("square-even --gamma 0.5 --m 3 --alpha 1e7 --beta 1e7",
     "square-even alpha=10000000.0, beta=10000000.0, gamma=0.5, m=3"),
    ("square-odd --gamma -0.5 --m 2 --alpha 1e7 --beta 1e7",
     "square-odd alpha=10000000.0, beta=10000000.0, gamma=-0.5, m=2"),
    ("square-odd --gamma 0.5 --m 2 --alpha 1e7 --beta 1e7",
     "square-odd alpha=10000000.0, beta=10000000.0, gamma=0.5, m=2"),
    ("composed --ell 2 --m 3 --alpha 1e7 --beta 1e7",
     "composed ell=2, m=3, alpha=10000000.0, beta=10000000.0"),
    ("square-odd --gamma -0.5 --m 2 --alpha 1e102 --beta 1e102",
     "square-odd alpha=1e+102, beta=1e+102, gamma=-0.5, m=2"),
])
def test_a_weight_mass_lost_to_cancellation_fails_the_build_naming_it(tmp_path, capsys,
                                                                     key, rule):
    """At alpha = beta = 1e7 the mass formula's log terms cancel to a
    relative error of 2.8e-8, and builders and references share the mass,
    so a rule built on it had certified.  Past 1e-10 the build exits 2 with
    the line of the mass.  At 1e102 the odd rule's first recurrence keeps
    its one b_k finite, and its zero search had failed on overflowing
    values with `expected 2 positive zeros, found 0`."""
    weight = re.escape("%g" % float(key.split()[-1]))
    _build_fails(tmp_path, capsys, key, rule, r"%s of the Jacobi weight alpha=%s, beta=%s %s"
                 % (re.escape(_MASS), weight, weight, _CANCELLED))


@pytest.mark.parametrize("weight, printed", [
    ("1e102", "1e+102"), ("1e110", "1e+110"), ("1e153", "1e+153")])
@pytest.mark.parametrize("family, rule", [
    ("biangle --gamma -0.5 --n 3", "biangle alpha={0}, beta={0}, gamma=-0.5, n=3"),
    ("biangle --gamma 0.5 --n 3", "biangle alpha={0}, beta={0}, gamma=0.5, n=3"),
    ("square-even --gamma -0.5 --m 3", "square-even alpha={0}, beta={0}, gamma=-0.5, m=3"),
    ("square-even --gamma 0.5 --m 3", "square-even alpha={0}, beta={0}, gamma=0.5, m=3"),
    ("square-odd --gamma 0.5 --m 2", "square-odd alpha={0}, beta={0}, gamma=0.5, m=2"),
    ("composed --ell 2 --m 3", "composed ell=2, m=3, alpha={0}, beta={0}"),
])
def test_a_coefficient_that_leaves_float_range_silently_fails_the_build_naming_it(
        tmp_path, capsys, family, rule, weight, printed):
    """From alpha + beta of about 1e77 a product in b_k overflows to inf
    without an exception, so b_k rounded to 0 (or NaN), and the build had
    exited with `all off-diagonal coefficients b_k must be positive` or
    `mu0 must be positive`, naming neither the overflow nor the weight."""
    _build_fails(tmp_path, capsys, "%s --alpha %s --beta %s" % (family, weight, weight),
                 rule.format(printed),
                 r"a recurrence coefficient of the Jacobi weight alpha=%s, beta=%s "
                 r"exceeds float range" % (re.escape(printed), re.escape(printed)))


@pytest.mark.parametrize("weight", [1e7, 1e102, 1e110, 1e153])
@pytest.mark.parametrize("family", SMALL_RULES[1:] + [
    "square-even --alpha -0.5 --beta -0.5 --gamma 0.5 --m 2"])
def test_verify_of_a_square_file_at_a_huge_weight_ends_in_one_line(
        tmp_path, capsys, family, weight):
    """An edited square file at these weights had ended in a ValueError
    traceback with exit 1.  The square reference takes only the mass from
    the recurrence, and from alpha = beta of about 1e5 the mass formula
    loses more than 1e-10 to cancellation (2.8e-8 at 1e7, every digit from
    1e102), so verify exits 4 with the line of the mass.  On a finite mass
    it had exited 3 with its verdict on a reference of no stated accuracy."""
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *family.split(), "--out", str(out))[0] == 0
    assert _edit_and_verify(out, capsys, lambda doc: doc.update(alpha=weight, beta=weight)) == (
        4, "", "cubamin: moment oracle failed: %s of the Jacobi weight alpha=%g, beta=%g %s\n"
        % (_MASS, weight, weight, _CANCELLED))


@pytest.mark.parametrize("key, npts", [
    ("square-even --alpha 0.5 --beta 0 --gamma -0.5 --m 3", None),
    ("square-even --alpha 0.5 --beta 0 --gamma 0.5 --m 3", None),
    ("composed --ell 2 --m 2 --alpha 0.5 --beta -0.5", None),
    ("biangle --alpha 0.5 --beta 0 --gamma -0.5 --n 3", 4),
    ("biangle --alpha 0.5 --beta 0 --gamma 0.5 --n 8", 9),
])
def test_a_defect_in_the_recurrence_fails_the_square_rules(tmp_path, capsys, monkeypatch,
                                                           key, npts):
    """Every b_k of jacobi_recurrence scaled by 1 + 1e-6 moves the builders'
    Gauss rules.  The square references take only the mass from the
    recurrence, so the rules built on the defect fail verify (exit 3);
    while the reference summed over a grid of the same Gauss rules, both
    sides moved together and every such rule certified.  The biangle
    reference still sums over that grid, but first checks its npts-point
    rule against the 1-D Chebyshev moments, which also take only the
    mass; so verify of a biangle rule exits 4 with the grid's line, where
    it had certified.  opq1d and oracle hold the only bindings of
    jacobi_recurrence: the builders reach it through opq1d.gauss_pairs."""
    real = opq1d_mod.jacobi_recurrence

    def scaled(alpha, beta, m):
        rc = real(alpha, beta, m)
        return opq1d_mod.RecurrenceCoeffs(a=rc.a, b=rc.b * (1.0 + 1e-6), mu0=rc.mu0)

    for module in (opq1d_mod, oracle_mod):
        monkeypatch.setattr(module, "jacobi_recurrence", scaled)
    out = tmp_path / "rule.json"
    assert run(capsys, "build", *key.split(), "--out", str(out))[0] == 0
    code, stdout, err = run(capsys, "verify", str(out))
    if npts is None:
        assert (code, err) == (3, "") and stdout.endswith(": FAIL\n"), stdout
    else:
        assert (code, stdout) == (4, "")
        assert re.fullmatch(r"cubamin: moment oracle failed: the %d-point Gauss rule of the "
                            r"Jacobi weight alpha=0\.5, beta=0 misses its Chebyshev moments "
                            r"by \S+ of the mass, over 1e-09\n" % npts, err), err


def test_a_biangle_rule_near_the_corner_weight_does_not_verify(tmp_path, capsys):
    """At (alpha, beta) = (-0.999, -0.99) the 201-point Gauss rule of the
    degree-399 reference grid misses the Chebyshev moments by 1.55e-9 of
    the mass.  The rule shares that drift, and the file had verified OK at
    worst 8.5e-11; verify now refuses the grid with one line (exit 4)."""
    out = tmp_path / "rule.json"
    code, _, err = run(capsys, "build", "biangle", "--alpha", "-0.999", "--beta", "-0.99",
                       "--gamma", "-0.5", "--n", "200", "--out", str(out))
    assert code == 0, err
    code, stdout, err = run(capsys, "verify", str(out))
    assert (code, stdout) == (4, "")
    assert re.fullmatch(r"cubamin: moment oracle failed: the 201-point Gauss rule of the "
                        r"Jacobi weight alpha=-0\.999, beta=-0\.99 misses its Chebyshev "
                        r"moments by \S+ of the mass, over 1e-09\n", err), err


def test_verify_report_of_a_large_rule_does_not_depend_on_the_blas_threads(
        tmp_path, capsys):
    """A matrix product of the Gram tables moved the last bits of the report
    of this 12,960-node rule with the OpenBLAS thread count; certify sums
    each table in chunks of at most 8,192 nodes with einsum, in a fixed
    order, so one child under each thread count writes the same bytes."""
    rule = tmp_path / "rule.json"
    code, _, err = run(capsys, "build", "square-even", "--alpha", "0.5", "--beta", "0.0",
                       "--gamma", "-0.5", "--m", "80", "--out", str(rule))
    assert code == 0, err
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        report = tmp_path / ("report%s.json" % threads)
        child = subprocess.run(
            [sys.executable, "-m", "cubamin.cli", "verify", str(rule),
             "--max-degree", "40", "--report", str(report)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
        assert child.returncode == 3 and child.stderr == ""
        assert child.stdout.startswith("declared 319, certified 40 through degree 40, ")
        reports.append((child.stdout, report.read_bytes()))
    assert reports[0] == reports[1]


def test_plot_biangle_outline_and_markers(tmp_path, capsys):
    rule = tmp_path / "b.json"
    run(capsys, "build", "biangle", "--alpha", "-0.5", "--beta", "-0.5",
        "--gamma", "-0.5", "--n", "4", "--out", str(rule))
    svg = tmp_path / "b.svg"
    code, stdout, _ = run(capsys, "plot", str(rule), str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 10
    # curved boundary drawn with a quadratic arc
    assert " Q " in text or "Q " in text.replace("\n", " ")
    assert 'fill="#ffffff"' in text


def test_plot_square_outline(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys)
    svg = tmp_path / "s.svg"
    code, _, _ = run(capsys, "plot", str(rule), str(svg), "--size", "300")
    assert code == 0
    text = svg.read_text()
    assert text.count("<circle") == moller_bound(4)
    assert " Q " not in text
    assert 'width="300"' in text


def test_plot_is_byte_deterministic(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys)
    one = tmp_path / "one.svg"
    two = tmp_path / "two.svg"
    for svg in (one, two):
        assert run(capsys, "plot", str(rule), str(svg))[0] == 0
    assert filecmp.cmp(one, two, shallow=False)


def test_plot_rejects_empty_node_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,weight\n")
    code, _, err = run(capsys, "plot", str(empty), str(tmp_path / "e.svg"))
    assert code == 1
    assert err != ""


def test_plot_rejects_tiny_canvas(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys)
    code, _, _ = run(capsys, "plot", str(rule), str(tmp_path / "t.svg"),
                     "--size", "10")
    assert code == 1


def test_plot_accepts_csv_input(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys, fmt="csv")
    svg = tmp_path / "c.svg"
    code, _, _ = run(capsys, "plot", str(rule), str(svg))
    assert code == 0
    assert svg.read_text().count("<circle") == moller_bound(4)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_min_node_gap_is_the_all_pairs_minimum(data):
    """The plot's sorted scan returns the all-pairs scan's float, also when
    nodes repeat or share an x- or a y-value."""
    coord = st.floats(-2.0, 2.0)
    pool = data.draw(st.lists(coord, min_size=1, max_size=5))
    value = st.one_of(st.sampled_from(pool), coord)
    rows = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=200))
    nodes = np.array(rows, dtype=float)
    assert cli._min_node_gap(nodes) == reference_min_node_gap(nodes)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_min_node_gap_on_one_vertical_or_horizontal_line(data):
    """Nodes on one line parallel to an axis share one coordinate; the scan
    runs along the other and still returns the all-pairs float."""
    coord = st.floats(-2.0, 2.0)
    along = data.draw(st.lists(coord, min_size=1, max_size=200))
    at = data.draw(coord)
    nodes = np.array([(at, v) for v in along], dtype=float)
    if data.draw(st.booleans()):
        nodes = nodes[:, ::-1].copy()
    assert cli._min_node_gap(nodes) == reference_min_node_gap(nodes)


@pytest.mark.parametrize("rows,gap", [
    ([[0.3, -0.2]], 0.0),
    ([[0.5, 0.5], [0.1, 0.9], [0.5, 0.5]], 0.0),
    ([[0.25, y] for y in (-1.0, -0.5, 0.0, 0.5, 1.0)], 0.5),
    ([[x, 0.75] for x in (-1.0, -0.5, 0.0, 0.5, 1.0)], 0.5),
])
def test_min_node_gap_of_a_single_node_duplicates_and_shared_coordinates(rows, gap):
    nodes = np.array(rows)
    assert cli._min_node_gap(nodes) == reference_min_node_gap(nodes) == gap


def _assert_cannot_write(code, stdout, err, path):
    assert code == 1
    assert stdout == "" and err.count("\n") == 1, err
    assert err.startswith("cubamin: cannot write %s: " % path), err


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_build_to_an_unwritable_path_exits_1_with_one_line(tmp_path, capsys, target):
    out = tmp_path / target
    code, stdout, err = run(capsys, "build", "square-even", "--alpha", "0.5", "--beta", "0",
                            "--gamma", "-0.5", "--m", "3", "--out", str(out))
    _assert_cannot_write(code, stdout, err, out)


def test_verify_report_to_an_unwritable_path_exits_1_with_one_line(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys)
    report = tmp_path / "missing" / "r.json"
    code, stdout, err = run(capsys, "verify", str(rule), "--report", str(report))
    _assert_cannot_write(code, stdout, err, report)


def test_plot_to_an_unwritable_path_exits_1_with_one_line(tmp_path, capsys):
    rule = build_small_even(tmp_path, capsys)
    svg = tmp_path / "missing" / "p.svg"
    code, stdout, err = run(capsys, "plot", str(rule), str(svg))
    _assert_cannot_write(code, stdout, err, svg)


@pytest.mark.parametrize("command", ["verify", "plot"])
def test_a_rule_file_nested_beyond_the_recursion_limit_exits_1(tmp_path, capsys, command):
    """json.loads raises RecursionError on such a file; it had ended in a
    traceback."""
    path = tmp_path / "deep.json"
    path.write_text('{"family": ' + "[" * 100000 + "]" * 100000 + "}")
    argv = [command, str(path)] + ([str(tmp_path / "p.svg")] if command == "plot" else [])
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err.startswith("cubamin: cannot read rule file: ") and err.count("\n") == 1, err


def test_plot_of_a_node_at_1e200_warns_nothing(tmp_path, capsys):
    """Its squared distances overflow to +inf inside the gap scan; under the
    RuntimeWarning-as-error filter that had failed the plot."""
    rule = tmp_path / "far.csv"
    rule.write_text("x1,x2,weight\n0.1,0.2,1.0\n1e200,0.3,1.0\n-0.5,0.5,1.0\n")
    code, stdout, err = run(capsys, "plot", str(rule), str(tmp_path / "p.svg"))
    assert (code, err) == (0, "")
    assert stdout.startswith("wrote ")


def test_plot_of_a_node_without_a_finite_pixel_position_exits_1(tmp_path, capsys):
    """At the largest float the node's pixel position is infinite; the SVG
    had carried cx="inf"."""
    rule = tmp_path / "edge.csv"
    rule.write_text("x1,x2,weight\n0.1,0.2,1.0\n1.7976931348623157e308,0.3,1.0\n"
                    "-1.7976931348623157e308,0.5,1.0\n")
    svg = tmp_path / "p.svg"
    code, stdout, err = run(capsys, "plot", str(rule), str(svg))
    assert (code, stdout) == (1, "")
    assert err.startswith("cubamin: cannot plot rule file: ") and err.count("\n") == 1, err
    assert not svg.exists()


@pytest.mark.parametrize("fmt, bad", [("json", math.nan), ("json", math.inf),
                                      ("csv", math.nan)])
def test_plot_rejects_a_non_finite_node(tmp_path, capsys, fmt, bad):
    """verify already rejects such files; plot drew nan or inf coordinates."""
    rule = build_small_even(tmp_path, capsys, fmt=fmt)
    if fmt == "json":
        doc = json.loads(rule.read_text())
        doc["nodes"][0][0] = bad  # json.dumps writes NaN and Infinity
        rule.write_text(json.dumps(doc))
    else:
        header, first, rest = rule.read_text().split("\n", 2)
        rule.write_text("\n".join([header, repr(bad) + first[first.index(","):], rest]))
    svg = tmp_path / "p.svg"
    code, stdout, err = run(capsys, "plot", str(rule), str(svg))
    assert code == 1
    assert stdout == "" and err.count("\n") == 1 and "non-finite" in err, err
    assert not svg.exists()
