"""`verify` output of every recorded rule below the ~80,000-node scale
points, pinned byte for byte: exit code, stdout, stderr and the sha256 of
the JSON report.  One degree past the declared one, each rule certifies
exactly its declared degree.

    PYTHONPATH=src python tests/test_verify_record.py

rewrites tests/verify_reports.json from the checkout's current code; run it
only from a commit whose verify output is known good.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cubamin.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = ROOT / "tests" / "verify_reports.json"
KEYS = sorted(
    k for k in json.loads((ROOT / "bench" / "golden.json").read_text())
    if not re.search(r"--n 400|--m 200|--m 50", k)
)


def build(key: str, path: Path) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build"] + key.split() + ["--out", str(path)]) == 0
    return path


def verify_outcome(rule: Path, workdir: Path, *extra: str) -> dict:
    """Verify the rule file, by default at its declared degree, and return
    what verify printed, returned and wrote."""
    report = workdir / "report.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(rule), "--report", str(report)] + list(extra))
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
    }


RECORD = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The rule file of a key, built once per module."""
    paths = {}

    def path(key: str) -> Path:
        if key not in paths:
            paths[key] = build(key, tmp_path_factory.mktemp("rule") / "rule.json")
        return paths[key]

    return path


def test_the_record_covers_every_small_recorded_rule():
    assert sorted(RECORD) == KEYS
    assert len(KEYS) == 34


@pytest.mark.parametrize("key", KEYS)
def test_verify_reproduces_the_recorded_output(built, tmp_path, key):
    assert verify_outcome(built(key), tmp_path) == RECORD[key]


@pytest.mark.parametrize("key", KEYS)
def test_verify_one_degree_past_the_declared_one_certifies_the_declared_degree(
        built, tmp_path, key):
    """The defect at the next degree stays far above the tolerance in the
    Chebyshev basis, so no rule certifies a degree it does not have.  The
    exit code answers the file's claim, which holds: 0."""
    declared = json.loads(built(key).read_text())["degree"]
    got = verify_outcome(built(key), tmp_path, "--max-degree", str(declared + 1))
    assert got["exit_code"] == 0 and got["stderr"] == ""
    assert got["stdout"].startswith("declared %d, certified %d through degree %d, "
                                    % (declared, declared, declared + 1))


def test_verify_four_degrees_past_the_declared_one_certifies_the_declared_degree(
        built, tmp_path):
    """The monomial certificate passed this degree-39 rule through 43."""
    got = verify_outcome(built("square-even --alpha 0.5 --beta 0.0 --gamma -0.5 --m 10"),
                         tmp_path, "--max-degree", "43")
    assert got["exit_code"] == 0
    assert got["stdout"].startswith("declared 39, certified 39 through degree 43, ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {key: verify_outcome(build(key, Path(tmp) / "rule.json"), Path(tmp))
                  for key in KEYS}
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %s: %d rules" % (RECORD_PATH, len(record)), file=sys.stderr)
