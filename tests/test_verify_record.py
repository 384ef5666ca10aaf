"""`verify` output of every recorded rule below the ~80,000-node scale
points, pinned byte for byte: exit code, stdout, stderr and the sha256 of
the JSON report.

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


def verify_outcome(key: str, workdir: Path) -> dict:
    """Build the rule of key, verify it at its declared degree, and return
    what verify printed, returned and wrote."""
    rule, report = workdir / "rule.json", workdir / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build"] + key.split() + ["--out", str(rule)]) == 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(rule), "--report", str(report)])
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
    }


RECORD = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}


def test_the_record_covers_every_small_recorded_rule():
    assert sorted(RECORD) == KEYS
    assert len(KEYS) == 34


@pytest.mark.parametrize("key", KEYS)
def test_verify_reproduces_the_recorded_output(tmp_path, key):
    assert verify_outcome(key, tmp_path) == RECORD[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {key: verify_outcome(key, Path(tmp)) for key in KEYS}
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %s: %d rules" % (RECORD_PATH, len(record)), file=sys.stderr)
