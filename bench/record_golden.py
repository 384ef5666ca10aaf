"""Write bench/golden.json: the sha256 of every rule file any workload seed
can build, keyed by the build arguments.

    python3 bench/record_golden.py

Run it from the root of a checkout whose rule bytes are known good; the
benchmark counts every later difference as a golden mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import CONTROL_RULE, GOLDEN_PATH, WORK, WORKLOADS, RunAborted, Runner, _sha256


def main() -> int:
    rules = {CONTROL_RULE.key: CONTROL_RULE}
    for wl in WORKLOADS.values():
        rules.update((r.key, r) for r in wl.every_rule())
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    runner = Runner(time.monotonic() + 3600.0)
    golden = {}
    try:
        for key, rule in sorted(rules.items()):
            path = os.path.join(WORK, "rule.json")
            c = runner.run(rule.build_args() + ["--out", path])
            if c.code != 0:
                raise RunAborted("build %s exited %d: %s" % (key, c.code, c.stderr))
            golden[key] = _sha256(path)
            print("%s %s" % (golden[key], key), flush=True)
    except RunAborted as exc:
        print("record_golden: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
