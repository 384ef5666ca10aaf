"""Benchmark of the cubamin command line: time to a certified verdict and
build throughput, measured on whole CLI calls.

Run from the root of a checkout; the package is imported from ./src:

    python3 bench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Every operation is one child process (``python -m cubamin.cli ...``),
started one at a time.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` alternates untraced passes with passes whose children run
through bench/traced_cli.py, and prints the per-layer metrics.  Human
readable lines (the run record and every metric with its unit) come first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")

# a run must end within 180 s; children get what is left of this budget
RUN_LIMIT_S = 170.0
# cold starts sampled before every untraced pass, so that setup_s spans the run
SETUP_STARTS_PER_PASS = 3
CHECK_DEGREE = 15

GRID = (-0.5, 0.0, 0.5)
# alpha == beta adds a reflection symmetry that zeroes about half of the
# square moments and halves oracle work; the README rules cover that case,
# and drawn points stay off it so that a run's cost does not hinge on its seed
PAIRS = [(a, b) for a in GRID for b in GRID if a != b]


class RunAborted(RuntimeError):
    """The run cannot produce a result (no program, or out of time)."""


@dataclass(frozen=True)
class Rule:
    """One `cubamin build` invocation and the closed forms it must meet."""

    family: str
    alpha: float
    beta: float
    gamma: Optional[float]  # None for the composed family (gamma fixed)
    size: Tuple[Tuple[str, int], ...]

    def build_args(self) -> List[str]:
        args = ["build", self.family, "--alpha", repr(self.alpha), "--beta", repr(self.beta)]
        if self.gamma is not None:
            args += ["--gamma", repr(self.gamma)]
        for flag, value in self.size:
            args += ["--" + flag, str(value)]
        return args

    @property
    def key(self) -> str:
        return " ".join(self.build_args()[1:])

    @property
    def node_count(self) -> int:
        s = dict(self.size)
        if self.family == "biangle":
            return s["n"] * (s["n"] + 1) // 2
        if self.family == "square-even":
            return 2 * s["m"] * (s["m"] + 1)
        if self.family == "square-odd":
            return 2 * (s["m"] + 1) ** 2 - 1
        return 2 * s["ell"] ** 2 * s["m"] ** 2 + 2 * s["ell"] * s["m"]

    @property
    def degree(self) -> int:
        s = dict(self.size)
        if self.family == "biangle":
            return 2 * s["n"] - 1
        if self.family == "square-even":
            return 4 * s["m"] - 1
        if self.family == "square-odd":
            return 4 * s["m"] + 1
        return 4 * s["ell"] * s["m"] - 1


@dataclass(frozen=True)
class Slot:
    """A rule whose (alpha, beta) and gamma the seed draws."""

    family: str
    gammas: Tuple[Optional[float], ...]
    size: Tuple[Tuple[str, int], ...]

    def rule(self, pair: Tuple[float, float], gamma: Optional[float]) -> Rule:
        return Rule(self.family, pair[0], pair[1], gamma, self.size)


@dataclass(frozen=True)
class Workload:
    fixed: Tuple[Rule, ...]
    slots: Tuple[Slot, ...]
    # True: each build is followed by a full verify inside the timed pass.
    # False: the timed pass only builds; each output is then certified
    # through CHECK_DEGREE, untimed by wall_s and untraced.
    verify_in_pass: bool

    def rules(self, seed: int) -> List[Rule]:
        rng = random.Random(seed)
        pairs = rng.sample(PAIRS, len(self.slots))
        drawn = [s.rule(p, rng.choice(s.gammas)) for s, p in zip(self.slots, pairs)]
        return list(self.fixed) + drawn

    def every_rule(self) -> List[Rule]:
        """All rules any seed can draw (for the golden record)."""
        drawn = [s.rule(p, g) for s in self.slots for p in PAIRS for g in s.gammas]
        return list(self.fixed) + drawn


README_RULES = (
    Rule("biangle", -0.5, -0.5, -0.5, (("n", 20),)),
    Rule("square-even", -0.5, -0.5, -0.5, (("m", 12),)),
    Rule("square-odd", 0.5, -0.5, 0.5, (("m", 3),)),
    Rule("composed", -0.5, -0.5, None, (("ell", 2), ("m", 6))),
)
CONTROL_RULE = README_RULES[2]

WORKLOADS: Dict[str, Workload] = {
    "certify": Workload(
        fixed=README_RULES,
        slots=(
            Slot("square-even", (-0.5,), (("m", 10),)),
            Slot("composed", (None,), (("ell", 4), ("m", 3))),
            Slot("biangle", (0.5,), (("n", 20),)),
            # odd rules put the oracle on the build side too (cosine-basis
            # right-hand sides, diagonal_zero_set, the O(m^4) rows, lstsq);
            # at gamma = +1/2, m = 10 keeps the verify ladder depth the same
            # for every drawn alpha (at m = 12 it stops a level early for
            # alpha > -1/2)
            Slot("square-odd", (-0.5,), (("m", 8),)),
            Slot("square-odd", (0.5,), (("m", 10),)),
        ),
        verify_in_pass=True,
    ),
    "build-large": Workload(
        fixed=(),
        slots=(
            Slot("square-even", (-0.5, 0.5), (("m", 200),)),
            Slot("biangle", (-0.5, 0.5), (("n", 400),)),
            Slot("composed", (None,), (("ell", 4), ("m", 50))),
        ),
        verify_in_pass=False,
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("verdict_max_s", "s"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# span-derived metrics: "<module>.<function>.<stat>"; s is inclusive time,
# self_s excludes the time of traced child spans
PER_LAYER_SPANS = (
    ("oracle.angular_moment_ladder.calls", "count"),
    ("oracle.angular_moment_ladder.self_s", "s"),
    ("oracle.angular_moment_ladder.levels", "count"),
    ("oracle.angular_moment_ladder.integrands", "count"),
    ("oracle.cos_basis_moments.s", "s"),
    ("oracle.certify.calls", "count"),
    ("oracle.certify.self_s", "s"),
    ("opq1d.gauss_rule.calls", "count"),
    ("opq1d.gauss_rule.distinct_share", "ratio"),
    ("opq1d.gauss_rule.self_s", "s"),
    ("opq1d.gauss_rule.max_m", "count"),
    ("opq1d.jacobi_recurrence.calls", "count"),
    ("opq1d.jacobi_recurrence.self_s", "s"),
    ("opq1d.diagonal_zero_set.s", "s"),
    ("biangle.biangle_moment.calls", "count"),
    ("biangle.biangle_moment.self_s", "s"),
    ("biangle.gauss_cubature_biangle.self_s", "s"),
    ("squaremin.minimal_rule_odd.self_s", "s"),
    ("squaremin.lstsq.s", "s"),
    ("squaremin.minimal_rule_even.self_s", "s"),
    ("squaremin.merge_close_nodes.calls", "count"),
    ("squaremin.merge_close_nodes.s", "s"),
    ("squaremin.merge_close_nodes.points_in", "count"),
    ("squaremin.merge_close_nodes.points_out", "count"),
    ("composed.composed_rule.self_s", "s"),
    ("rules.sorted_rule.s", "s"),
    ("cli.rule_to_json.s", "s"),
    ("cli.parse_rule_file.s", "s"),
)
PER_LAYER = PER_LAYER_SPANS + (
    ("verify.oracle_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("failed_share", "ratio"),
    ("verdict_errors", "count"),
    ("golden_mismatches", "count"),
)
# spans whose self time counts as oracle work in verify.oracle_share
ORACLE_SPANS = ("biangle.biangle_moment", "opq1d.gauss_rule")

WROTE_RE = re.compile(r"^wrote .*: (\S+), (\d+) nodes, degree (\d+)$")


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts CLI children one at a time and waits for each to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        path = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.env = dict(os.environ, PYTHONPATH=path)
        self.out_path = os.path.join(WORK, "child.out")
        self.err_path = os.path.join(WORK, "child.err")

    def run(self, cli_args: List[str], spans: Optional[str] = None) -> Child:
        if spans is None:
            argv = [sys.executable, "-m", "cubamin.cli"] + cli_args
        else:
            argv = [sys.executable, TRACED_CLI, spans, "--"] + cli_args
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunAborted("run time limit reached")
        with open(self.out_path, "wb") as fo, open(self.err_path, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=WORK, env=self.env)
            status, usage, end = _reap(proc, timeout)
        if status is None:
            raise RunAborted("child exceeded the run time limit: %s" % " ".join(cli_args))
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            out = fh.read()
        with open(self.err_path, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        # ru_maxrss is in KiB on Linux
        return Child(proc.returncode, end - start, usage.ru_maxrss / 1024.0, out, err)


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc with os.wait4 (which also returns its own peak RSS);
    kill it after timeout.  Returns (status or None, rusage, end time)."""
    box = {}

    def waiter():
        _, status, usage = os.wait4(proc.pid, 0)
        box["end"] = time.perf_counter()
        box["status"], box["usage"] = status, usage

    th = threading.Thread(target=waiter, daemon=True)
    th.start()
    th.join(timeout)
    killed = th.is_alive()
    if killed:
        proc.kill()
        th.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    return (None if killed else box["status"]), box["usage"], box["end"]


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.golden_mismatches = 0
        self.problems: List[str] = []
        self._checked_files = set()

    def record(self, what: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (what, "; ".join(problems)))
        return not problems

    def check_build(self, rule: Rule, child: Child, path: str) -> int:
        """Checks one build; returns the nodes written (0 when it failed)."""
        problems = []
        if child.code != 0:
            problems.append("exit %d: %s" % (child.code, child.stderr.strip()[-300:]))
        else:
            m = WROTE_RE.match(child.stdout.strip())
            if not m or (m.group(1), int(m.group(2)), int(m.group(3))) != (
                rule.family, rule.node_count, rule.degree
            ):
                problems.append("unexpected output %r" % child.stdout.strip())
            digest = _sha256(path)
            if digest != self.golden.get(rule.key):
                self.golden_mismatches += 1
                problems.append("sha256 %s differs from the golden record" % digest)
            elif digest not in self._checked_files:
                # each distinct file is parsed once per run
                problems += _check_rule_file(rule, path)
                if not problems:
                    self._checked_files.add(digest)
        self.record("build " + rule.key, problems)
        return 0 if problems else rule.node_count

    def check_verify(self, rule: Rule, child: Child, report_path: str, max_degree: int) -> None:
        expect_code = 0 if max_degree >= rule.degree else 3
        problems = []
        if child.code != expect_code:
            problems.append("exit %d, expected %d: %s" % (child.code, expect_code, child.stderr.strip()[-300:]))
        else:
            rep = _load_json(report_path)
            if rep is None or (
                rep.get("certified_degree"),
                rep.get("max_degree_tested"),
                rep.get("failures"),
            ) != (max_degree, max_degree, []):
                problems.append("report does not certify degree %d: %r" % (max_degree, rep))
        self.record("verify %s through %d" % (rule.key, max_degree), problems)


def _sha256(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check_rule_file(rule: Rule, path: str) -> List[str]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list):
        return ["rule file is not a JSON rule"]
    got = (obj.get("family"), obj.get("degree"), obj.get("node_count"), len(obj["nodes"]))
    want = (rule.family, rule.degree, rule.node_count, rule.node_count)
    return [] if got == want else ["file has (family, degree, node_count, rows) %r, expected %r" % (got, want)]


class Spans:
    """Per-span-name totals over a set of traced children."""

    def __init__(self):
        self.by_name: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add_file(self, path: str) -> None:
        spans = _load_json(path) or []
        child_time = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, _, t0, t1, extra) in enumerate(spans):
            d = self.by_name[name]
            d["calls"] += 1
            d["s"] += t1 - t0
            d["self_s"] += t1 - t0 - child_time[i]
            for key, value in (extra or {}).items():
                d[key] = max(d[key], value) if key == "max_m" else d[key] + value

    def stat(self, metric: str) -> float:
        name, stat = metric.rsplit(".", 1)
        d = self.by_name.get(name, {})
        if stat == "distinct_share":
            return d["distinct"] / d["calls"] if d.get("calls") else 0.0
        return float(d.get(stat, 0.0))

    def oracle_self_s(self) -> float:
        return sum(
            d["self_s"] for name, d in self.by_name.items()
            if name.startswith("oracle.") or name in ORACLE_SPANS
        )


@dataclass
class Pass:
    metrics: Dict[str, float]
    traced: bool
    layers: Optional[Dict[str, float]] = None


def run_pass(runner: Runner, tally: Tally, wl: Workload, rules: List[Rule], traced: bool) -> Pass:
    """One timed pass over the rules; outputs are checked after the clock stops."""
    spans_all, spans_verify = Spans(), Spans()
    rule_path = [os.path.join(WORK, "rule_%d.json" % i) for i in range(len(rules))]
    report_path = [os.path.join(WORK, "report_%d.json" % i) for i in range(len(rules))]

    def spans_path(i, kind):
        return os.path.join(WORK, "spans_%d_%s.json" % (i, kind)) if traced else None

    builds: List[Child] = []
    verifies: List[Child] = []
    start = time.perf_counter()
    for i, rule in enumerate(rules):
        builds.append(runner.run(rule.build_args() + ["--out", rule_path[i]], spans_path(i, "build")))
        if wl.verify_in_pass:
            verifies.append(runner.run(["verify", rule_path[i], "--report", report_path[i]], spans_path(i, "verify")))
    wall = time.perf_counter() - start

    nodes = sum(tally.check_build(r, c, p) for r, c, p in zip(rules, builds, rule_path))
    if wl.verify_in_pass:
        for r, c, p in zip(rules, verifies, report_path):
            tally.check_verify(r, c, p, r.degree)
    else:
        for i, rule in enumerate(rules):
            c = runner.run(["verify", rule_path[i], "--max-degree", str(CHECK_DEGREE), "--report", report_path[i]])
            tally.check_verify(rule, c, report_path[i], CHECK_DEGREE)
            verifies.append(c)
    build_s = sum(c.seconds for c in builds)
    in_pass = builds + (verifies if wl.verify_in_pass else [])
    metrics = {
        "wall_s": wall,
        "build_s": build_s,
        "verify_s": sum(c.seconds for c in verifies),
        "verdict_max_s": max(b.seconds + v.seconds for b, v in zip(builds, verifies)),
        "nodes_per_s": nodes / build_s,
        "peak_rss_mb": max(c.rss_mb for c in in_pass),
    }
    layers = None
    if traced:
        for i in range(len(rules)):
            spans_all.add_file(spans_path(i, "build"))
            if wl.verify_in_pass:
                spans_all.add_file(spans_path(i, "verify"))
                spans_verify.add_file(spans_path(i, "verify"))
        layers = {name: spans_all.stat(name) for name, _ in PER_LAYER_SPANS}
        verify_wall = sum(c.seconds for c in verifies) if wl.verify_in_pass else 0.0
        layers["verify.oracle_share"] = (
            spans_verify.oracle_self_s() / verify_wall if verify_wall else 0.0
        )
    return Pass(metrics, traced, layers)


def run_controls(runner: Runner, tally: Tally) -> int:
    """Known-answer verdicts on one small rule; returns how many are wrong."""
    rule = CONTROL_RULE
    base = os.path.join(WORK, "control.json")
    tally.check_build(rule, runner.run(rule.build_args() + ["--out", base]), base)
    obj = _load_json(base)
    if obj is None:
        raise RunAborted("control rule could not be built")

    def verify(mutate, *extra):
        path = base
        if mutate is not None:
            bad = json.loads(json.dumps(obj))
            mutate(bad)
            path = os.path.join(WORK, "control_bad.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(bad) + "\n")
        return runner.run(["verify", path] + list(extra))

    def rejected(c: Child) -> bool:
        return c.code in (1, 3) and "Traceback" not in c.stderr

    def perturb(o):
        j = max(range(len(o["nodes"])), key=lambda k: o["nodes"][k][2])
        o["nodes"][j][2] *= 1.0 + 1e-6

    def nan_weights(o):
        for row in o["nodes"]:
            row[2] = math.nan

    def far_node(o):
        o["nodes"].append([3.0, 3.0, 1e-11])
        o["node_count"] += 1

    errors = 0
    # one weight off by 1e-6 relative must fail verification
    errors += verify(perturb).code != 3
    # one degree past the declared one: the report certifies exactly the declared degree
    report = os.path.join(WORK, "control_report.json")
    c = verify(None, "--max-degree", str(rule.degree + 1), "--report", report)
    rep = _load_json(report) if c.code == 0 else None
    errors += rep is None or rep.get("certified_degree") != rule.degree
    # non-finite weights and a far-away node must not certify
    errors += not rejected(verify(nan_weights))
    errors += not rejected(verify(far_node))
    return errors


def cold_start(runner: Runner, tally: Tally) -> float:
    """Seconds for one CLI child that only parses its arguments."""
    c = runner.run(["bound", "--n", "1"])
    ok = c.code == 0 and c.stdout.strip() == "1"
    if not tally.record("bound --n 1", [] if ok else ["exit %d: %r" % (c.code, c.stderr[-300:])]):
        raise RunAborted("the CLI does not start: %s" % c.stderr.strip()[-300:])
    return c.seconds


def run_record(workload: str, seed: int, seconds: int, passes: int) -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cubamin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unavailable"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool):
    wl = WORKLOADS[workload]
    rules = wl.rules(seed)
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        tally = Tally(json.load(fh))
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    # the first start also writes the bytecode cache, which users pay once
    cold_start(runner, tally)

    passes: List[Pass] = []
    starts: List[float] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if not trace:
            starts += [cold_start(runner, tally) for _ in range(SETUP_STARTS_PER_PASS)]
        passes.append(run_pass(runner, tally, wl, rules, traced))
        durations.append(time.perf_counter() - t0)
        enough = len(passes) >= (2 if trace else 1)
        # start another pass only if all of it is expected to fit
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    verdict_errors = run_controls(runner, tally)

    def median_of(key, which):
        return statistics.median(p.metrics[key] if key in p.metrics else p.layers[key] for p in which)

    untraced = [p for p in passes if not p.traced]
    checks = {
        "failed_share": tally.failed / tally.attempted,
        "verdict_errors": verdict_errors,
        "golden_mismatches": tally.golden_mismatches,
    }
    if trace:
        traced = [p for p in passes if p.traced]
        values = {name: median_of(name, traced) for name in traced[0].layers}
        values["trace.overhead_s"] = median_of("wall_s", traced) - median_of("wall_s", untraced)
        values.update(checks)
        units = PER_LAYER
    else:
        values = {name: median_of(name, untraced) for name in untraced[0].metrics}
        values["setup_s"] = statistics.median(starts)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    record = run_record(workload, seed, seconds, len(passes))
    record["checks"] = checks
    return metrics, tally, record, passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cubamin", "cli.py")):
        print("bench: no cubamin sources under %s; run from a checkout root" % SRC, file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        metrics, tally, record, passes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunAborted as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for key, value in record.items():
        print("# %s: %s" % (key, value))
    for problem in tally.problems:
        print("# FAILED %s" % problem)
    for i, p in enumerate(passes):
        print("# pass %d%s: %s" % (i, " traced" if p.traced else "", " ".join("%s=%.4g" % kv for kv in p.metrics.items())))
    for name, m in metrics.items():
        print("%-44s %.6g %s" % (name, m["value"], m["unit"]))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
