"""Command-line surface: build rules, export node files, verify exactness,
print node-count bounds, and draw SVG scatter plots.

Exit codes: 0 success, 1 invalid arguments or unreadable or malformed
input, 2 rule construction failure (a ConstructionError, or a parameter or
size beyond float range or memory), 3 verification failure (including a
node outside the domain), 4 file cannot be verified (no metadata, an
unknown family, a null weight parameter, or an oracle failure: a reference
that cannot be built, moments beyond float range, or a --max-degree beyond
memory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Callable, Dict, List, Optional, TextIO, Tuple

import numpy as np

from .biangle import gauss_cubature_biangle
from .composed import composed_rule
from .oracle import DEFAULT_REL_TOL, DomainError, certify
from .rules import RULE_FAMILIES, ConstructionError, CubatureRule2D, WeightSpec, rule_shape
from .squaremin import minimal_rule_even, minimal_rule_odd, moller_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRUCTION = 2
EXIT_VERIFICATION = 3
EXIT_UNVERIFIABLE = 4

CSV_HEADER = "x1,x2,weight"

# reading a rule file: unreadable, malformed, a number beyond float range,
# or JSON nested deeper than the parser's recursion limit
_READ_ERRORS = (OSError, ValueError, OverflowError, RecursionError)
# building a rule; extreme Jacobi parameters overflow the recurrence mass or
# the odd rule's moment ladder, lose a zero, or keep that ladder from
# settling, and a size beyond memory fails at its first allocation
_BUILD_ERRORS = (ConstructionError, ValueError, OverflowError, MemoryError)

_JSON_FIELDS = (
    "family",
    "alpha",
    "beta",
    "gamma",
    "ell",
    "param_n_or_m",
    "degree",
    "node_count",
    "moller_bound",
)

# rows per block of the rule writers
_BLOCK_ROWS = 16384

# each rule family's help line, build flags in usage order and builder(spec,
# size); the size flag is n or m, and n, m and ell parse as int, the Jacobi
# parameters as float.  The lambdas look their builder up when called, so
# that a module attribute replaced at run time is the one that runs
_FAMILIES = {
    "biangle": ("Gauss rule on the parabolic domain", "alpha beta gamma n",
                lambda spec, n: gauss_cubature_biangle(spec, n)),
    "square-even": ("minimal rule of degree 4m-1 on the square", "alpha beta gamma m",
                    lambda spec, m: minimal_rule_even(spec, m)),
    "square-odd": ("minimal rule of degree 4m+1 on the square", "alpha beta gamma m",
                   lambda spec, m: minimal_rule_odd(spec, m)),
    "composed": ("folded minimal rule of degree 4*ell*m-1", "ell m alpha beta",
                 lambda spec, m: composed_rule(spec, m)),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for construction failures, so remap usage errors to 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _write_rows(fh: TextIO, nodes: np.ndarray, weights: np.ndarray,
                sep: str, end: str, last_end: str) -> None:
    """Write each row as x1 sep x2 sep weight end to the text stream fh, the
    last row ending in last_end.  A value is its repr: the shortest round-trip
    decimal, and json's format for a finite float.  Blocks of _BLOCK_ROWS rows
    format each distinct value once, told apart by bits so -0.0 keeps its sign."""
    table = np.column_stack([nodes, weights]).astype(float, copy=False)
    for b0 in range(0, len(table), _BLOCK_ROWS):
        block = table[b0 : b0 + _BLOCK_ROWS]
        bits, where = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
        parts = np.empty((len(block), 6), dtype=object)
        parts[:, 0::2] = text[where.reshape(-1, 3)]
        parts[:, 1:5:2] = sep
        parts[:, 5] = end
        if b0 + _BLOCK_ROWS >= len(table):
            parts[-1, 5] = last_end
        fh.write("".join(parts.ravel().tolist()))


def rule_to_csv(nodes: np.ndarray, weights: np.ndarray, fh: TextIO) -> None:
    """Write the CSV rule file to the text stream fh: the header line, then
    one x1,x2,weight line per node."""
    fh.write(CSV_HEADER + "\n")
    _write_rows(fh, nodes, weights, ",", "\n", "\n")


def _carries_ell(family) -> bool:
    """Whether a rule file of family records its ell: only a family with an
    --ell flag does.  Any value, a string or not, may be asked about."""
    return (isinstance(family, str) and family in _FAMILIES
            and "ell" in _FAMILIES[family][1].split())


def family_spec(family: str, alpha: float, beta: float, gamma: float, ell) -> WeightSpec:
    """The weight spec of a rule family; ell None, as files record it off the
    families that carry one, is 1.  Raises ValueError on invalid parameters."""
    return WeightSpec(RULE_FAMILIES[family][0], alpha, beta, gamma, 1 if ell is None else ell)


def rule_metadata(family: str, spec: WeightSpec, param: int) -> Dict[str, object]:
    """File metadata of the rule of family at param on the weight of spec.
    The degree and node count are rule_shape's; only a file of a family with
    an --ell flag carries an ell.  The bound field is the node-count lower
    bound for the degree, for the reader's side-by-side comparison; Gauss
    rules on the curved domain undercut it."""
    degree, count = rule_shape(family, param, spec.ell)
    return {
        "family": family,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma": spec.gamma,
        "ell": spec.ell if _carries_ell(family) else None,
        "param_n_or_m": param,
        "degree": degree,
        "node_count": count,
        "moller_bound": moller_bound((degree + 1) // 2),
    }


def rule_to_json(
    meta: Dict[str, object], nodes: np.ndarray, weights: np.ndarray, fh: TextIO
) -> None:
    """Write the rule file to the text stream fh: byte for byte the
    json.dumps of the metadata fields and the [x1, x2, weight] rows, and a
    newline."""
    head = json.dumps({k: meta[k] for k in _JSON_FIELDS})[:-1] + ', "nodes": ['
    fh.write(head + "[" * (len(weights) > 0))
    _write_rows(fh, nodes, weights, ", ", "], [", "]")
    fh.write("]}\n")


def _is_int(v) -> bool:
    return type(v) is int  # JSON true/false parse to bool, a subclass of int


def _is_number(v) -> bool:
    return type(v) in (int, float)


def parse_rule_file(
    path: str,
) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, object]]]:
    """Read a rule file in either format.

    Returns (nodes, weights, metadata); metadata is None for CSV, which
    carries none.  Raises ValueError on malformed content, including JSON
    whose fields or node rows do not match the schema.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        missing = [k for k in _JSON_FIELDS + ("nodes",) if k not in obj]
        if missing:
            raise ValueError("rule JSON missing fields: %s" % (missing,))
        for k in ("param_n_or_m", "degree", "node_count"):
            if not _is_int(obj[k]):
                raise ValueError("%s must be an integer" % k)
        for k in ("alpha", "beta", "gamma"):
            if obj[k] is not None and not (_is_number(obj[k]) and math.isfinite(obj[k])):
                raise ValueError("%s must be a finite number or null" % k)
        ell = obj["ell"]
        if not (_is_int(ell) or ell is None and not _carries_ell(obj["family"])):
            raise ValueError("ell must be an integer (null only off the %s family)"
                             % " or ".join(filter(_carries_ell, _FAMILIES)))
        rows = obj["nodes"]
        # type() rather than isinstance: JSON true/false parse to bool
        if not (
            type(rows) is list
            and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {3}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}
        ):
            raise ValueError("nodes must be a list of [x1, x2, weight] numbers")
        if obj["node_count"] != len(rows):
            raise ValueError("node_count does not match the node list")
        arr = np.array(rows, dtype=float).reshape(-1, 3)
        return arr[:, :2], arr[:, 2], {k: obj[k] for k in _JSON_FIELDS}
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError("unrecognized rule file format")
    vals = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    if any(len(v) != 3 for v in vals):
        raise ValueError("CSV rows must have exactly three columns")
    arr = np.array(vals, dtype=float).reshape(-1, 3)
    return arr[:, :2], arr[:, 2], None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cubamin", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    b = sub.add_parser("bound", help="print the node-count lower bound for degree 2n-1")
    b.add_argument("--n", type=int, required=True, help="half-degree parameter, n >= 1")
    b.set_defaults(run=cmd_bound)

    bu = sub.add_parser("build", help="construct a rule and write it to a file")
    bu.set_defaults(run=cmd_build)
    fam = bu.add_subparsers(dest="family", metavar="family", required=True)
    for name, (help_text, flags, _) in _FAMILIES.items():
        sp = fam.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument("--" + flag, type=int if flag in ("n", "m", "ell") else float,
                            required=True)
        # the spec fields the family fixes take no flag
        sp.set_defaults(**RULE_FAMILIES[name][1])
        sp.add_argument("--out", default=None, help="output path (default rule.FORMAT)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")

    v = sub.add_parser("verify", help="certify a rule file against reference moments")
    v.set_defaults(run=cmd_verify)
    v.add_argument("rule_file")
    v.add_argument("--max-degree", type=int, default=None,
                   help="test through this total degree (default: declared)")
    v.add_argument("--tol", type=float, default=DEFAULT_REL_TOL)
    v.add_argument("--report", default=None, help="write a JSON report here")

    pl = sub.add_parser("plot", help="draw the nodes as an SVG scatter")
    pl.set_defaults(run=cmd_plot)
    pl.add_argument("rule_file")
    pl.add_argument("svg_file")
    pl.add_argument("--size", type=int, default=480, help="viewport side in pixels")

    return p


def _fail(message: str, code: int) -> int:
    print("cubamin: %s" % message, file=sys.stderr)
    return code


def _write_file(path: str, write: Callable[[TextIO], None]) -> bool:
    """Write the text file at path through write(fh): UTF-8, LF line ends.
    An OSError is one line on stderr and False."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        _fail("cannot write %s: %s" % (path, exc.strerror or exc), EXIT_USAGE)
        return False
    return True


def cmd_bound(args) -> int:
    if args.n < 1:
        return _fail("--n must be >= 1", EXIT_USAGE)
    try:
        print(moller_bound(args.n))
    except ValueError:  # more digits than int-to-text conversion allows
        return _fail("--n is too large: its bound has too many digits to print", EXIT_USAGE)
    return EXIT_OK


def cmd_build(args) -> int:
    _, flags, build = _FAMILIES[args.family]
    flag = "n" if "n" in flags.split() else "m"
    try:
        spec = family_spec(args.family, args.alpha, args.beta, args.gamma,
                           getattr(args, "ell", None))
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    size = getattr(args, flag)
    if size < 1:
        return _fail("--%s must be >= 1" % flag, EXIT_USAGE)

    try:
        rule = build(spec, size)
    except _BUILD_ERRORS as exc:
        # nothing has been opened for writing yet, so no partial file; the
        # line names the rule by its flags as parsed, the library the cause
        named = ", ".join("%s=%r" % (f, getattr(args, f)) for f in flags.split())
        return _fail("construction failed for %s %s: %s" % (args.family, named, exc),
                     EXIT_CONSTRUCTION)

    out = args.out if args.out is not None else "rule.%s" % args.format
    if not _write_file(out, lambda fh: rule_to_csv(rule.nodes, rule.weights, fh)
                       if args.format == "csv"
                       else rule_to_json(rule_metadata(rule.family, rule.spec, rule.param),
                                         rule.nodes, rule.weights, fh)):
        return EXIT_USAGE
    print("wrote %s: %s, %d nodes, degree %d"
          % (out, rule.family, rule.node_count, rule.degree))
    return EXIT_OK


def metadata_mismatch(meta: Dict[str, object], spec: WeightSpec) -> Optional[str]:
    """Why the file's ell, degree, node_count or moller_bound disagree with
    rule_metadata of its family and param_n_or_m on spec, the weight its
    fields give, or None.  Only a family with an --ell flag carries an ell,
    so a file cannot ask for the work of a weight its rule was not built for."""
    fam, size = meta["family"], meta["param_n_or_m"]
    want = rule_metadata(fam, spec, max(size, 1))  # ell does not depend on the size
    if meta["ell"] != want["ell"]:
        return "ell is %r, but only a %s rule file carries one" % (
            meta["ell"], " or ".join(filter(_carries_ell, _FAMILIES)))
    if size < 1:
        return "param_n_or_m is %d, but must be >= 1" % size
    for key in ("degree", "node_count", "moller_bound"):
        if not (_is_int(meta[key]) and meta[key] == want[key]):
            try:
                has = "%d" % want[key]
            except ValueError:  # more digits than int-to-text conversion allows
                has = "over 10^%d" % int((want[key].bit_length() - 1) * math.log10(2.0))
            return "%s is %r, but a %s rule with param_n_or_m %d%s has %s" % (
                key, meta[key], fam, size,
                "" if want["ell"] is None else " and ell %d" % want["ell"], has)
    return None


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        return _fail("--tol must be a finite positive number", EXIT_USAGE)
    if args.max_degree is not None and args.max_degree < 0:
        return _fail("--max-degree must be >= 0", EXIT_USAGE)
    try:
        nodes, weights, meta = parse_rule_file(args.rule_file)
    except _READ_ERRORS as exc:
        return _fail("cannot read rule file: %s" % exc, EXIT_USAGE)
    if meta is None:
        return _fail(
            "CSV files carry no weight-family metadata; nothing to verify against",
            EXIT_UNVERIFIABLE,
        )
    declared = meta["degree"]
    max_degree = args.max_degree if args.max_degree is not None else declared
    fam = meta["family"]
    if not (isinstance(fam, str) and fam in _FAMILIES):
        return _fail("no moment oracle for family %r" % (fam,), EXIT_UNVERIFIABLE)
    params = ("alpha", "beta", "gamma")
    nulls = [k for k in params if meta[k] is None]
    if nulls:
        return _fail("no moment oracle for family %r with null %s" % (fam, ", ".join(nulls)),
                     EXIT_UNVERIFIABLE)
    try:
        spec = family_spec(fam, *(float(meta[k]) for k in params), meta["ell"])
    except ValueError as exc:
        return _fail("rule file has invalid weight parameters: %s" % exc, EXIT_USAGE)
    mismatch = metadata_mismatch(meta, spec)
    if mismatch is not None:
        return _fail("rule file metadata disagree: %s" % mismatch, EXIT_USAGE)
    try:
        rule = CubatureRule2D(
            nodes=nodes,
            weights=weights,
            spec=spec,
            param=meta["param_n_or_m"],
            family=fam,
        )
    except (ConstructionError, ValueError) as exc:
        return _fail("rule file fails basic validation: %s" % exc, EXIT_USAGE)
    try:
        report = certify(rule, max_degree, rel_tol=args.tol)
    except DomainError as exc:
        return _fail("rule fails verification: %s" % exc, EXIT_VERIFICATION)
    except (ConstructionError, OverflowError, MemoryError) as exc:
        return _fail("moment oracle failed: %s" % exc, EXIT_UNVERIFIABLE)

    ok = report.certified_degree >= declared
    if args.report is not None:
        payload = json.dumps(
            {
                "declared_degree": declared,
                "max_degree_tested": report.max_degree_tested,
                "certified_degree": report.certified_degree,
                "worst_rel_error": report.worst_rel_error,
                "ok": ok,
                "basis": "chebyshev",
                "failures": [[i, j, rel] for (i, j, rel) in report.failures],
            }
        ) + "\n"
        if not _write_file(args.report, lambda fh: fh.write(payload)):
            return EXIT_USAGE
    print("declared %d, certified %d through degree %d, worst rel err %.3e: %s"
          % (declared, report.certified_degree, report.max_degree_tested,
             report.worst_rel_error, "OK" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _min_node_gap(nodes: np.ndarray) -> float:
    """Smallest distance between two of at least one node, 0.0 for one.

    The nodes are scanned sorted along the axis of larger spread, x below,
    each against the node k places on, for k = 1, 2, ...  Rounding is
    monotone, so from shift k on no squared distance dx*dx + dy*dy is below
    the smallest squared x-gap at shift k; the scan stops once that gap
    reaches the best so far.  Every squared distance is the all-pairs
    formula's, whichever axis is x, so the result is its float.  Nodes on
    one vertical line would share every x and never stop the scan early."""
    with np.errstate(over="ignore"):  # a spread or distance beyond float range is +inf
        a = int(np.ptp(nodes[:, 1]) > np.ptp(nodes[:, 0]))
        order = np.argsort(nodes[:, a], kind="stable")
        x, y = nodes[order, a], nodes[order, 1 - a]
        best = math.inf
        for k in range(1, len(x)):
            dx2 = (x[k:] - x[:-k]) ** 2
            if float(dx2.min()) >= best:
                break
            best = min(best, float(np.min(dx2 + (y[k:] - y[:-k]) ** 2)))
    return math.sqrt(best) if best < math.inf else 0.0


def render_svg(nodes: np.ndarray, family: Optional[str], size: int) -> str:
    """Scatter of the nodes inside the domain outline.

    A known family draws the domain of its weight in RULE_FAMILIES, the
    curved one for biangle-gamma.  Otherwise (a CSV file, or an unknown
    family) it falls back on the bounding box: any node outside the unit
    square implies the curved domain.  Raises OverflowError when a node's
    pixel position is beyond float range.
    """
    curved = (RULE_FAMILIES[family][0] == "biangle-gamma" if family in RULE_FAMILIES
              else bool(np.any(np.abs(nodes[:, 0]) > 1.0 + 1e-12)))
    if curved:
        xlo, xhi, ylo, yhi = -2.0, 2.0, -1.0, 1.0
    else:
        xlo, xhi, ylo, yhi = -1.0, 1.0, -1.0, 1.0
    margin = 0.05 * size
    scale = min((size - 2 * margin) / (xhi - xlo), (size - 2 * margin) / (yhi - ylo))
    cx, cy = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)

    def px(x: float, y: float) -> Tuple[float, float]:
        return 0.5 * size + (x - cx) * scale, 0.5 * size - (y - cy) * scale

    def pt(x: float, y: float) -> str:
        return "%.4f %.4f" % px(x, y)

    gap = _min_node_gap(nodes)
    if gap > 0.0 and math.isfinite(gap):
        radius = max(0.35 * gap * scale, 0.75)
    else:
        radius = 0.02 * size

    parts: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (size, size)]
    if curved:
        # straight edges meet at the bottom vertex; the top arc x2 = x1^2/4
        # is exactly the quadratic Bezier with control point at that vertex
        d = "M %s L %s M %s L %s M %s Q %s %s" % (
            pt(0, -1), pt(2, 1),
            pt(0, -1), pt(-2, 1),
            pt(-2, 1), pt(0, -1), pt(2, 1),
        )
    else:
        d = "M %s L %s L %s L %s Z" % (pt(-1, -1), pt(1, -1), pt(1, 1), pt(-1, 1))
    parts.append('<path d="%s" fill="none" stroke="#000000" stroke-width="1"/>' % d)
    for x, y in nodes:
        u, v = px(float(x), float(y))
        if not (math.isfinite(u) and math.isfinite(v)):
            raise OverflowError("node (%r, %r) lies beyond the plot's float range"
                                % (float(x), float(y)))
        parts.append('<circle cx="%.4f" cy="%.4f" r="%.4f" fill="#000000"/>' % (u, v, radius))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    try:
        nodes, weights, meta = parse_rule_file(args.rule_file)
    except _READ_ERRORS as exc:
        return _fail("cannot read rule file: %s" % exc, EXIT_USAGE)
    if len(nodes) == 0:
        return _fail("rule file has no nodes; nothing to plot", EXIT_USAGE)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        return _fail("rule file has a non-finite node or weight; nothing to plot", EXIT_USAGE)
    if args.size < 32:
        return _fail("--size must be at least 32", EXIT_USAGE)
    family = None if meta is None else str(meta["family"])
    try:
        svg = render_svg(nodes, family, args.size)
    except OverflowError as exc:
        return _fail("cannot plot rule file: %s" % exc, EXIT_USAGE)
    if not _write_file(args.svg_file, lambda fh: fh.write(svg)):
        return EXIT_USAGE
    print("wrote %s: %d nodes" % (args.svg_file, len(nodes)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
