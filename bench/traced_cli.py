"""Run one cubamin command with a timing span around every public function
of the cli, oracle, opq1d, biangle, squaremin, composed and rules modules.

    python3 bench/traced_cli.py SPANS.json -- verify rule.json --report r.json

The package is imported from PYTHONPATH, as for ``python -m cubamin.cli``.
Each wrapper is installed on every module binding of the function (the
modules import each other's names with ``from .x import f``), on the
method ``CubatureRule2D.sorted_rule`` (as ``rules.sorted_rule``) and on
``numpy.linalg.lstsq`` (as ``squaremin.lstsq``, its only caller).

Spans stay in memory and are written to SPANS.json when the command ends,
as a list of ``[name, parent index or -1, start, end, extra]``; ``extra``
holds the counts listed in ``EXTRAS``.  The exit code is the command's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "oracle", "opq1d", "biangle", "squaremin", "composed", "rules")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gauss_rule_counts(tracer, args, kwargs, out):
    rc, m = _arg(args, kwargs, 0, "rc"), _arg(args, kwargs, 1, "m")
    key = (m, rc.a[:m].tobytes(), rc.b[: max(m - 1, 0)].tobytes(), rc.mu0)
    distinct = key not in tracer.gauss_keys
    tracer.gauss_keys.add(key)
    return {"max_m": m, "distinct": int(distinct)}


def _ladder_counts(tracer, args, kwargs, out):
    return {
        "levels": len(out),
        "integrands": len(_arg(args, kwargs, 3, "hfuncs")),
    }


def _merge_counts(tracer, args, kwargs, out):
    return {
        "points_in": len(_arg(args, kwargs, 0, "points")),
        "points_out": len(out[0]),
    }


# counts recorded per call, by span name; "max_m" is aggregated as a
# maximum, every other key as a sum
EXTRAS = {
    "opq1d.gauss_rule": _gauss_rule_counts,
    "oracle.angular_moment_ladder": _ladder_counts,
    "squaremin.merge_close_nodes": _merge_counts,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.gauss_keys = set()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counts is not None:
                try:
                    span[4] = counts(self, args, kwargs, out)
                except Exception:  # noqa: BLE001
                    # a changed signature loses the counts, never the command
                    span[4] = None
            return out

        return traced

    def install(self):
        """Wrap the layer functions; returns the cli module."""
        import numpy

        import cubamin

        mods = {short: importlib.import_module("cubamin." + short) for short in LAYERS}
        every = [cubamin] + list(mods.values())
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self.wrap(short + "." + attr, fn)
                for m in every:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, bound, wrapped)
        rule_cls = mods["rules"].CubatureRule2D
        rule_cls.sorted_rule = self.wrap("rules.sorted_rule", rule_cls.sorted_rule)
        numpy.linalg.lstsq = self.wrap("squaremin.lstsq", numpy.linalg.lstsq)
        return mods["cli"]


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
