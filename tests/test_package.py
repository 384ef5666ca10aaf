"""Package surface: every module uses its imports, every public function
runs on a documented path, and the runtime needs numpy alone."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubamin
from cubamin import cli
from cubamin.biangle import gauss_cubature_biangle
from cubamin.composed import composed_rule
from cubamin.rules import WeightSpec
from cubamin.squaremin import minimal_rule_even, minimal_rule_odd


def test_every_module_uses_its_imports():
    """No module of the package keeps an import it no longer reads."""
    unused = []
    for path in sorted(Path(cubamin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (path.name, n) for n in sorted(imported - used)]
    assert unused == []


def test_the_builders_take_their_gauss_pairs_from_opq1d():
    """opq1d.gauss_pairs is the builders' one source of Gauss nodes and pair
    weights: no builder module imports the recurrence or the Gauss rule."""
    shared = []
    for stem in ("biangle", "squaremin", "composed"):
        tree = ast.parse((Path(cubamin.__file__).parent / (stem + ".py")).read_text())
        shared += ["%s: %s" % (stem, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.name in ("gauss_rule", "jacobi_recurrence")]
    assert shared == []


def test_the_certificate_shares_with_the_builders_only_what_its_imports_name():
    """oracle takes from the package the recurrence, the Gauss rule and the
    rule types, and nothing of a builder or the CLI: a new dependency of
    the certificate on the code it checks is an edit to this list."""
    tree = ast.parse((Path(cubamin.__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            imported |= {"%s.%s" % (module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    package = sorted(name for name in imported
                     if name.startswith(".") or name.split(".")[0] == "cubamin")
    assert package == [".opq1d.gauss_rule", ".opq1d.jacobi_recurrence",
                       ".rules.ConstructionError", ".rules.CubatureRule2D",
                       ".rules.ExactnessReport", ".rules.WeightSpec"]


def test_runtime_imports_numpy_only():
    """Importing the package and its CLI pulls in no test or tool package."""
    probe = (
        "import sys, cubamin, cubamin.cli; "
        "print(sorted(m for m in ('mpmath', 'hypothesis', 'pytest', 'scipy') "
        "if m in sys.modules))"
    )
    src = str(Path(cubamin.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def _run_readme_library_block():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


def test_readme_library_example_runs():
    """The README's python block is the documented entry to the library;
    it must run against the package as shipped."""
    _run_readme_library_block()


def _public_code():
    """Code object of every public module-level function and every public
    method (property getters included) defined in the package, by name."""
    found = {}
    for path in sorted(Path(cubamin.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module("cubamin." + path.stem)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, fn in members:
                fn = fn.fget if isinstance(fn, property) else fn
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found[".".join(filter(None, (path.stem, name, attr)))] = fn.__code__
    return found


def test_every_public_function_runs_on_a_documented_path(tmp_path):
    """The package ships only what builds, verifies or plots a rule: each
    public function or method is called by some CLI command or by the
    README library block."""
    builds = ["biangle --alpha 0.5 --beta 0 --gamma 0.5 --n 3",
              "square-even --alpha 0.5 --beta 0 --gamma -0.5 --m 2",
              "square-odd --alpha 0.5 --beta -0.5 --gamma -0.5 --m 1",
              "square-odd --alpha 0.5 --beta -0.5 --gamma 0.5 --m 1",
              "composed --ell 2 --m 1 --alpha -0.5 --beta -0.5",
              "composed --ell 2 --m 1 --alpha -0.5 --beta -0.5 --format csv"]
    files = [str(tmp_path / ("r%d.%s" % (k, "csv" if "csv" in b else "json")))
             for k, b in enumerate(builds)]
    runs = [["bound", "--n", "4"]]
    runs += [["build"] + b.split() + ["--out", out] for b, out in zip(builds, files)]
    runs += [["verify", out] for out in files if out.endswith(".json")]
    runs += [["plot", out, str(tmp_path / "plot.svg")] for out in (files[0], files[-1])]
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
    try:
        codes = [cli.main(argv) for argv in runs]
        _run_readme_library_block()
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    assert sorted(name for name, code in _public_code().items() if code not in called) == []


_BIANGLE = WeightSpec("biangle-gamma", alpha=0.5, beta=0.0, gamma=0.5)
_SQUARE = WeightSpec("square-W", alpha=0.5, beta=0.0, gamma=0.5)
_COMPOSED = WeightSpec("square-W", alpha=0.5, beta=0.0, gamma=-0.5, ell=2)


@pytest.mark.parametrize("build,spec", [
    (gauss_cubature_biangle, _BIANGLE),
    (minimal_rule_even, _SQUARE),
    (minimal_rule_odd, _SQUARE),
    (composed_rule, _COMPOSED),
])
def test_every_builder_takes_a_spec_and_a_size(build, spec):
    """The spec is the one carrier of a rule's weight: each builder labels
    its rule with the spec it was given."""
    rule = build(spec, 2)
    assert rule.spec is spec and rule.param == 2


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("build,spec", [
    (gauss_cubature_biangle, _BIANGLE),
    (gauss_cubature_biangle, dataclasses.replace(_BIANGLE, gamma=-0.5)),
    (minimal_rule_even, _SQUARE),
    (minimal_rule_even, dataclasses.replace(_SQUARE, gamma=-0.5)),
    (minimal_rule_odd, _SQUARE),
    (minimal_rule_odd, dataclasses.replace(_SQUARE, gamma=-0.5)),
    (composed_rule, _COMPOSED),
])
def test_every_builder_refuses_a_size_below_one(build, spec, size):
    """The builders check no size themselves: the recurrence, the Gauss
    rule or the diagonal zero search refuses a size below 1, and the rule
    type's param check catches the empty gamma = +1/2 builds at size 0."""
    with pytest.raises(ValueError, match="must be >= 1"):
        build(spec, size)


@pytest.mark.parametrize("build,spec", [
    (gauss_cubature_biangle, _SQUARE),
    (minimal_rule_even, _BIANGLE),
    (minimal_rule_even, _COMPOSED),
    (minimal_rule_odd, _BIANGLE),
    (minimal_rule_odd, _COMPOSED),
    (composed_rule, _BIANGLE),
    (composed_rule, _SQUARE),
])
def test_a_builder_refuses_a_spec_of_another_family_ell_or_gamma(build, spec):
    with pytest.raises(ValueError, match="needs a"):
        build(spec, 2)
