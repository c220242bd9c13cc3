"""Stand-ins for three linter rules: every module-level ``from ... import``
name is used (``__future__`` exempt), and every name a ``conewave`` module
exports in ``__all__`` and every public method of a ``conewave`` class has a
user inside the package, so code that only tests reach lives under
``tests/``.  Also: the CLI imports no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conewave"

# Exports that only tests call: the pointwise free field, the reference of
# ``FreeField``; the point path of the slice convolution, the reference of
# ``ConvolutionKernel.apply`` that perfbench's accuracy check imports; the
# Kato exponent calculus that ROADMAP item 6's sweep is to use; and the
# one-point lifespan on the integral-equation march, the independent
# reference that a sweep's stencil lifespans are held to.
TEST_ONLY_EXPORTS = (
    "free_field",
    "convolve_power",
    "kato_bound",
    "j1_for_delta",
    "lifespan_measure",
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _used_names(trees) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreached_exports(sources: list[str]) -> list[str]:
    """Names in some module's ``__all__`` that no module refers to by name
    or attribute."""
    trees = [ast.parse(s) for s in sources]
    used = _used_names(trees)
    exported = [
        name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    return [name for name in exported if name not in used]


def unreached_methods(sources: list[str]) -> list[str]:
    """``Class.method`` for each public method of a module-level class that
    no module refers to by name or attribute."""
    trees = [ast.parse(s) for s in sources]
    used = _used_names(trees)
    return [
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in used
    ]


def test_scan_flags_an_unused_name():
    assert unused_imports("from math import pi, tau\nx = tau\n") == ["pi"]


def test_no_unused_from_imports():
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = {
        str(p.relative_to(ROOT)): names
        for p in sorted(paths)
        if (names := unused_imports(p.read_text()))
    }
    assert found == {}


def test_export_scan_flags_an_unreached_name():
    lib = '__all__ = ["f", "g", "C"]\ndef f(): pass\ndef g(): pass\nclass C: pass\n'
    user = "import lib\nlib.f()\nC()\n"
    assert unreached_exports([lib, user]) == ["g"]


def test_every_export_has_a_package_user():
    found = unreached_exports([p.read_text() for p in sorted(SRC.glob("*.py"))])
    assert sorted(found) == sorted(TEST_ONLY_EXPORTS)


def test_method_scan_flags_an_unreached_method():
    lib = "class C:\n    def f(self): pass\n    def g(self): pass\n    def _h(self): pass\n"
    user = "import lib\nlib.C().f()\n"
    assert unreached_methods([lib, user]) == ["C.g"]


def test_every_public_method_has_a_package_user():
    assert unreached_methods([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def test_cli_import_loads_no_scipy():
    # numpy.fft serves the slice convolution, so the package needs no scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, conewave.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
