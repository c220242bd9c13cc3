"""The benchmark's tracer wraps conewave names by attribute lookup; a rename
in the package would break only a traced benchmark run.  Parse the wrap list
of ``perfbench/child.py`` (without installing the tracer) and resolve every
wrapped name on its conewave object.  Likewise for the scripts under
``benchmarks/``: ``perfbench/run.py --micro`` runs ``bench_cone.py``, and
``bench_sweep.py`` wraps the methods its ``LAYERS`` name; import both (their
``main`` is guarded) and resolve every layer.  And the benchmark's accuracy
gate: ``conv_rel_err`` of the accuracy child on the smoke configs stays
within the ``MAX_CONV_REL_ERR`` of ``perfbench/run.py``, so a change to the
convolution or to the profile semantics that breaks it shows here rather
than only in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
CHILD = PERFBENCH / "child.py"


def _install_body() -> list:
    tree = ast.parse(CHILD.read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_install"]
    return fn.body


def _owners(body) -> dict:
    """Local name -> object for the imports at the top of ``_install``."""
    owners = {}
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                owners[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(mod, alias.name)
    return owners


def _wrapped(body) -> list:
    """(owner name, attribute) of every ``w(<owner>, "<attr>", ...)`` call."""
    out = []
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "w"
        ):
            owner, attr = node.args[:2]
            assert isinstance(owner, ast.Name) and isinstance(attr, ast.Constant)
            out.append((owner.id, attr.value))
    return out


def test_wrapped_names_resolve():
    body = _install_body()
    owners = _owners(body)
    wrapped = _wrapped(body)
    assert len(wrapped) >= 20
    for owner, attr in wrapped:
        assert owner in owners, f"{owner} is not imported in _install"
        obj = owners[owner]
        assert getattr(obj, "__module__", obj.__name__).startswith("conewave.")
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr} does not resolve"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_script(name: str):
    return _load(ROOT / "benchmarks" / f"{name}.py")


def test_benchmark_scripts_import_and_layers_resolve():
    _load_script("bench_cone")
    layers = _load_script("bench_sweep").LAYERS
    assert layers
    for label, methods in layers.items():
        for mod, cls, meth in methods:
            owner = getattr(importlib.import_module(f"conewave.{mod}"), cls)
            assert callable(getattr(owner, meth, None)), f"{label}: {mod}.{cls}.{meth}"


def _run_constant(name: str):
    """A module-level constant of ``perfbench/run.py``, read without
    importing it (its imports need ``perfbench/`` on the path)."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in perfbench/run.py")


def test_accuracy_gate_holds_on_smoke_configs():
    child = _load(CHILD)
    workloads = _load(PERFBENCH / "workloads.py")
    bound = _run_constant("MAX_CONV_REL_ERR")
    for name in workloads.WORKLOADS:
        for seed in range(4):
            acc = child.accuracy(workloads.make_config(name, seed, smoke=True), seed)
            assert acc["conv_rel_err"] <= bound, (name, seed, acc["per_gamma"])
