"""A stand-in for a linter's unused-import rule: every module-level
``from ... import`` name is used (``__future__`` exempt)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_scan_flags_an_unused_name():
    assert unused_imports("from math import pi, tau\nx = tau\n") == ["pi"]


def test_no_unused_from_imports():
    paths = [*(ROOT / "src" / "conewave").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = {
        str(p.relative_to(ROOT)): names
        for p in sorted(paths)
        if (names := unused_imports(p.read_text()))
    }
    assert found == {}
