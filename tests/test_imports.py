"""Source hygiene: every module under ``svtkit``, and every bench script,
uses each name it imports."""

import ast
from pathlib import Path

import pytest

import svtkit

MODULES = sorted(p for p in Path(svtkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
BENCH = sorted((Path(__file__).parents[1] / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nd(os)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_bench_script_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
