"""Source hygiene: every name a package module imports is used there."""

import ast
from pathlib import Path

import htasim

PACKAGE_DIR = Path(htasim.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_detected():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom c import d as e\na.b\n"
    assert _unused_imports(source) == ["line 2: os", "line 4: e"]


def test_no_unused_imports():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_metrics_import_only_geometry_and_synthesis():
    # the metrics read a pattern; the engine, the scenarios and the CLI
    # make or write one, so none of them is a metrics dependency
    tree = ast.parse((PACKAGE_DIR / "metrics.py").read_text())
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative <= {"geometry", "synthesis"}
