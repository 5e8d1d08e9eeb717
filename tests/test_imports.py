"""Source hygiene: every name a package module imports is used there, and
every function, class and method it defines is called from elsewhere."""

import ast
from collections import Counter
from pathlib import Path

import htasim

PACKAGE_DIR = Path(htasim.__file__).resolve().parent
REPO_DIR = Path(__file__).resolve().parents[1]


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


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each top-level function and class, and of each
    non-dunder method, of a module."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            methods = (m for m in node.body if isinstance(m, functions))
            found += [
                (f"{node.name}.{m.name}", m)
                for m in methods
                if not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return found


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read as a name or an attribute, and, with
    `strings`, written as a string constant."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _unreached(modules: dict[str, str], callers: Counter) -> list[str]:
    """Definitions of `modules` (name -> source) that neither the modules
    nor `callers` reference outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = sum((_references(tree) for tree in trees.values()), callers)
    return [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if refs[node.name] <= _references(node)[node.name]
    ]


def test_unreached_definition_is_detected():
    modules = {
        "a": "def used(): pass\ndef alone(n): return alone(n - 1)\n"
        "class C:\n    def __init__(self): self.go()\n"
        "    def go(self): pass\n    def idle(self): pass\n",
        "b": "from a import used, C\nused()\nC()\n",
    }
    assert _unreached(modules, Counter()) == ["a.alone", "a.C.idle"]
    assert _unreached(modules, Counter({"idle": 1, "alone": 1})) == []


def test_every_definition_is_reached():
    # a command, the acceptance suite or the benchmark must reach each
    # piece of src; the benchmark's tracer wraps some functions by name
    callers = _references(ast.parse((REPO_DIR / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((REPO_DIR / "bench").glob("*.py")):
        callers += _references(ast.parse(path.read_text()), strings=True)
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unreached(modules, callers) == []


def test_metrics_import_only_geometry_and_synthesis():
    # the metrics read a pattern; the engine, the scenarios and the CLI
    # make or write one, so none of them is a metrics dependency
    tree = ast.parse((PACKAGE_DIR / "metrics.py").read_text())
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative <= {"geometry", "synthesis"}
