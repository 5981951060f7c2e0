"""Tooling checks on the source tree itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scanned_files():
    # the package __init__ imports names only to re-export them
    package = [f for f in sorted((ROOT / "src" / "superhc").glob("*.py"))
               if f.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement and never read elsewhere."""
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
    # annotations written as strings name types too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detector():
    source = "import os\nfrom typing import List, Dict\nx: 'List[int]' = []\n"
    assert [name for _, name in unused_imports(source)] == ["os", "Dict"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in scanned_files()
             for line, name in unused_imports(path.read_text())]
    assert found == []
