"""Tooling checks on the source tree itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def package_files():
    # the package __init__ imports names only to re-export them
    return [f for f in sorted((ROOT / "src" / "superhc").glob("*.py"))
            if f.name != "__init__.py"]


def scanned_files():
    return package_files() + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py"))


def mentioning_files():
    return sorted((ROOT / "src" / "superhc").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))


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


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source):
    """(line, name) of each module-level function and class, and of each
    non-dunder method of those classes as Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((item.lineno, f"{node.name}.{item.name}")
                       for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not re.fullmatch(r"__\w+__", item.name))
    return out


def mentions(source):
    """Names read through Name or Attribute nodes, and the parts of string
    constants that are dotted names (a tracer's targets are such strings)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            found.update(node.value.split("."))
    return found


def dead_definitions(source, mentioning_sources):
    """Definitions of source that no mentioning source names."""
    used = set().union(*map(mentions, mentioning_sources))
    return [(line, name) for line, name in definitions(source)
            if name.split(".")[-1] not in used]


def test_dead_definitions_detector():
    source = ("class Box:\n"
              "    def __init__(self):\n        pass\n"
              "    def used(self):\n        pass\n"
              "    def unused(self):\n        pass\n"
              "def traced():\n    'orphan is named only in prose'\n"
              "def orphan():\n    pass\n"
              "Box().used()\n"
              "TARGETS = [('module', 'Box.__init__'), ('module', 'traced')]\n")
    assert [name for _, name in dead_definitions(source, [source])] \
        == ["Box.unused", "orphan"]


def test_no_dead_definitions():
    sources = [path.read_text() for path in mentioning_files()]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in package_files()
             for line, name in dead_definitions(path.read_text(), sources)]
    assert found == []
