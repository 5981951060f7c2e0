"""Tooling checks on the source tree itself."""

import ast
import importlib
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


def library_files():
    """What the CLI, the demos and the benchmark run: the package, the
    demos, and perfbench without its tests."""
    return package_files() + sorted((ROOT / "demos").glob("*.py")) \
        + [f for f in sorted((ROOT / "perfbench").glob("*.py"))
           if not f.name.startswith("test_")]


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


def class_bases(sources):
    """Each module-level class of the sources -> the names of its bases."""
    return {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
            for source in sources for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)}


def annotated_class(node, classes):
    """The class an annotation names as C, "C" or Optional[C], else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
            and node.value.id == "Optional":
        node = node.slice
    if isinstance(node, ast.Name) and node.id in classes:
        return node.id
    return None


def bound_classes(func, classes, owner=None):
    """Names that hold an instance of one class at every binding inside a
    module-level function or method, nested scopes included: self or cls of
    a method of owner, parameters annotated with a class, and names assigned
    only calls of one class's constructor or annotated with it."""
    typed = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id in classes:
            typed.update((id(t), node.value.func.id) for t in node.targets)
        elif isinstance(node, ast.AnnAssign):
            typed[id(node.target)] = annotated_class(node.annotation, classes)
    kinds = {}
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in getattr(node, "decorator_list", ()))
            for k, arg in enumerate(a.posonlyargs + a.args + a.kwonlyargs):
                if owner and node is func and k == 0 and not static:
                    cls = owner
                else:
                    cls = annotated_class(arg.annotation, classes)
                kinds.setdefault(arg.arg, set()).add(cls)
            for arg in (a.vararg, a.kwarg):
                if arg is not None:
                    kinds.setdefault(arg.arg, set()).add(None)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            kinds.setdefault(node.id, set()).add(typed.get(id(node)))
    return {name: next(iter(k)) for name, k in kinds.items()
            if len(k) == 1 and None not in k}


# the "class" of a bare name read: it names no method
BARE = "<bare name>"


def mentions(source, classes=(), modules=()):
    """(class, name) for each name read through a Name or Attribute node, and
    for the parts of string constants that are dotted names (a tracer's
    targets are such strings).  class is BARE for a Name node, and for an
    attribute the class of classes it is read on when that is known
    (C.name, C(...).name, or a variable bound_classes types), else None.
    A string "m.x" with m one of modules is a label, such as a tracer's span
    name "pbw.adjoint", and names nothing."""
    found = set()

    def receiver(node, env):
        if isinstance(node, ast.Call):
            node = node.func
            return node.id if isinstance(node, ast.Name) \
                and node.id in classes else None
        if isinstance(node, ast.Name):
            return node.id if node.id in classes else env.get(node.id)
        return None

    def scan(tree, env):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add((BARE, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((receiver(node.value, env), node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and DOTTED.fullmatch(node.value):
                head, *rest = node.value.split(".")
                if head in modules and len(rest) == 1:
                    continue
                found.add((None, head))
                found.update(((head if head in classes else None), part)
                             for part in rest)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            scan(node, bound_classes(node, classes))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                scan(item, bound_classes(item, classes, node.name)
                     if isinstance(item, ast.FunctionDef) else {})
            for expr in node.bases + node.decorator_list:
                scan(expr, {})
        else:
            scan(node, {})
    return found


def dead_definitions(sources, mentioning_sources, modules=()):
    """For each source, its definitions that no mentioning source names.  A
    method C.m counts as named by a read of attribute m on an unknown
    receiver, or on C, a class C derives from, or a class derived from C; a
    bare name m, or an attribute m read on another class, does not count,
    and neither does a label "m.x" with m one of modules (see mentions)."""
    bases = class_bases([*sources, *mentioning_sources])

    def ancestors(c):
        seen, todo = set(), [c]
        while todo:
            for b in bases.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen

    read_on = {}
    for src in mentioning_sources:
        for cls, name in mentions(src, bases, modules):
            read_on.setdefault(name, set()).add(cls)

    def named(definition):
        owner, _, name = definition.rpartition(".")
        on = read_on.get(name, set())
        if not owner:
            return bool(on)
        return None in on or any(c == owner or owner in ancestors(c)
                                 or c in ancestors(owner) for c in on)

    return [[(line, name) for line, name in definitions(source)
             if not named(name)] for source in sources]


def test_dead_definitions_detector():
    source = ("class Box:\n"
              "    def __init__(self):\n        pass\n"
              "    def used(self):\n        pass\n"
              "    def unused(self):\n        pass\n"
              "    def shared(self):\n        pass\n"
              "class Crate:\n"
              "    def shared(self):\n        pass\n"
              "    def touch(self, box: 'Box', other):\n"
              "        box.shared()\n"
              "def traced():\n    'orphan is named only in prose'\n"
              "def orphan():\n    pass\n"
              "def tap(box: Box):\n    box.shared()\n"
              "tap(Box())\n"
              "Box().used()\n"
              "Crate.touch\n"
              "unused = None\n"
              "TARGETS = [('module', 'Box.__init__'), ('module', 'traced')]\n")
    # both reads of shared are on a Box, and a bare name keeps no method
    assert [name for _, name in dead_definitions([source], [source])[0]] \
        == ["Box.unused", "Crate.shared", "orphan"]
    # a receiver of unknown class keeps every method of that name alive
    untyped = source + "def poke(thing):\n    thing.shared()\n"
    assert [name for _, name in dead_definitions([untyped], [untyped])[0]] \
        == ["Box.unused", "orphan", "poke"]


def test_no_dead_definitions():
    paths = package_files()
    sources = [path.read_text() for path in mentioning_files()]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, dead in zip(paths, dead_definitions(
                 [path.read_text() for path in paths], sources,
                 [path.stem for path in paths]))
             for line, name in dead]
    assert found == []


# The definitions in src that no library file names, each with the reason
# it stays in src rather than in tests/support.py.
PUBLIC_API = {
    "harish.gr_restriction":
        "the paper's gr map S(p) -> S(a), checked against S(p)^k in test_rings",
    "serialization.algebra_to_json":
        "writes the algebra schema that the CLI reads from an entry file",
}


def unused_by_library(modules, library_sources):
    """"module.name" of each definition of modules (name -> source) that no
    library source names, by the rules of dead_definitions."""
    names = list(modules)
    return [f"{module}.{name}" for module, unused in zip(names, dead_definitions(
        [modules[m] for m in names], library_sources, names))
        for _, name in unused]


def public_api_problems(found, public):
    """Why found, the definitions only tests name, disagrees with public:
    a name not listed, a listed name the library now names, or a reason
    that is not one line."""
    return [f"{name}: only tests name it" for name in found
            if name not in public] \
        + [f"{name}: listed, but the library names it" for name in public
           if name not in found] \
        + [f"{name}: the reason must be one line" for name, why in public.items()
           if not why.strip() or "\n" in why]


def test_unused_by_library_detector():
    library = ("def run():\n    helper()\n"
               "def helper():\n    pass\n"
               "def tested():\n    pass\n"
               "def kept():\n    pass\n"
               "class Box:\n"
               "    def used(self):\n        pass\n"
               "    def probe(self):\n        pass\n"
               "    def labelled(self):\n        pass\n"
               "    def wrapped(self):\n        pass\n")
    # a tracer's targets: "pkg.lib" and "Box.wrapped" name code, while the
    # span label "lib.labelled" only looks like a name
    demo = ("import lib\nlib.run()\nlib.Box().used()\n"
            "SPANS = [('pkg.lib', 'Box.wrapped', 'lib.labelled')]\n")
    test = ("import lib\nlib.tested()\nlib.kept()\nlib.Box().probe()\n"
            "lib.Box().labelled()\n")
    # a test naming a definition does not keep it
    found = unused_by_library({"lib": library}, [library, demo])
    assert found == ["lib.tested", "lib.kept", "lib.Box.probe",
                     "lib.Box.labelled"]
    assert unused_by_library({"lib": library}, [library, demo, test]) == []
    assert public_api_problems(found, {name: "why" for name in found}) == []
    assert public_api_problems(found, {"lib.kept": "why", "lib.run": "",
                                       "lib.Box.probe": "two\nlines",
                                       "lib.Box.labelled": "why"}) == [
        "lib.tested: only tests name it",
        "lib.run: listed, but the library names it",
        "lib.run: the reason must be one line",
        "lib.Box.probe: the reason must be one line"]


def test_library_names_every_definition_or_lists_it():
    modules = {path.stem: path.read_text() for path in package_files()}
    library = [path.read_text() for path in library_files()]
    assert public_api_problems(unused_by_library(modules, library),
                               PUBLIC_API) == []


# the tracer skips a target it cannot resolve, and its metric reads 0; these
# name code deleted on purpose
STALE_TARGETS = {("superhc.harish", "filtered_subspace"),
                 ("superhc.linalg", "solve_membership")}


def tracer_targets():
    """(module, attribute path) of each entry of TARGETS in
    perfbench/tracing.py, read with ast: the tracer is neither imported nor
    run."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(module, path)
                    for module, path, *_ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_tracer_targets_resolve():
    stale = set()
    for module, path in tracer_targets():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            stale.add((module, path))
    assert stale == STALE_TARGETS
