"""The package's runtime dependencies are the standard library and numpy,
and every module-level function and class of the package, and every method
of its classes, has a reader.

Other packages may be installed where the tests run, so an import of one
would pass every other test; this reads the imports from the source.  Code
that only the tests read would pass every test as well; this reads the
references from the package's modules and the benchmark's.  The oracles and
generators of ``simulation/`` exist for the tests, so they read but are not
checked.  A reader is matched by name only, so a method whose name another
reader also uses for something else (``add``, ``replace``, ``zeros``) still
passes; dunder methods are called by the language and are not checked."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surfelslam"
PERFBENCH = ROOT / "perfbench"
ALLOWED = {"numpy", "surfelslam"}


def outside_imports(source, filename="<source>"):
    """``(line, module)`` of each absolute import of a module outside the
    standard library and ``ALLOWED``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED:
                found.append((node.lineno, name))
    return found


def test_outside_imports_flags_third_party_modules():
    source = (
        "import math, numpy as np\n"
        "from . import lie\n"
        "from .errors import InvalidArgumentError\n"
        "from numpy.linalg import eigh\n"
        "import scipy.linalg\n"
        "def f():\n"
        "    from scipy.spatial import cKDTree\n"
    )
    assert outside_imports(source) == [(5, "scipy.linalg"), (7, "scipy.spatial")]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for path in modules
        for line, name in outside_imports(path.read_text(), str(path))
    ]
    assert found == []


def _names(node, skip=None):
    """Names that ``node`` reads, imports or takes as an attribute, outside
    the subtree ``skip``."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definitions(tree):
    """``(name, node)`` of each module-level function and class of ``tree``,
    and ``("Class.method", node)`` of each non-dunder method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unreferenced(checked, readers):
    """``(module, name)`` of each definition of the ``checked`` modules (see
    :func:`_definitions`) that no other module of ``readers`` names, and its
    own module names only inside its definition.  Both map module labels to
    parsed trees; a string, a docstring too, names nothing."""
    found = []
    for label, tree in checked.items():
        elsewhere = set().union(*(_names(t) for other, t in readers.items() if other != label))
        for name, node in _definitions(tree):
            if node.name not in elsewhere and node.name not in _names(tree, skip=node):
                found.append((label, name))
    return found


def test_unreferenced_flags_what_only_its_own_definition_names():
    readers = {
        "a": ast.parse(
            "def f():\n"
            "    \"\"\"Not g().\"\"\"\n"
            "    return f()\n"
            "def g():\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.used()\n"
            "    def used(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        return self.unused()\n"
            "    def elsewhere(self):\n"
            "        pass\n"
            "def _h(c: C):\n"
            "    pass\n"
        ),
        "b": ast.parse("import a\nfrom a import _h\na.g()\nx.elsewhere\n"),
    }
    assert unreferenced({"a": readers["a"]}, readers) == [("a", "f"), ("a", "C.unused")]


def test_every_module_level_function_and_class_has_a_reader():
    package = {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    bench = {
        f"perfbench/{path.name}": ast.parse(path.read_text(), str(path))
        for path in sorted(PERFBENCH.glob("*.py"))
    }
    assert bench
    checked = {k: tree for k, tree in package.items() if not k.startswith("simulation/")}
    # The dense Jacobian is the tests' reference for the banded normal
    # equations that the optimizer builds.
    exempt = [("local_mapping.py", "_WindowSystem.jacobian")]
    assert unreferenced(checked, {**package, **bench}) == exempt
