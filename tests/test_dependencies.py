"""The package's runtime dependencies are the standard library and numpy.

Other packages may be installed where the tests run, so an import of one
would pass every other test; this reads the imports from the source."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfelslam"
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
