"""The package's runtime dependencies are the standard library and numpy,
and every module-level function, class, assigned name and import of the
package, and every method of its classes, has a reader.

Other packages may be installed where the tests run, so an import of one
would pass every other test; this reads the imports from the source.  Code
that only the tests read would pass every test as well; this reads the
references from the package's modules and the benchmark's.  The oracles and
generators of ``simulation/`` exist for the tests and the tools, so their
definitions count the tests and the tools as readers as well.  A reader is
matched by name.  A method counts as read only where a reader takes it as
an attribute of something other than a module, so neither a bare or
imported name (``from dataclasses import replace``) nor an attribute of a
module (``add`` in ``np.add.at``) reads a method of that name; an attribute
of another object of the same name (``x.zeros``) still does.  Dunder names and methods are read by the language and are not
checked, nor is ``from __future__``.  Likewise every field of a package
dataclass whose fields all have defaults (a config or a container such as
``GlobalMaps``) is read as an attribute somewhere in the package or the
benchmark, so no option is accepted and then ignored.  And every field of
such a config is passed by name, as a keyword argument or a string dict key,
somewhere in the package, the benchmark or the tools, so a value that only
the tests set is a module constant, which a test can patch, not a
setting; a config of ``simulation/`` counts the tests as callers too, and a
value that no caller sets is a module constant of its generator."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surfelslam"
PERFBENCH = ROOT / "perfbench"
CALLERS = [ROOT / "tools", ROOT / "tests"]
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


def _modules(tree, stems):
    """Names that ``tree`` binds to modules: each name an ``import``
    statement binds, and each name in ``stems`` that a ``from`` import takes
    (``from . import lie``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.asname or alias.name for alias in node.names if alias.name in stems}
    return found


def _names(node, modules, skip=None):
    """Names that ``node`` reads, imports or takes as an attribute, and the
    attributes it takes of anything but a name in ``modules``, outside the
    subtree ``skip``."""
    found, attributes, stack = set(), set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found, attributes


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """``(name, node)`` of each module-level function, class, assigned
    non-dunder name and imported name of ``tree`` (not ``from __future__``),
    and ``("Class.method", node)`` of each non-dunder method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, node
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not _dunder(member.name):
                    yield f"{node.name}.{member.name}", member


def unreferenced(checked, readers):
    """``(module, name)`` of each definition of the ``checked`` modules (see
    :func:`_definitions`) that no other module of ``readers`` names, and its
    own module names only inside its definition.  Both map module labels to
    parsed trees; a string, a docstring too, names nothing.  A method is
    named only as an attribute of something other than a module (see
    :func:`_modules`; the module names are the stems of the labels)."""
    stems = {Path(label).stem for label in readers}
    modules = {label: _modules(tree, stems) for label, tree in readers.items()}
    read = {label: _names(tree, modules[label]) for label, tree in readers.items()}
    found = []
    for label, tree in checked.items():
        names, attributes = (
            set().union(*kind) for kind in zip(*(read[o] for o in readers if o != label))
        )
        for name, node in _definitions(tree):
            own_names, own_attributes = _names(tree, modules[label], skip=node)
            read_as = attributes | own_attributes if "." in name else names | own_names
            if name.rpartition(".")[2] not in read_as:
                found.append((label, name))
    return found


def test_unreferenced_flags_what_only_its_own_definition_names():
    readers = {
        "a": ast.parse(
            "from __future__ import annotations\n"
            "import itertools\n"
            "import numpy as np\n"
            "import os.path\n"
            "from math import pi as PI\n"
            "__version__ = '1'\n"
            "TABLE = np.zeros(3)\n"
            "USED, SPARE = 1, 2\n"
            "ANNOTATED: int = USED + os.sep\n"
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
            "    def made(self):\n"
            "        pass\n"
            "    def add(self):\n"
            "        pass\n"
            "    def replace(self):\n"
            "        pass\n"
            "def _h(c: C):\n"
            "    pass\n"
        ),
        "b": ast.parse(
            "import a\n"
            "import numpy as np\n"
            "from a import _h, C\n"
            "from dataclasses import replace\n"
            "a.g()\n"
            "x.elsewhere\n"
            "C.made()\n"
            "np.add.at(x, 0, 1)\n"
            "replace(x)\n"
        ),
    }
    assert unreferenced({"a": readers["a"]}, readers) == [
        ("a", "itertools"), ("a", "PI"), ("a", "TABLE"), ("a", "SPARE"), ("a", "ANNOTATED"),
        ("a", "f"), ("a", "C.unused"), ("a", "C.add"), ("a", "C.replace"),
    ]


def _sources():
    """Parsed modules of the package and of the benchmark, by label."""
    package = {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    bench = {
        f"perfbench/{path.name}": ast.parse(path.read_text(), str(path))
        for path in sorted(PERFBENCH.glob("*.py"))
    }
    assert bench
    return package, bench


def _callers(folders=CALLERS):
    """Parsed modules of ``folders``, the tools and the tests by default, by
    label."""
    return {
        f"{folder.name}/{path.name}": ast.parse(path.read_text(), str(path))
        for folder in folders for path in sorted(folder.glob("*.py"))
    }


def test_every_module_level_function_and_class_has_a_reader():
    package, bench = _sources()
    checked = {k: tree for k, tree in package.items() if not k.startswith("simulation/")}
    # The dense Jacobian is the tests' reference for the banded normal
    # equations that the optimizer builds.
    exempt = [("local_mapping.py", "_WindowSystem.jacobian")]
    assert unreferenced(checked, {**package, **bench}) == exempt


def test_every_simulation_function_and_class_has_a_reader():
    package, bench = _sources()
    checked = {k: tree for k, tree in package.items() if k.startswith("simulation/")}
    assert unreferenced(checked, {**package, **bench, **_callers()}) == []


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _config_fields(trees):
    """``(class, field)`` names of each field of a dataclass of ``trees``
    whose fields all have defaults."""
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))):
                continue
            fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
            if fields and all(f.value is not None for f in fields):
                yield from ((cls.name, f.target.id) for f in fields)


def unread_fields(checked, readers):
    """``Class.field`` of each field of a dataclass of the ``checked`` trees
    whose fields all have defaults, that no tree of ``readers`` reads as an
    attribute."""
    read = {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f"{cls}.{name}" for cls, name in _config_fields(checked) if name not in read]


def unset_fields(checked, callers):
    """``Class.field`` of each field of a dataclass of the ``checked`` trees
    whose fields all have defaults, that no tree of ``callers`` passes by
    name: as a keyword argument or a string key of a dict display."""
    named = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword):
                named.add(node.arg)
            elif isinstance(node, ast.Dict):
                named |= {k.value for k in node.keys if isinstance(k, ast.Constant)}
    return [f"{cls}.{name}" for cls, name in _config_fields(checked) if name not in named]


def test_unread_fields_flags_config_fields_without_an_attribute_read():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class Config:\n"
        "    used: int = 1\n"
        "    unread: float = 2.0\n"
        "    stored: int = 0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    spare: int = 0\n"
        "@dataclass\n"
        "class Value:\n"
        "    needed: int\n"
        "    optional: int = 0\n"
        "class Plain:\n"
        "    ignored: int = 0\n"
        "def f(cfg):\n"
        "    cfg.stored = cfg.used\n"
    )
    assert unread_fields([tree], [tree]) == ["Config.unread", "Config.stored", "Frozen.spare"]


def test_every_config_field_has_a_reader():
    package, bench = _sources()
    assert unread_fields(package.values(), [*package.values(), *bench.values()]) == []


def test_unset_fields_flags_config_fields_that_no_caller_passes():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Config:\n"
        "    keyword: int = 1\n"
        "    key: float = 2.0\n"
        "    fixed: int = 0\n"
        "    read: int = 0\n"
        "@dataclass\n"
        "class Value:\n"
        "    needed: int\n"
        "    optional: int = 0\n"
        "def f(cfg):\n"
        "    return Config(keyword=2, **{'key': 3.0}), cfg.read, 'fixed'\n"
    )
    assert unset_fields([tree], [tree]) == ["Config.fixed", "Config.read"]


def test_every_config_field_is_set_by_some_caller():
    package, bench = _sources()
    checked = [tree for k, tree in package.items() if not k.startswith("simulation/")]
    simulation = [tree for k, tree in package.items() if k.startswith("simulation/")]
    # The matching gates are settings that no caller sets yet: the benchmark
    # reads MatchParams, and ROADMAP item 7 ties theta_r to the surfel
    # radius.  The global maps are the state a run grows, not settings.
    exempt = ["MatchParams.resolution_threshold", "MatchParams.depth_threshold",
              "TemporalFusionConfig.match", "GlobalMaps.sparse", "GlobalMaps.dense"]
    callers = [*package.values(), *bench.values(), *_callers([ROOT / "tools"]).values()]
    assert unset_fields(checked, callers) == exempt
    # The simulation's configs exist for the tests and the tools, so the
    # tests count as their callers too.
    assert unset_fields(simulation, [*callers, *_callers([ROOT / "tests"]).values()]) == []


def log_formats(tree):
    """The format strings of the ``log.<level>(...)`` calls of ``tree``."""
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "log"
        and node.args and isinstance(node.args[0], ast.Constant)
    ]


def test_every_log_event_the_benchmark_counts_has_a_log_call():
    # The benchmark counts log records whose message holds a substring of
    # its LOG_EVENTS, read here from its source; a reworded message would
    # silently count zero events.
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    events = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets]
        == ["LOG_EVENTS"]
    )
    package, _ = _sources()
    formats = [f for tree in package.values() for f in log_formats(tree)]
    assert len(events) >= 3
    assert [e for e, needle in events.items() if not any(needle in f for f in formats)] == []
