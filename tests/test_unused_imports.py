"""No module of the package or of its tests imports a name it never uses, and
no module of the package keeps a function or class that no module reads.

``__init__.py`` is left out of the import check and of the public-definition
check: its imports are the package's public names, not reads.  A public
function or class no other module reads is allowed only as a traced entry
point of the benchmark (``TARGETS`` in ``perfbench/tracer.py``) or on the
short list ``API``.
"""

import ast
from pathlib import Path

import pytest

import flipforge
from test_bench_contract import load_tracer

PACKAGE = Path(flipforge.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))
# file and flip-graph API that no command reads
API = {"flips.neighbors", "io.read_triangulation", "io.write_triangulation", "io.read_jsonl"}


def unused_imports(source):
    """The names ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def unread_definitions(sources, private=True):
    """``module.name`` for each private (or public) module-level function or class
    no source reads.

    ``module.name`` is read where ``name`` is loaded in ``module`` itself,
    imported by ``from .module import name``, or taken as an attribute of a
    name bound to ``module``: by ``from . import module`` or by cli's
    ``_lazy("module")``.  So ``np.mean`` reads no ``mean`` of the package.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for module, tree in trees.items():
        bound = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
                else:
                    read.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign):
                targets, values = node.targets[0], node.value
                if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple):
                    pairs = zip(targets.elts, values.elts)
                else:
                    pairs = [(targets, values)]
                bound.update(
                    (target.id, value.args[0].value)
                    for target, value in pairs
                    if isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "_lazy"
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in bound:
                    read.add((bound[node.value.id], node.attr))
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not node.name.endswith("__")
        and (module, node.name) not in read
    )


def package_sources():
    return {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}


def test_the_check_sees_unused_and_used_names():
    source = "import math\nimport os.path\nfrom x import a, b as c\nos.path.join(c)\n"
    assert unused_imports(source) == ["a", "math"]


def test_the_check_sees_unread_and_read_private_definitions():
    sources = {
        "a": "def _called(): pass\nclass _Unused: pass\ndef __getattr__(name): pass\n"
        "def public(): _called()\n",
        "b": "from .c import _imported\nfrom . import c\nc._attribute\n",
        "c": "def _imported(): pass\ndef _attribute(): pass\ndef _unread(): pass\n",
    }
    assert unread_definitions(sources) == ["a._Unused", "c._unread"]


def test_the_check_sees_unread_and_read_public_definitions():
    sources = {
        "a": "def called(): pass\nclass Unread: pass\ndef _private(): pass\n",
        "b": "from .a import called\n",
        # an attribute of the same name on another module reads nothing here
        "stats": "def mean(): pass\ndef median(): pass\ndef mode(): pass\n"
        "def spread(): pass\ndef own(): pass\nown()\n",
        "report": "import numpy as np\nfrom . import stats as s\nnp.mean([1])\ns.median()\n",
        "cli": "summary, stats = _lazy('summary'), _lazy('stats')\nstats.mode()\n"
        "x = _lazy('stats')\nx.spread()\n",
    }
    assert unread_definitions(sources, private=False) == ["a.Unread", "stats.mean"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_name_it_imports(module):
    assert unused_imports((TESTS / module).read_text()) == []


def test_every_private_definition_is_read_by_the_package():
    assert unread_definitions(package_sources()) == []


def test_every_public_definition_is_read_by_the_package_or_the_benchmark():
    targets = load_tracer().TARGETS
    traced = {f"{module}.{name}" for module, names in targets.items() for name in names}
    sources = package_sources()
    del sources["__init__"]  # its imports are exports, and its definitions package API
    unread = set(unread_definitions(sources, private=False))
    assert API <= unread  # an entry read by the package leaves the list
    assert sorted(unread - traced - API) == []
