"""No module of the package or of its tests imports a name it never uses, and
no module of the package keeps a private function or class that no module
reads.

``__init__.py`` is left out of the import check: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

import flipforge

PACKAGE = Path(flipforge.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


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


def unread_private_definitions(sources):
    """``module.name`` for each private module-level function or class no source reads.

    A name is read where it is loaded, taken as an attribute or imported.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in read
    )


def test_the_check_sees_unused_and_used_names():
    source = "import math\nimport os.path\nfrom x import a, b as c\nos.path.join(c)\n"
    assert unused_imports(source) == ["a", "math"]


def test_the_check_sees_unread_and_read_private_definitions():
    sources = {
        "a": "def _called(): pass\nclass _Unused: pass\ndef __getattr__(name): pass\n"
        "def public(): _called()\n",
        "b": "from .a import _imported\nimport a\na._attribute\n",
        "c": "def _imported(): pass\ndef _attribute(): pass\ndef _unread(): pass\n",
    }
    assert unread_private_definitions(sources) == ["a._Unused", "c._unread"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_name_it_imports(module):
    assert unused_imports((TESTS / module).read_text()) == []


def test_every_private_definition_is_read_by_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_definitions(sources) == []
