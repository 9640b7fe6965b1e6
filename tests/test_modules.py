"""The package's modules: what ``__all__`` lists exists, and no import goes unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import labelgames

LISTING = sorted(
    info.name
    for info in pkgutil.iter_modules(labelgames.__path__)
    if hasattr(importlib.import_module(f"labelgames.{info.name}"), "__all__")
)


def test_the_listing_modules_are_found():
    assert {"combine", "game", "labels"} <= set(LISTING)


@pytest.mark.parametrize("name", LISTING)
def test_star_import_finds_every_listed_name(name):
    # A star import raises AttributeError on a listed name that is gone.
    namespace = {}
    exec(f"from labelgames.{name} import *", namespace)
    assert set(importlib.import_module(f"labelgames.{name}").__all__) <= namespace.keys()


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "labelgames").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """Each name ``path`` imports and never reads, unless its line says ``# noqa: F401``.

    A name is read where it appears as a name (``np`` in ``np.zeros``)
    or as a string in ``__all__``.
    """
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in read]


def test_the_sources_are_found():
    assert {"experiment.py", "cli.py", "test_modules.py", "conftest.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []
