"""Every imported name is used: a guard over ``src/``, ``tests/`` and
``demos/`` that reads the source with the standard library's ``ast`` only.

A name counts as used when the module loads it anywhere (an attribute
chain such as ``smoa.cli.main`` uses ``smoa``) or lists it in its
``__all__``. A package's ``__init__.py`` imports from its own modules to
re-export, so its relative imports count as used.

A second guard reads ``src/smoa`` alone: every top-level private function or
class (one ``_`` prefix) is read by some module of the package, so a helper
whose last caller went away is deleted with it."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))


def imported_names(tree: ast.Module, package_init: bool) -> dict[str, int]:
    """Each name an import statement binds, with its line, less the
    re-exports of a package's ``__init__.py``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" \
                and not (package_init and node.level):
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str, package_init: bool = False) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree, package_init).items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py") == []


def test_guard_flags_an_unused_import_and_honours_all():
    source = ("import os\nimport smoa.cli\nfrom json import dumps, loads as parse\n"
              "__all__ = ['dumps']\nsmoa.cli.main(parse('[]'))\n")
    assert unused_imports(source) == ["line 1: os"]


def test_guard_reads_relative_imports_in_a_package_init_as_re_exports():
    source = "import os\nfrom .cli import main\n"
    assert unused_imports(source, package_init=True) == ["line 1: os"]
    assert unused_imports(source) == ["line 1: os", "line 2: main"]


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Each top-level ``_private`` def or class in ``sources`` (module name to
    source) that no module loads, imports or reads as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_every_private_helper_is_read():
    package = ROOT / "src" / "smoa"
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert unread_privates(sources) == []


def test_private_guard_flags_a_helper_no_module_reads():
    sources = {"a": "def _left():\n    pass\ndef _kept():\n    pass\nclass _Local:\n    pass\n"
                    "_Local()\n",
               "b": "from .a import _kept\n"}
    assert unread_privates(sources) == ["a: _left"]
