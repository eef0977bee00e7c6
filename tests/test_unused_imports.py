"""Every name a module imports is used in that module: the package's, the
tests' and the repo-root ``conftest.py``. And every top-level function and
class of the package is used by the package, or is one of its re-exports.

``__init__.py`` is left out of the import check: the names it imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mctg"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(ROOT.glob("tests/*.py")) + [ROOT / "conftest.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_the_sources():
    assert len(SOURCES) >= 8
    assert len(TESTS) >= 12


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nloads('1')\n"
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: d"]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in SOURCES]
                         + [pytest.param(p, id=str(p.relative_to(ROOT))) for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module.name`` of each top-level function and class in ``sources``
    (module name -> text) that no code there names, as a name or an
    attribute, outside the definition itself, unless ``exported`` holds it."""
    statements = [(module, node) for module, text in sources.items()
                  for node in ast.parse(text).body]
    named = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))} for _, node in statements]
    unused = []
    for i, (module, node) in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
                and not any(node.name in names for j, names in enumerate(named) if j != i)):
            unused.append(f"{module}.{node.name}")
    return unused


def test_the_check_finds_an_unreferenced_definition():
    sources = {"a": "def used(): pass\ndef recursive(): recursive()\nclass Exported: pass\n"
                    "class Unused: pass\n",
               "b": "from a import used\nimport a\nused()\na.recursive\n",
               "c": "def alone(): return alone\n"}
    assert unreferenced_definitions(sources, {"Exported"}) == ["a.Unused", "c.alone"]


def test_every_definition_is_referenced():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreferenced_definitions(sources, exported) == []
