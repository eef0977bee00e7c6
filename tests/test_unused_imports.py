"""Every name a module imports is used in that module: the package's, the
tests' and the repo-root ``conftest.py``.

``__init__.py`` is left out: the names it imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "mctg").glob("*.py") if p.name != "__init__.py")
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
