"""Every third-party package a module of ``mctg`` imports is declared in
``[project].dependencies``, so an install from ``pyproject.toml`` can run it."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mctg").glob("*.py"))


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports that are neither the standard
    library nor ``mctg``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "mctg"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_the_check_finds_third_party_imports():
    source = ("import os.path\nimport numpy as np\nfrom scipy import optimize\n"
              "from . import garch\nfrom mctg.nn import forward\n")
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_numpy_is_the_only_dependency():
    assert declared_dependencies() == {"numpy"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_third_party_imports_are_declared(path):
    assert third_party_imports(path.read_text()) <= declared_dependencies()
