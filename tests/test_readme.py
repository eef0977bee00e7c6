"""Every call README.md names is code that exists: a backticked span that
starts with ``name(`` names a function, class or method of the package or of
``tests/helpers.py``, by the last component of its dotted name. Calls of
numpy (``np.``) and of a numpy generator (``rng.``) are left out."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINING = sorted((ROOT / "src" / "mctg").glob("*.py")) + [ROOT / "tests" / "helpers.py"]
FOREIGN = ("np.", "rng.")


def named_calls(markdown: str) -> list[str]:
    """The dotted name at the start of each inline code span that is a call,
    outside fenced blocks, in order."""
    prose = re.sub(r"```.*?```", "", markdown, flags=re.S)
    return [m.group(1) for span in re.findall(r"`([^`]*)`", prose)
            if (m := re.match(r"([A-Za-z_][\w./]*)\(", span))
            and not m.group(1).startswith(FOREIGN)]


def defined_names(sources: list[str]) -> set[str]:
    return {node.name for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def undefined_calls(markdown: str, sources: list[str]) -> list[str]:
    defined = defined_names(sources)
    return [name for name in named_calls(markdown) if name.split(".")[-1] not in defined]


def test_the_check_finds_a_call_of_nothing():
    source = "def f(): pass\nclass C:\n    def m(self): pass\n"
    markdown = ("`f(x)`, `C(1)` and `mod.C.m(y,\nz)`; `gone(a)`, `C.gone()`;\n"
                "`np.zeros(3)`, `rng.normal(0, 1)`, `f` and `x = f(1)` are not checked\n"
                "```sh\nmissing(1)\n`missing(2)`\n```\n")
    assert named_calls(markdown) == ["f", "C", "mod.C.m", "gone", "C.gone"]
    assert undefined_calls(markdown, [source]) == ["gone", "C.gone"]


def test_readme_names_only_calls_that_exist():
    readme = (ROOT / "README.md").read_text()
    assert len(named_calls(readme)) >= 10
    assert undefined_calls(readme, [p.read_text() for p in DEFINING]) == []
