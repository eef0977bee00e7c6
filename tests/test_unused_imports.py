"""Every name a module imports is used in that module: the package's, the
tests' and the repo-root ``conftest.py``. And every top-level function and
class of the package, and every method of its classes, is used by a module
of the package other than ``__init__.py``: a name used only by the tests
belongs in the tests, re-exported or not.

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


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class in ``sources``
    (module name -> text), and ``module.Class.name`` of each of its classes'
    non-dunder methods, that no code there uses outside the definition itself.

    Module ``m``'s ``f`` is used by a bare ``f`` in ``m``, by ``g`` in a module
    where ``from m import f as g`` binds it, or by ``.f`` on a name bound to
    module ``m``. A method ``f`` is used by ``.f`` on anything else."""
    defined = []                 # (name, node, the key of its uses)
    uses: dict[str, set] = {}    # key -> the nodes that use it
    for module, text in sources.items():
        tree = ast.parse(text)
        modules, imported = {}, {}   # bound name -> module, -> its "module.name"
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if isinstance(node, ast.Import) or node.module is None:
                        if alias.name in sources:
                            modules[bound] = alias.name
                    elif node.module in sources:
                        imported[bound] = f"{node.module}.{alias.name}"
        top = {}   # top-level name -> "module.name"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = f"{module}.{node.name}"
                defined.append((top[node.name], node, top[node.name]))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{top[node.name]}.{n.name}", n, f".{n.name}") for n in node.body
                            if isinstance(n, ast.FunctionDef) and not n.name.startswith("__")]
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Name):
                key = top.get(node.id) or imported.get(node.id)
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                key = f"{modules[base]}.{node.attr}" if base in modules else f".{node.attr}"
            if key:
                uses.setdefault(key, set()).add(node)
    return [name for name, node, key in defined
            if uses.get(key, set()) <= set(ast.walk(node))]


def test_the_check_finds_an_unreferenced_definition():
    sources = {"a": "def used(): pass\ndef recursive(): recursive()\nclass Exported: pass\n"
                    "class Unused: pass\ndef relative(): pass\n"
                    "class Kept:\n"
                    "    def __init__(self): pass\n"
                    "    def run(self): pass\n"
                    "    def tested(self): return self.tested\n",
               "b": "from a import used\nfrom .a import relative\nimport a\nused()\n"
                    "relative()\na.recursive\nk = a.Kept()\nk.run()\nk.shared\n"
                    "a.tested\na.shared\n",
               "c": "def alone(): return alone\ndef shared(): pass\n"}
    assert unreferenced_definitions(sources) == [
        "a.Exported", "a.Unused", "a.Kept.tested", "c.alone", "c.shared"]


def package_sources() -> dict[str, str]:
    """The package's modules by name, without ``__init__.py``."""
    return {p.stem: p.read_text() for p in SOURCES}


def test_every_definition_is_referenced():
    assert unreferenced_definitions(package_sources()) == []


def test_the_check_flags_a_re_export_no_module_uses():
    # __init__ re-exports what the package offers its callers; that alone
    # does not keep a definition in src
    sources = package_sources()
    sources["policy"] += (
        "\n\ndef sample_action(out, std, rng):\n"
        "    u = out.action_mean + std * rng.standard_normal(np.shape(out.action_mean))\n"
        "    action = np.minimum(np.maximum(u, -1.0), 1.0)\n"
        "    return action, u, gaussian_log_prob(u, out.action_mean, std)\n")
    init = (PACKAGE / "__init__.py").read_text().replace(
        "PolicyOutput\n", "PolicyOutput, sample_action\n")
    assert "sample_action" in init
    sources["__init__"] = init
    assert unreferenced_definitions(sources) == ["policy.sample_action"]


def test_the_check_flags_a_method_only_the_tests_call():
    sources = package_sources()
    anchor = "    def parameters(self)"
    assert anchor in sources["policy"]
    sources["policy"] = sources["policy"].replace(anchor, (
        "    def unflatten(self, vector):\n"
        "        return [vector[s].reshape(p.shape)\n"
        "                for s, p in zip(self.slices, self.parameters())]\n"
        "\n" + anchor))
    assert unreferenced_definitions(sources) == ["policy.Policy.unflatten"]
