"""Every public function and class of the package is used by the package or named by the acceptance suite.

A public module-level name that only the unit tests call is a second entry beside the code doing its job;
the tests that need such a helper keep it in `conftest.py` instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "poprank").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _uses(node: ast.AST) -> set[str]:
    """Every name that `node` reads, as a bare name, an attribute or an imported name."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def unreferenced(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` of each public top-level def or class of `sources` named nowhere outside its own definition.

    `sources` maps module names to their text; `readers` are the texts of other files whose names count too.
    """
    statements = [(module, node) for module, text in sources.items() for node in ast.parse(text).body]
    uses = [_uses(node) for _, node in statements]
    outside = set().union(*(_uses(ast.parse(text)) for text in readers))
    return [f"{module}.{node.name}" for i, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and node.name not in outside and not any(node.name in u for j, u in enumerate(uses) if j != i)]


def test_every_public_name_is_used_by_the_package_or_the_acceptance_suite():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced(sources, [ACCEPTANCE.read_text(encoding="utf-8")]) == []


@pytest.mark.parametrize("sources, readers, expected", [
    ({"m": "def a():\n    return a()\n\ndef b():\n    pass\n\nb()\n"}, [], ["m.a"]),
    ({"m": "class A:\n    pass\n\ndef _b():\n    pass\n"}, [], ["m.A"]),
    ({"m": "def a():\n    pass\n", "n": "from .m import a\n"}, [], []),
    ({"m": "def a():\n    pass\n", "n": "from . import m\nm.a()\n"}, [], []),
    ({"m": "def a():\n    pass\n"}, ["from poprank.m import a\n"], []),
])
def test_unreferenced_names_are_found(sources, readers, expected):
    assert unreferenced(sources, readers) == expected
