"""The package's source keeps to the oldest Python that pyproject.toml allows (requires-python >=3.10)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "poprank").glob("*.py"))
FLOOR = (3, 10)
# names that later Pythons added, as (module, name): the name None stands for the module itself
LATER_NAMES = {("hashlib", "file_digest"), ("tomllib", None), ("typing", "Self"),
               ("builtins", "ExceptionGroup"), ("builtins", "BaseExceptionGroup")}


def later_names(source: str) -> list[str]:
    """The names of `LATER_NAMES` that `source` imports or reads; its syntax must parse as Python `FLOOR`."""
    found = []
    for node in ast.walk(ast.parse(source, feature_version=FLOOR)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if (alias.name, None) in LATER_NAMES]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if {(node.module, None), (node.module, alias.name)} & LATER_NAMES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found += [f"{node.value.id}.{node.attr}"] if (node.value.id, node.attr) in LATER_NAMES else []
        elif isinstance(node, ast.Name) and ("builtins", node.id) in LATER_NAMES:
            found.append(node.id)
    return found


def test_pyproject_declares_the_floor():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared and tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_source_parses_and_runs_at_the_floor(path):
    assert later_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, name", [
    ("import hashlib\nhashlib.file_digest(f, 'sha256')\n", "hashlib.file_digest"),
    ("from hashlib import file_digest\n", "hashlib.file_digest"),
    ("import tomllib\n", "tomllib"),
    ("from tomllib import loads\n", "tomllib.loads"),
    ("from typing import Self\n", "typing.Self"),
    ("import typing\nx: typing.Self\n", "typing.Self"),
    ("raise ExceptionGroup('m', [])\n", "ExceptionGroup"),
])
def test_later_names_are_found(source, name):
    assert later_names(source) == [name]


def test_later_syntax_is_refused():
    with pytest.raises(SyntaxError):
        later_names("try:\n    pass\nexcept* ValueError:\n    pass\n")
