"""Only `poly` builds the stored pair: no other module reaches its private names."""

import ast
from pathlib import Path

import polywalk

SOURCES = sorted(path for path in Path(polywalk.__file__).parent.glob("*.py")
                 if path.name != "poly.py")
POLY_CLASSES = {"MPoly", "PolyVector"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("poly", "polywalk.poly"):
            yield from (f"import {alias.name}" for alias in node.names if _private(alias.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in POLY_CLASSES and _private(node.attr)):
            yield f"{node.value.id}.{node.attr} at line {node.lineno}"


def test_no_module_outside_poly_uses_its_private_names():
    assert SOURCES
    uses = [(path.name, use)
            for path in SOURCES
            for use in _private_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == []
