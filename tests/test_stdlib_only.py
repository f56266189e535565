"""The package imports nothing outside the standard library, and starting
its command line imports none of the heavy introspection modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import polywalk

SOURCES = sorted(Path(polywalk.__file__).parent.glob("*.py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    assert SOURCES
    outside = [(path.name, name)
               for path in SOURCES
               for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_importing_the_cli_leaves_dataclasses_and_inspect_unloaded():
    # -S: no site hooks, so only the package's own imports are counted
    code = ("import sys, polywalk.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(polywalk.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"
