"""The package runs on the Python standard library alone.

Every absolute import in src/projstab, at any depth (inside functions and
try blocks too), must name a top-level module of the standard library.
Relative imports stay inside the package.  sympy, hypothesis and pytest are
test extras (pyproject.toml); a runtime import of one of them fails here.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "projstab"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [f"{path.name}: import {name}"
               for path in sources for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
