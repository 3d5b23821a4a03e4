"""Every function and method in the package has a caller in the package.

A name counts as used when it is referenced (as a name, an attribute or an
import) somewhere in src/projstab outside its own body.  References in
__init__.py are re-exports, not calls, and do not count; nor do docstrings
and comments.  Dunder methods are called by the language and are skipped.
A public function that only a caller outside the package needs is on
ALLOWED, which names that caller.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "projstab"

# Public names whose callers live outside src/projstab, with those callers.
# The criteria are those of tests/test_acceptance.py.
ALLOWED = {
    "verify_preimage": "criterion 7 and the decompose-tri benchmark workload",
    "make_linear_change": "TestMacaulay::test_group_action_oracle",
    "apply_linear_change": "TestMacaulay::test_group_action_oracle",
    "evaluate": "TestChartScanOracle",
    "iterate": "criterion 8",
    "sylvester_resultant": "criterion 5",
    "is_indeterminate": "criteria 5 and 6",
    "weights_of": "criterion 4",
}


def _references(node: ast.AST) -> list[str]:
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.extend(alias.name for alias in sub.names)
    return names


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _functions(tree: ast.AST) -> list[ast.FunctionDef]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _unused_functions() -> list[str]:
    trees = _trees()
    counts = Counter(name for module, tree in trees.items()
                     if module != "__init__.py"
                     for name in _references(tree))
    unused = []
    for module, tree in trees.items():
        for node in _functions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = _references(node).count(name)  # recursive calls
            if counts[name] == own and name not in ALLOWED:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def test_every_function_has_a_caller():
    assert _unused_functions() == []


def test_allowlist_names_exist():
    defined = {node.name for tree in _trees().values()
               for node in _functions(tree)}
    assert set(ALLOWED) <= defined
