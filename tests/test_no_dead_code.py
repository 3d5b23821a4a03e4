"""Every function and member in the package has a reader in the package.

A function counts as used when its name is referenced (as a name, an
attribute or an import) somewhere in src/projstab outside its own body.  A
bare name does not count inside a function that binds it as a parameter or
an assigned local (loop and comprehension targets included), since there it
names the local, not the function.

A member of a class (a dataclass field, a property or a method) counts as
used only through an attribute reference x.name outside its own body: a
bare name or an import cannot reach it.

References in __init__.py are re-exports, not calls, and do not count; nor
do docstrings and comments.  Dunder methods are called by the language and
are skipped.  A public name that only a caller outside the package needs
is on ALLOWED, which names that caller; each such name must occur in a
Python file under tests/ or bench/ other than this one, so an entry whose
outside caller is gone fails the gate.

The gate still matches by name, so a member escapes it while another one
of the same name is read (HomogeneousPoly and ProjectiveMap both had a
num_vars).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "projstab"

# Public names whose callers live outside src/projstab, with those callers.
# The criteria are those of tests/test_acceptance.py.
ALLOWED = {
    "verify_preimage": "criterion 7 and the decompose-tri benchmark workload",
    "splitting_types_all_blocks": "the decompose-tri benchmark workload and "
                                  "TestDecomposeFully",
    "apply_linear_change": "TestMacaulay::test_group_action_oracle",
    "evaluate": "TestChartScanOracle",
    "iterate": "criterion 8",
    "sylvester_resultant": "criterion 5",
    # run_verification_suite reads its box once and builds from that, so
    # the box generators' callers are outside the package.
    "count_candidates": "criteria 2 and 3",
    "enumerate_maps": "criteria 1 to 3",
    "sample_maps": "criteria 2 and 3",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)


def _bound(func: ast.AST) -> set[str]:
    """Parameters and assigned names of one function, not of nested scopes."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(tree: ast.AST) -> list[tuple[str, bool, tuple]]:
    """(name, through an attribute, enclosing definitions) of each reference."""
    refs = []

    def visit(node, owners, bound):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound:
                refs.append((node.id, False, owners))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, owners))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, False, owners) for alias in node.names)
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            bound = bound | _bound(node)
        if isinstance(node, _FUNCTIONS + (ast.AnnAssign,)):
            owners = owners + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, owners, bound)

    visit(tree, (), frozenset())
    return refs


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass")
               for d in cls.decorator_list)


def _definitions(tree: ast.AST) -> list[tuple[str, ast.AST, bool]]:
    """(name, node, is a member) of every function, method, property and
    dataclass field."""
    members = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, _FUNCTIONS):
                    members[node] = node.name
                elif (isinstance(node, ast.AnnAssign) and _is_dataclass(cls)
                        and isinstance(node.target, ast.Name)):
                    members[node] = node.target.id
    functions = [(node.name, node, False) for node in ast.walk(tree)
                 if isinstance(node, _FUNCTIONS) and node not in members]
    return functions + [(name, node, True) for node, name in members.items()]


def _unused(sources: dict[str, str]) -> list[str]:
    """Definitions in sources (module name -> text) that nothing references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [ref for module, tree in trees.items() if module != "__init__.py"
            for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, node, member in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in ALLOWED:
                continue
            if not any(ref == name and (attr or not member)
                       and node not in owners
                       for ref, attr, owners in refs):
                kind = "member" if member else "function"
                unused.append(f"{module}:{node.lineno} {kind} {name}")
    return unused


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_function_has_a_caller():
    assert _unused(_package_sources()) == []


def test_allowlist_names_exist():
    defined = {name for text in _package_sources().values()
               for name, _, _ in _definitions(ast.parse(text))}
    assert set(ALLOWED) <= defined


def _without_outside_caller(names) -> list[str]:
    """The names that occur in no Python file under tests/ or bench/ but
    this one."""
    texts = [path.read_text(encoding="utf-8")
             for folder in ("tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.resolve() != Path(__file__).resolve()]
    return [name for name in names
            if not any(re.search(rf"\b{name}\b", text) for text in texts)]


def test_allowlist_names_have_an_outside_caller():
    assert _without_outside_caller(ALLOWED) == []
    # Named only here, as an entry whose caller was deleted would be.
    assert _without_outside_caller(["gone_outside_caller"]) == [
        "gone_outside_caller"]


_GATE_CASES = {
    "local-shadows-function": (
        "def coeff():\n    return 1\n"
        "def g(xs):\n    return [coeff for coeff in xs]\n",
        ["m.py:1 function coeff"]),
    "parameter-shadows-function": (
        "def coeff():\n    return 1\n"
        "def g(coeff):\n    return coeff\n",
        ["m.py:1 function coeff"]),
    "loop-target-shadows-function": (
        "def coeff():\n    return 1\n"
        "def g(xs):\n    for coeff in xs:\n        print(coeff)\n",
        ["m.py:1 function coeff"]),
    "closure-reads-outer-local": (
        "def coeff():\n    return 1\n"
        "def g():\n    coeff = 2\n    return lambda: coeff\n",
        ["m.py:1 function coeff"]),
    "global-call-counts": (
        "def coeff():\n    return 1\n"
        "def g(xs):\n    return coeff() + len(xs)\n",
        []),
    "recursion-only": (
        "def coeff(k):\n    return coeff(k - 1)\n",
        ["m.py:1 function coeff"]),
    "field-read-by-attribute": (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass P:\n    note: str\n"
        "def g(p):\n    return p.note\n",
        []),
    "field-named-only-bare": (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass P:\n    note: str\n"
        "def g(note):\n    return note\n"
        "note = 1\nprint(note)\n",
        ["m.py:4 member note"]),
    "method-called-only-by-itself": (
        "class P:\n    def coeff(self, k):\n        return self.coeff(k)\n",
        ["m.py:2 member coeff"]),
    "property-read-in-init-only": (
        "class P:\n    @property\n    def note(self):\n        return 1\n",
        ["m.py:3 member note"]),
}


@pytest.mark.parametrize("source, expected", list(_GATE_CASES.values()),
                         ids=list(_GATE_CASES))
def test_gate_sees_scopes_and_members(source, expected):
    # The helper g has no caller in these snippets; only coeff and note are
    # under test.
    unused = _unused({"m.py": source,
                      "__init__.py": "from .m import coeff, note\np.note\n"})
    assert [u for u in unused if not u.endswith(" g")] == expected
