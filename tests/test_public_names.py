"""Every public module-level function and class of `oligolab` has a caller
that is not a unit test.

A caller is other code under `src/oligolab/`, the benchmark under `bench/`,
or `tests/test_acceptance.py`, which uses the library as its users do. A
name that only unit tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    """The names a node reads, the attributes it reads and the names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _acceptance_names(tree: ast.Module) -> set[str]:
    """The oligolab names a test module imports or reads off an oligolab module it imports."""
    names, modules = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "oligolab":
            modules |= {alias.asname or alias.name for alias in n.names}
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("oligolab."):
            names |= {alias.name for alias in n.names}
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            names.add(n.attr)
    return names


def names_only_tests_call(root: Path) -> list[str]:
    """`module.name` for each public module-level function or class under
    root/src/oligolab that nothing outside the unit tests refers to."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src/oligolab").glob("*.py"))}
    bench = set()
    for path in (root / "bench").rglob("*.py"):
        bench |= set(re.findall(r"\w+", path.read_text()))
    acceptance = _acceptance_names(ast.parse((root / "tests/test_acceptance.py").read_text()))
    callers = bench | acceptance
    # every top-level statement's names, so that a definition's own body is not its caller
    statements = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            if node.name in callers:
                continue
            if not any(node.name in names for stmt, names in statements if stmt is not node):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    assert names_only_tests_call(ROOT) == []
