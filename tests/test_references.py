"""Every function, class and method of the package is used by the program.

A helper that only tests call is dead weight in the program; this check
finds one by name. A definition counts as used when its name appears under
``src/marginfit`` or ``scripts/`` as a ``Name``, as the attribute of an
``Attribute`` or in an import. Dunder names are called by Python itself.
"""

import ast
from pathlib import Path

import marginfit

PACKAGE = Path(marginfit.__file__).resolve().parent
SCRIPTS = PACKAGE.parents[1] / "scripts"


def parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_every_definition_is_referenced():
    package = parse(sorted(PACKAGE.glob("*.py")))
    program = {**package, **parse(sorted(SCRIPTS.glob("*.py")))}
    used = set()
    for tree in program.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in package.items()
        for node in ast.walk(tree)
        if isinstance(node, defs)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert unused == []
