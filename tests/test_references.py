"""Every function, class, method and module constant of the package is used by the program.

A helper or constant that only tests read is dead weight in the program;
this check finds one by name. A definition counts as used when its name is
read under ``src/marginfit`` or ``scripts/``: as a loaded ``Name``, as the
attribute of an ``Attribute`` or in an import. A module constant is a name
in UPPER_CASE assigned at a module's top level. Dunder names are called by
Python itself.
"""

import ast
from pathlib import Path

import marginfit

PACKAGE = Path(marginfit.__file__).resolve().parent
SCRIPTS = PACKAGE.parents[1] / "scripts"


def parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def definitions(tree):
    """(line, name) of every function, class and method, and of every module constant."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        yield node.lineno, name.id


def test_every_definition_is_referenced():
    package = parse(sorted(PACKAGE.glob("*.py")))
    program = {**package, **parse(sorted(SCRIPTS.glob("*.py")))}
    used = set()
    for tree in program.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    unused = sorted(
        f"{path.name}:{line} {name}"
        for path, tree in package.items()
        for line, name in definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    )
    assert unused == []
