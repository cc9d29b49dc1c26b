"""Static checks of the package source, read with the standard library's `ast`."""

import ast
import pathlib

import malaria_dde

SRC = pathlib.Path(malaria_dde.__file__).parent


def _module_bindings(body: list[ast.stmt]):
    """(name, line) for each name a module binds at its top level, in the
    bodies of top-level if/try/with/for/while blocks too, but not in a
    function or class body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:  # a subscript or attribute target binds no name
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                    yield leaf.id, node.lineno
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_bindings(getattr(node, field, []))


def test_no_module_level_name_is_bound_twice():
    """A second top-level binding silently replaces the first for every
    caller that runs after it, whichever definition that caller meant."""
    clashes = []
    for path in sorted(SRC.glob("*.py")):
        seen: dict[str, int] = {}
        for name, line in _module_bindings(ast.parse(path.read_text()).body):
            if name in seen:
                clashes.append(f"{path.name}: {name!r} at lines {seen[name]} and {line}")
            seen.setdefault(name, line)
    assert clashes == []
