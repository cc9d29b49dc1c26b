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


def _dotted(node: ast.expr) -> str | None:
    """`a.b.c` for a name or an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _calls(func: ast.expr, name: str) -> bool:
    """Whether a call of func calls `name`: a dotted name (`os.fork`) spelled
    in full or by its last part alone (`fork`, as after a from-import); an
    undotted one (`RateUnderflowError`) as a bare name or any attribute."""
    last = name.rpartition(".")[2]
    if isinstance(func, ast.Name):
        return func.id == last
    return (isinstance(func, ast.Attribute) and func.attr == last
            and ("." not in name or _dotted(func) == name))


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, qualified name of the innermost function or class) of each
    node across the package for which match(node) holds."""
    def sites(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where is None else f"{where}.{child.name}"
                yield from sites(child, module, inner)
                continue
            if match(child):
                yield module, where
            yield from sites(child, module, where)

    return [site for path in sorted(SRC.glob("*.py"))
            for site in sites(ast.parse(path.read_text()), path.stem, None)]


def _call_sites(name: str) -> list[tuple[str, str | None]]:
    """_sites of each call to `name`."""
    return _sites(lambda node: isinstance(node, ast.Call) and _calls(node.func, name))


def test_one_fork():
    # every forked run, the Lyapunov section and the sweep workers alike,
    # goes through the one pipe, exit and reap code
    assert _call_sites("os.fork") == [("scenario", "_fork")]


def test_one_result_encoding():
    # a forked call's value is marshalled by _fork and loaded by
    # _Child.result, and no caller encodes or decodes a result of its own
    assert _call_sites("marshal.dumps") == [("scenario", "_fork")]
    assert _call_sites("marshal.loads") == [("scenario", "_Child.result")]


def test_one_real_exponential():
    # real G is evaluated in one place, the root polish
    assert _call_sites("math.exp") == [("stability", "_polish")]


def test_one_number_format():
    # every report line and sweep cell prints its numbers through model._fmt,
    # and every CSV row through the one row format of integrator._write_csv;
    # an f-string's format spec is a string constant in the tree
    assert _sites(lambda node: isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and ".17g" in node.value) == [
        ("integrator", "_write_csv"), ("model", "_fmt")]


def test_rate_underflow_error_is_raised_from_one_place():
    # every rate-derived divisor is read through model._nonzero, the one call
    # that builds RateUnderflowError, so each guarded quantity names itself
    # alike and a new divisor cannot grow a check of its own
    assert _call_sites("RateUnderflowError") == [("model", "_nonzero")]


def test_no_numpy_scipy_or_dataclasses_import():
    # the package has no runtime dependency, and its value types are named
    # tuples
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if n.split(".")[0] in ("numpy", "scipy", "dataclasses")]
    assert found == []


_R0_NAMES = ("r0", "r2")  # the names that hold R0 or R0^2
_R0_CALLS = ("r0_squared", "basic_reproduction_number")


def _reads_r0_against_1(node: ast.AST) -> bool:
    """Whether node is a comparison that reads R0 or R0^2 and the number 1,
    on either side: `r2 <= 1.0`, `r0_squared(p) > 1` or `r2 - 1.0 > 0`."""
    if not isinstance(node, ast.Compare):
        return False
    leaves = list(ast.walk(node))
    return (any(isinstance(n, ast.Name) and n.id in _R0_NAMES
                or isinstance(n, ast.Attribute) and n.attr in _R0_NAMES
                or isinstance(n, ast.Call) and any(_calls(n.func, c) for c in _R0_CALLS)
                for n in leaves)
            and any(isinstance(n, ast.Constant) and type(n.value) in (int, float)
                    and n.value == 1 for n in leaves))


def test_one_r0_threshold():
    # E* exists exactly when R0 > 1, and that is decided in one place, the
    # closed form's own test on R0^2; every other reader asks it
    assert _sites(_reads_r0_against_1) == [("equilibria", "endemic_equilibrium")]


def test_every_guard_band_is_named_in_defaults():
    # defaults.py is the one home of every numeric guard band, so a band that
    # moves moves in its table row; a float below 1e-6 or the exp-overflow
    # exponent 700.0 written as a literal elsewhere is a band outside it
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in sorted(SRC.glob("*.py")) if path.name != "defaults.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and (0 < abs(node.value) < 1e-6 or node.value == 700.0)]
    assert found == []


def test_one_number_rule():
    # model._finite_real is the one rule for what counts as a number: every
    # record and the loader judge their numbers by it, so no other code
    # names numbers.Real or imports from numbers
    assert _sites(lambda node: isinstance(node, ast.Attribute)
                  and _dotted(node) == "numbers.Real"
                  or isinstance(node, ast.ImportFrom) and node.module == "numbers") == [
        ("model", "_finite_real")]
