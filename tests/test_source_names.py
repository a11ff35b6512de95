"""Every function and class defined in ``src/wparab`` is used there, every
parameter of every ``def`` there is read in its body, every module-level
import there is read by its module, and every default there is overridden
by some call there, but not by every call.

A definition whose name is never read in the package (as a name or an
attribute) is a helper that only tests or outside tools call; a parameter
its function never reads is an option that changes nothing; a default that
no call in the package sets is an option that only tests or outside tools
can choose, so the package runs one value of it; a default that every call
in the package sets is a value that only tests or outside tools run, and
it can contradict the config (an audit's budget, say). The few of each
that are kept on purpose are listed with their reason; each test also
fails when a listed one is used or removed, so the lists never go stale.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wparab"

KEPT = {
    "geometry.height_inverse": "perfbench/layers.py wraps it by name",
    "experiments.solve_driven":
        "perfbench/layers.py wraps it by name; tests build whole driven fields with it",
    "solver.apriori_ratio":
        "perfbench/layers.py wraps it by name; tests check the streamed sweep against it",
}

DEFAULTS_KEPT = {
    "cli.main.argv": "the console entry point calls main() without arguments",
    "geometry.height_inverse.tol": "perfbench/layers.py wraps height_inverse by name",
}

DEFAULTS_OVERRIDDEN_KEPT = {
    "cli.run_experiment.seed":
        "tests and tools run a config at its own seed: run_experiment(config, out)",
    "cli.run_experiment.groups":
        "perfbench/worker.py runs the config's selection without passing groups",
}

UNREAD = {
    "solver.sinusoidal_coefficient.a_fun.t":
        "a coefficient is called as a_fun(x, t); this one is constant in time",
}


def definitions(tree: ast.AST, prefix: str):
    """(qualified name, node) of every function and class in ``tree``,
    nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            yield qual, node
            yield from definitions(node, qual)
        elif not isinstance(node, ast.expr):
            yield from definitions(node, prefix)


def unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qual for module, tree in trees.items()
            for qual, node in definitions(tree, module)
            if node.name not in used
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def test_every_definition_is_referenced():
    assert unreferenced() == set(KEPT)


def unread_parameters() -> set[str]:
    unread = set()
    for path in SRC.glob("*.py"):
        for qual, fn in definitions(ast.parse(path.read_text()), path.stem):
            if isinstance(fn, ast.ClassDef):
                continue
            a = fn.args
            # a method's receiver is not an option, whether it reads it or not
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg)
                      if p is not None and p.arg not in ("self", "cls")]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread |= {f"{qual}.{p}" for p in params if p not in read}
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == set(UNREAD)


def unread_imports() -> set[str]:
    """``module.name`` of every name a module-level import binds that its
    module never reads (``from __future__`` aside)."""
    unread = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {(a.asname or a.name).split(".")[0] for a in node.names}
                unread |= {f"{path.stem}.{name}" for name in bound - read}
    return unread


def test_every_import_is_read():
    assert unread_imports() == set()


def _name(func: ast.expr) -> str | None:
    """The called name: ``f`` of ``f(...)`` and of ``obj.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def calls(tree: ast.AST, cls: str | None = None):
    """(called name, call) of every call in ``tree``; ``cls(...)`` inside a
    class calls that class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            yield (cls if name == "cls" else name), node
        yield from calls(node, node.name if isinstance(node, ast.ClassDef) else cls)


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def defaults(trees: dict[str, ast.Module]):
    """(qualified name, called name, parameter, position) of every default:
    a ``def`` parameter with a default, and a public dataclass field with a
    default. ``__init__`` and the fields are called by the class name; a
    method's position does not count its receiver; a keyword-only parameter
    has none."""
    for module, tree in trees.items():
        for qual, node in definitions(tree, module):
            if isinstance(node, ast.ClassDef):
                if is_dataclass(node):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    for i, f in enumerate(fields):
                        name = f.target.id
                        if f.value is not None and not name.startswith("_"):
                            yield f"{qual}.{name}", node.name, name, i
                continue
            a = node.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
            called = qual.split(".")[-2] if node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                yield f"{qual}.{p}", called, p, i - skip
            for p, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield f"{qual}.{p.arg}", called, p.arg, None


def sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``**``, at its
    position, or through a ``*`` at or before it."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and any(
        i == position or isinstance(arg, ast.Starred)
        for i, arg in enumerate(call.args[:position + 1]))


def defaults_and_calls():
    """:func:`defaults` of the package, and its calls by called name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    by_name: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for name, call in calls(tree):
            by_name.setdefault(name, []).append(call)
    return list(defaults(trees)), by_name


def unset_defaults() -> set[str]:
    found, by_name = defaults_and_calls()
    return {qual for qual, called, param, position in found
            if not any(sets(c, param, position) for c in by_name.get(called, []))}


def test_every_default_is_set_by_the_package():
    assert unset_defaults() == set(DEFAULTS_KEPT)


def overridden_defaults() -> set[str]:
    """Defaults that every call in the package sets (and that some call
    does)."""
    found, by_name = defaults_and_calls()
    return {qual for qual, called, param, position in found
            if by_name.get(called)
            and all(sets(c, param, position) for c in by_name[called])}


def test_no_default_is_set_by_every_call():
    assert overridden_defaults() == set(DEFAULTS_OVERRIDDEN_KEPT)
