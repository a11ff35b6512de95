"""Every function and class defined in ``src/wparab`` is used there, and
every parameter of every ``def`` there is read in its body.

A definition whose name is never read in the package (as a name or an
attribute) is a helper that only tests or outside tools call; a parameter
its function never reads is an option that changes nothing. The few of
either that are kept on purpose are listed with their reason; each test
also fails when a listed one is used or removed, so the lists never go
stale.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wparab"

KEPT = {
    "geometry.height_inverse": "perfbench/layers.py wraps it by name",
}

UNREAD = {
    "config.ExperimentConfig.coefficient_fn.a_fun.t":
        "a coefficient is called as a_fun(x, t); this one is constant in time",
    "experiments.oscillating_coefficient.a_fun.t":
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
