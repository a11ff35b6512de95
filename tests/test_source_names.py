"""Every function and class defined in ``src/wparab`` is used there.

A definition whose name is never read in the package (as a name or an
attribute) is a helper that only tests or outside tools call. The few that
are kept on purpose are listed with their reason; the test also fails when
one of them gains a caller in the package or is removed from it, so the
list never goes stale.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wparab"

KEPT = {
    "geometry.height_inverse": "perfbench/layers.py wraps it by name",
}


def definitions(tree: ast.Module, prefix: str):
    """(qualified name, bare name) of every function and class in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qual, node.name
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
            for qual, name in definitions(tree, module) if name not in used}


def test_every_definition_is_referenced():
    assert unreferenced() == set(KEPT)
