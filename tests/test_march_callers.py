"""Backward Euler has one driver: ``solver._march`` is the only function in
``src/wparab`` that calls ``solver._implicit_step``, and the storer
``solver._stored``, which keeps the levels of ``solve_ivbp`` and
``solve_frozen`` in a table, and ``solver.driven_apriori_ratios``, which
keeps none, are the only ones that call ``_march``. A second march or a
second table writer fails here; so does a listed caller that stops calling,
so the lists never go stale.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wparab"

CALLERS = {
    "_march": {"solver._stored", "solver.driven_apriori_ratios"},
    "_implicit_step": {"solver._march"},
}


def callers(name: str) -> set[str]:
    """``module.function`` of every module-level function or method in the
    package whose body (its lambdas and nested functions too) calls
    ``name``, as ``name(...)`` or ``obj.name(...)``."""
    found = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        tops = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        tops += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for qual, fn in tops:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = (func.id if isinstance(func, ast.Name)
                              else func.attr if isinstance(func, ast.Attribute) else None)
                    if called == name:
                        found.add(f"{path.stem}.{qual}")
    return found


def test_only_the_storer_and_the_streamed_sweep_march():
    assert callers("_march") == CALLERS["_march"]


def test_only_the_march_steps():
    assert callers("_implicit_step") == CALLERS["_implicit_step"]
