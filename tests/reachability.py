"""List the statements of ``src/wparab`` that no ``wparab all`` run executes.

Runs ``run_experiment`` on every bundled config and every config in
``tests/configs/`` with a line tracer (``sys.settrace``) on, and prints each
statement of the package that none of the runs reached, as
``module.py:line: source``. ``os.fork`` is removed for the duration, so the
CSV dump and the flatten group run inline (``cli.Forked``'s fallback) and
are traced too. The four traced runs take about 5 s on a 2-vCPU VM.

This is a tool, not a test (pytest does not collect it):

    python tests/reachability.py [CONFIG.json ...]
"""
from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wparab"
CONFIGS = sorted((SRC / "configs").glob("*.json")) + sorted(
    (ROOT / "tests" / "configs").glob("*.json"))


def statement_lines(path: Path) -> dict[int, range]:
    """First line of every statement in ``path`` -> the lines that count as
    reaching it: a simple statement's own lines, a compound statement's
    header. Docstrings and global declarations are left out: they run no
    code."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        out[node.lineno] = range(first, max(end, node.lineno) + 1)
    return out


def trace_runs(configs) -> dict[str, set[int]]:
    """Executed lines per file of ``src/wparab`` over one run per config."""
    seen: dict[str, set[int]] = {}
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    sys.path.insert(0, str(SRC.parent))
    fork = os.__dict__.pop("fork", None)
    sys.settrace(tracer)
    try:
        from wparab.cli import run_experiment

        for config in configs:
            with (tempfile.TemporaryDirectory() as tmp,
                  contextlib.redirect_stdout(sys.stderr)):
                code = run_experiment(str(config), tmp)
            print(f"# {Path(config).name}: exit {code}", file=sys.stderr)
    finally:
        sys.settrace(None)
        if fork is not None:
            os.fork = fork
    return seen


def main(argv: list[str]) -> int:
    configs = [Path(a) for a in argv] or CONFIGS
    seen = trace_runs(configs)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = seen.get(str(path), set())
        source = path.read_text().splitlines()
        for first, span in sorted(statement_lines(path).items()):
            if not lines.intersection(span):
                missed += 1
                print(f"{path.name}:{first}: {source[first - 1].strip()}")
    print(f"# {missed} statements not executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
