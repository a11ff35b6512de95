"""List the statements of ``src/wparab`` that no ``wparab all`` run executes.

Runs ``run_experiment`` on every bundled config and every config in
``tests/configs/`` with a line tracer (``sys.settrace``) on, and prints each
statement of the package that none of the runs reached, as
``module.py:line: source``. ``os.fork`` is removed for the duration, so the
CSV dump and the flatten group run inline (``forked.Forked``'s fallback)
and are traced too. The three traced runs take about 5 s on a 2-vCPU VM.

This is a tool, not a test (pytest does not collect it):

    python tests/reachability.py [CONFIG.json ...]

``tests/unreached.txt`` holds its output for the default configs without
the line numbers; ``tests/test_reachability.py`` keeps the two equal through
:func:`record`, which the tests call in a fresh interpreter, so that the
package's import is traced too.
"""
from __future__ import annotations

import ast
import contextlib
import json
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


def trace_runs(configs, out_root: Path) -> tuple[dict[str, set[int]], dict[str, int]]:
    """Executed lines per file of ``src/wparab`` over one run per config,
    and each run's exit code by config name; a run writes to
    ``out_root/<config name>``."""
    seen: dict[str, set[int]] = {}
    codes: dict[str, int] = {}
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
            with contextlib.redirect_stdout(sys.stderr):
                codes[config.stem] = run_experiment(str(config), str(out_root / config.stem))
            print(f"# {config.name}: exit {codes[config.stem]}", file=sys.stderr)
    finally:
        sys.settrace(None)
        if fork is not None:
            os.fork = fork
    return seen, codes


def unreached(seen: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """``(module.py, line, source)`` of every statement of ``src/wparab``
    whose lines are not in ``seen``, in file and line order."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        lines = seen.get(str(path), set())
        source = path.read_text().splitlines()
        for first, span in sorted(statement_lines(path).items()):
            if not lines.intersection(span):
                out.append((path.name, first, source[first - 1].strip()))
    return out


def record(out_root: str) -> None:
    """Trace one run per default config into ``out_root/<config name>`` and
    write the exit codes and the unreached statements to
    ``out_root/traced.json``."""
    seen, codes = trace_runs(CONFIGS, Path(out_root))
    (Path(out_root) / "traced.json").write_text(
        json.dumps({"exit": codes, "unreached": unreached(seen)}))


def main(argv: list[str]) -> int:
    configs = [Path(a) for a in argv] or CONFIGS
    with tempfile.TemporaryDirectory() as tmp:
        missed = unreached(trace_runs(configs, Path(tmp))[0])
    for name, line, text in missed:
        print(f"{name}:{line}: {text}")
    print(f"# {len(missed)} statements not executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
