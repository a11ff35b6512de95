"""Output checks for one run of ``wparab.cli.run_experiment``.

Each check is one audit attempted; a check fails when the run's outputs are
wrong. The checks per repetition are: the exit code, the set of files in the
report directory, one per CSV table (header plus at least one row), and one
per expected JSON report (present, at least one row, every verdict PASS and,
where the reference stores it, equal to the reference report).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# Floats in seed-independent reports may drift by this relative amount
# (plus ABS_TOL near zero) before a report counts as changed; verdicts,
# labels and integer counts must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-14


def _as_float(value):
    """The float a report string encodes, or None for other strings."""
    if not isinstance(value, str):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def diff_report(got, want, path: str = "") -> str | None:
    """First difference between two report trees, or None when they agree."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or '/'}: keys differ"
        for key in sorted(want):
            found = diff_report(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            found = diff_report(g, w, f"{path}/{i}")
            if found:
                return found
        return None
    g, w = _as_float(got), _as_float(want)
    if g is not None and w is not None:
        if math.isnan(w):
            return None if math.isnan(g) else f"{path}: {got} != {want}"
        if math.isinf(w) or math.isinf(g):
            return None if g == w else f"{path}: {got} != {want}"
        if abs(g - w) <= ABS_TOL + REL_TOL * abs(w):
            return None
        return f"{path}: {got} != {want} beyond rtol {REL_TOL:g}"
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def _report_problem(path: Path, want: dict | None) -> str | None:
    try:
        rep = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"{path.name}: unreadable ({exc})"
    rows = rep.get("rows") if isinstance(rep, dict) else None
    if not rows:
        return f"{path.name}: no rows"
    if rep.get("passed") is not True:
        return f"{path.name}: FAIL verdict"
    failed_rows = [r.get("label") for r in rows if r.get("passed") is not True]
    if failed_rows:
        return f"{path.name}: FAIL rows {failed_rows}"
    if want is not None:
        found = diff_report(rep, want)
        if found:
            return f"{path.name}: differs from reference at {found}"
    return None


def _table_problem(path: Path) -> str | None:
    try:
        with path.open() as fh:
            header, first = fh.readline(), fh.readline()
    except OSError as exc:
        return f"{path.name}: unreadable ({exc})"
    if not header.strip() or not first.strip():
        return f"{path.name}: no rows"
    return None


def check_outputs(out: Path, reference: dict, exit_code) -> tuple[int, list[str]]:
    """Run every check on one report directory.

    Returns the number of checks attempted and a description of each
    failed one.
    """
    expected = reference["files"]
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = sorted(set(expected) - set(present))
    extra = sorted(set(present) - set(expected))
    if missing or extra:
        problems.append(f"report files differ: missing {missing}, extra {extra}")
    attempted = 2
    for name in expected:
        if name.endswith(".csv"):
            attempted += 1
            problem = (_table_problem(out / name) if name in present
                       else f"{name}: missing")
        elif name.endswith(".json"):
            attempted += 1
            problem = (_report_problem(out / name, reference["reports"].get(name))
                       if name in present else f"{name}: missing")
        else:
            continue
        if problem:
            problems.append(problem)
    return attempted, problems
