"""Structured audit reports and deterministic serialization.

Every inequality check in the toolkit produces an :class:`AuditReport`:
one or more rows, each recording the two sides of an inequality, the
empirical constant relating them, the configured budget, and a verdict.
Reports carry a self-describing ``check`` tag naming the inequality.

Serialization is bit-stable: keys are sorted, floats are rendered with
17 significant digits, and no wall-clock data enters a report, so
identical inputs and seeds produce byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _canonical(obj: Any) -> Any:
    """Convert an object tree into JSON-safe primitives with stable floats."""
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        # Floats become tagged strings so the byte representation is fixed.
        return fmt_float(obj)
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _canonical(obj.tolist())
    return str(obj)


def json_dumps(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, fixed float format)."""
    return json.dumps(_canonical(obj), indent=2, sort_keys=True) + "\n"


@dataclass
class AuditRow:
    """One inequality instance: lhs <= constant * rhs, judged against a budget."""

    label: str
    lhs: float
    rhs: float
    constant: float
    budget: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "budget": self.budget,
            "passed": self.passed,
            "extra": self.extra,
        }


@dataclass
class AuditReport:
    """Outcome of one audit: a named check with one or more rows."""

    check: str
    passed: bool
    rows: list[AuditRow]
    params: dict
    seed: int | None

    @classmethod
    def from_rows(cls, check: str, rows: list[AuditRow], params: dict,
                  seed: int | None = None) -> "AuditReport":
        # a report without rows checked nothing, so it fails
        passed = bool(rows) and all(r.passed for r in rows)
        return cls(check=check, passed=passed, rows=rows, params=params, seed=seed)

    def to_dict(self) -> dict:
        d = {
            "check": self.check,
            "passed": self.passed,
            "rows": [r.to_dict() for r in self.rows],
            "params": self.params,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def to_json(self) -> str:
        return json_dumps(self.to_dict())


def write_json(path: str | Path, rep: AuditReport) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rep.to_json())
    return path


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> Path:
    """Write a CSV table with fixed column order and float formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue())
    return path


def write_svg_curves(path: str | Path, curves: list[tuple[str, list[float], list[float]]],
                     title: str, logx: bool = False, logy: bool = False) -> Path:
    """Write a static 640 x 420 SVG line plot (no plotting dependency).

    ``curves`` is a list of (label, xs, ys). Log axes take log10 of the data;
    nonpositive values are dropped from log-scaled curves.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width, height, margin = 640, 420, 50.0
    pw, ph = width - 2 * margin, height - 2 * margin

    def transform(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
        pts = [(x, y) for x, y in zip(xs, ys)
               if (not logx or x > 0) and (not logy or y > 0)]
        tx = [math.log10(x) if logx else x for x, _ in pts]
        ty = [math.log10(y) if logy else y for _, y in pts]
        return tx, ty

    data = [(label,) + transform(xs, ys) for label, xs, ys in curves]
    all_x = [x for _, xs, _ in data for x in xs]
    all_y = [y for _, _, ys in data for y in ys]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return margin + pw * (x - x0) / (x1 - x0)

    def py(y: float) -> float:
        return height - margin - ph * (y - y0) / (y1 - y0)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for i, (label, xs, ys) in enumerate(data):
        color = palette[i % len(palette)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4:.1f}" y="{margin + 16 * i:.1f}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    # axis extremes, enough to read scales off the plot
    parts.append(f'<text x="{margin}" y="{height - margin + 16:.1f}" font-size="10">'
                 f"{fmt_float(x0)}</text>")
    parts.append(f'<text x="{width - margin:.1f}" y="{height - margin + 16:.1f}" '
                 f'text-anchor="end" font-size="10">{fmt_float(x1)}</text>')
    parts.append(f'<text x="{margin - 4:.1f}" y="{height - margin}" text-anchor="end" '
                 f'font-size="10">{fmt_float(y0)}</text>')
    parts.append(f'<text x="{margin - 4:.1f}" y="{margin + 4:.1f}" text-anchor="end" '
                 f'font-size="10">{fmt_float(y1)}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
