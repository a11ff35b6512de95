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
import functools
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


FIELD_WIDTH = 24  # len("-2.2250738585072014e-308"), the longest fmt_float string
# fmt_floats' rows: '0000000', the 17 digits of D, '00', the two digits of |E|, '.-e\0'
_TENS, _UNITS, _DOT, _MINUS, _E, _PAD = range(26, 32)


def _layout(e: int, nd: int, neg: int) -> list[int]:
    """The row columns that spell '%.17g', trailing zeros stripped, for
    decimal exponent ``e`` (all e < -4 as -5), ``nd`` digits and sign ``neg``."""
    digits = list(range(7, 7 + nd))
    if e < -4:  # d.ddde-XX
        body = digits[:1] + ([_DOT] + digits[1:]) * (nd > 1) + [_E, _MINUS, _TENS, _UNITS]
    elif e < 0:  # 0.000ddd
        body = [0, _DOT] + [0] * (-e - 1) + digits
    else:  # ddd.ddd, or ddd when no digit follows the point
        body = (digits + [0] * e)[:e + 1] + ([_DOT] + digits[e + 1:]) * (nd > e + 1)
    return ([_MINUS] * neg + body + [_PAD] * FIELD_WIDTH)[:FIELD_WIDTH]


@functools.cache
def _fmt_tables():
    """fl(10^k) and 10^k - fl(10^k) for k < 48 from exact ints, the ASCII
    digits of 0..9999 as uint32s, and every layout; built at first use."""
    powers = [10 ** k for k in range(48)]
    q = np.arange(10 ** 4)
    quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")
    return (np.array([float(p) for p in powers]),
            np.array([float(p - int(float(p))) for p in powers]),
            quads.astype(np.uint8).view(np.uint32).ravel(),
            np.array([_layout(e, nd, neg) for e in range(-5, 16)
                      for nd in range(1, 18) for neg in (0, 1)]))


def fmt_floats(values) -> np.ndarray:
    """``fmt_float`` of each element of a float array, flattened in C order,
    as zero-padded ASCII as wide as the longest string (dtype ``S<n>``).

    For finite v with 1e-30 <= |v| < 1e16, E = floor(log10 |v|) and
    k = 16 - E, the 17 digits are D = round(|v| 10^k). Dekker's exact product
    of |v| and fl(10^k), plus |v| (10^k - fl(10^k)), puts the fractional
    part of |v| 10^k within 1e-14. D stands when that part is more than
    1e-12 from 1/2 and floor(|v| 10^k) and D have 17 digits (E was right,
    no rounding carried). ±0 is the digit 0 with its sign. The rest, such as
    NaN, ±inf or near-ties, go through ``fmt_float``.
    """
    scale, rest, quads, layout = _fmt_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-30) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p10 = scale[16 - e]
    prod = a * p10
    # Veltkamp's splits, x = h + (x - h) exactly with 26-bit halves (2^27 + 1)
    (a_hi, a_lo), (p_hi, p_lo) = [(h, x - h) for x in (a, p10)
                                  for h in [134217729.0 * x - (134217729.0 * x - x)]]
    tail = (((a_hi * p_hi - prod) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
            + a * rest[16 - e])
    whole = np.floor(tail)
    d = prod.astype(np.int64) + whole.astype(np.int64)
    ok = fast & (np.abs(tail - whole - 0.5) > 1e-12) & (d >= 10 ** 16)
    d += tail - whole > 0.5
    ok &= d < 10 ** 17
    d[~ok] = 10 ** 16
    zero = v == 0.0  # '0' or '-0': D = 0 in the layout of one digit at E = 0
    d[zero], e[zero] = 0, 0
    ok |= zero

    rows = np.empty((v.size, 32), np.uint8)
    hi, lo = (half.astype(np.int32) for half in np.divmod(d, 10 ** 8))
    groups = (0, hi // 10 ** 8, hi // 10 ** 4 % 10 ** 4, hi % 10 ** 4,
              lo // 10 ** 4, lo % 10 ** 4, np.abs(e))
    for col, group in enumerate(groups):  # four digits a column
        rows.view(np.uint32)[:, col] = quads[group]
    rows[:, _DOT:] = np.frombuffer(b".-e\0", np.uint8)
    nd = 17 - np.argmax(rows[:, 23:6:-1] != ord("0"), axis=1)
    nd[zero] = 1

    key = np.where(ok, ((np.maximum(e, -5) + 5) * 17 + nd - 1) * 2 + np.signbit(v), 0)
    counts = np.bincount(key, minlength=1)
    out = rows.take(layout[counts.argmax()], axis=1)  # the commonest layout, on all
    counts[counts.argmax()] = 0
    for k in np.flatnonzero(counts).tolist():
        at = np.flatnonzero(key == k)
        out[at] = rows[at][:, layout[k]]
    out = out.view(f"S{FIELD_WIDTH}").ravel()
    out[~ok] = [fmt_float(x) for x in v[~ok].tolist()]
    return out.astype(f"S{np.char.str_len(out).max(initial=1)}")


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


def ratio(lhs: float, rhs: float) -> float:
    """The smallest N with lhs <= N rhs: lhs / rhs, 0 when both sides are 0
    and inf when only rhs is (a NaN side gives NaN)."""
    return lhs / rhs if not rhs <= 0 else (0.0 if lhs == 0.0 else math.inf)


@dataclass
class AuditRow:
    """One inequality instance: lhs <= constant * rhs, judged against a budget.

    The constructors below build the standard rows; in each of them an
    infinite or NaN constant never passes.
    """

    label: str
    lhs: float
    rhs: float
    constant: float
    budget: float
    passed: bool
    extra: dict = field(default_factory=dict)

    @classmethod
    def bound(cls, label: str, lhs: float, rhs: float, budget: float,
              extra: dict | None = None) -> "AuditRow":
        """lhs <= N rhs with N = ``ratio(lhs, rhs)`` at most ``budget``."""
        n = ratio(lhs, rhs)
        return cls(label, lhs, rhs, n, budget,
                   bool(math.isfinite(n) and n <= budget), extra or {})

    @classmethod
    def at_most(cls, label: str, value: float, budget: float,
                extra: dict | None = None) -> "AuditRow":
        """A measured ``value`` (lhs and constant) at most ``budget`` (rhs)."""
        return cls(label, value, budget, value, budget,
                   bool(math.isfinite(value) and value <= budget), extra or {})

    @classmethod
    def at_least(cls, label: str, value: float, floor: float) -> "AuditRow":
        """A measured ``value`` (lhs and constant) at least ``floor`` (rhs)."""
        return cls(label, value, floor, value, floor,
                   bool(math.isfinite(value) and value >= floor))

    @classmethod
    def count(cls, label: str, n: int) -> "AuditRow":
        """A number of failures ``n``, which passes at 0."""
        return cls.at_most(label, float(n), 0.0)


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
        d = asdict(self)
        if self.seed is None:
            del d["seed"]
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
