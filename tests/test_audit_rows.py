"""Every audit row in ``src/wparab`` outside ``report.py`` is built by one of
the ``AuditRow`` constructors ``bound``, ``at_most``, ``at_least`` and
``count``, which share one rule for the constant (``report.ratio``: 0/0 is
0, x/0 is infinite) and one verdict (an infinite or NaN constant never
passes), unless it is listed below with the rule of its own that keeps it
hand-built. A row is named ``module:label``, with ``*`` for each formatted
part of an f-string label. Each test also fails when a listed row is
converted or removed, so the lists never go stale.

The rows whose budget is infinite pass whatever they measure; they are
marked, as the start of an inventory of budgets that can fail. The
``doubling-constant`` row's budget, ``audits.weights.n1_budget``, is also
infinite unless a config sets it.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wparab"

HAND_BUILT = {
    "cli:largest-passing-gamma":
        "the largest passing candidate gamma, which passes when above 0",
    "cli:smallest-amplitude-near-baseline":
        "rhs is twice the baseline while the constant is the gap to the baseline",
    "weights:duality-identity":
        "the constant is the relative gap |lhs - rhs| / max(1, |rhs|)",
    "weights:a2-bound":
        "the characteristic against itself within tol_quad; pinned report shape",
    "flattening:ellipticity-certificate":
        "budget ∞: a lower bound, passing when lhs >= rhs within 1e-12",
    "flattening:inverse-class-inflation":
        "the constant is the inflation over the original weight's characteristic",
    "flattening:oscillation-inflation":
        "budget ∞: the fitted sqrt(lhs) / delta is recorded, never judged",
    "inequalities:interpolation-bound":
        "the smallest constant over a theta grid, with rhs = lhs / constant",
    "maximal:base-density":
        "informational: the constant is the normalization, outside the verdict",
    "maximal:decay-m-*":
        "lhs <= rhs within a relative 1e-12 and an absolute 1e-300 of slack",
    "oscillation:smallness-gate":
        "strict total < delta, the paper's smallness hypothesis",
}

# rows of the constructors whose budget is the literal math.inf
INFINITE_BUDGET = {
    "flattening:correction-norm-linear-in-delta":
        "the fitted ||B|| / delta is recorded, never judged",
}

# where each constructor takes its budget: (position, keyword)
BUDGET_ARG = {"AuditRow": (4, "budget"), "bound": (3, "budget"),
              "at_most": (2, "budget")}


def _label(node: ast.expr) -> str:
    """A constant label, an f-string's with ``*`` for each formatted part,
    or ``*`` for any other expression."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(str(v.value) if isinstance(v, ast.Constant) else "*"
                       for v in node.values)
    return "*"


def _arg(call: ast.Call, position: int, keyword: str) -> ast.expr | None:
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def audit_rows():
    """(constructor, ``module:label``, call) of every row built outside
    ``report.py``: ``AuditRow(...)`` and ``AuditRow.<constructor>(...)``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == "AuditRow":
                kind = "AuditRow"
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "AuditRow"):
                kind = f.attr
            else:
                continue
            yield kind, f"{path.stem}:{_label(_arg(node, 0, 'label'))}", node


def _is_inf(node: ast.expr | None) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def test_every_hand_built_row_is_listed():
    built = Counter(name for kind, name, _ in audit_rows() if kind == "AuditRow")
    assert built == Counter(list(HAND_BUILT))


def test_reasons_are_one_line():
    assert all(r and "\n" not in r for r in (*HAND_BUILT.values(),
                                             *INFINITE_BUDGET.values()))


def test_infinite_budgets_are_marked():
    infinite = {(kind == "AuditRow", name) for kind, name, call in audit_rows()
                if kind in BUDGET_ARG and _is_inf(_arg(call, *BUDGET_ARG[kind]))}
    assert infinite == ({(True, n) for n, r in HAND_BUILT.items()
                         if r.startswith("budget ∞")}
                        | {(False, n) for n in INFINITE_BUDGET})
