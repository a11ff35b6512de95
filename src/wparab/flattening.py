"""Boundary flattening: the graph map, coefficient pushforward, and the
weight-class and oscillation inflation audits.

The chart is Phi(x', x_n) = (x', x_n - phi(x')) with the affine graph
phi(x') = delta * x', so ||grad phi|| = delta < 1; its inverse adds phi
back, both have unit Jacobian determinant. Coefficients push forward by
congruence,

    A~ = (grad Phi) A (grad Phi)^T = A + B,

where B has last column/row entries -sum_j a_ij phi_j and corner entry
b_nn = sum_ij a_ij phi_i phi_j - 2 sum_j a_nj phi_j, so ||B|| = O(delta).
The transformed weight b~ = b o Phi^{-1} stays in the same Muckenhoupt
class with characteristic inflated by at most 2^{n+2}, and its ball-wise
mean oscillation remains O(delta^2) when the original oscillation and the
chart slope are both of size delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityViolation, EmptyBall, GateFailed
from .report import AuditReport, AuditRow
from .weights import N0, BallFamily, Weight, aq_characteristic, ball_grid, first_sup

@dataclass
class BoundaryChart:
    """Affine graph chart phi(x') = delta * x' of a boundary patch (the
    Lipschitz test chart), with exact gradient."""

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("chart slope delta must lie in [0, 1)")

    def phi(self, xp):
        return self.delta * np.asarray(xp, dtype=float)

    def grad_phi(self, xp):
        return np.full_like(np.asarray(xp, dtype=float), self.delta)


def phi_map(chart: BoundaryChart, x) -> np.ndarray:
    """Phi(x', x_n) = (x', x_n - phi(x')); flattens the graph boundary."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = x.copy()
    out[:, -1] = x[:, -1] - chart.phi(x[:, 0])
    return out


def phi_inverse(chart: BoundaryChart, y) -> np.ndarray:
    """Phi^{-1}(y', y_n) = (y', y_n + phi(y')); exact inverse of phi_map."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    out = y.copy()
    out[:, -1] = y[:, -1] + chart.phi(y[:, 0])
    return out


def inclusion_audit(chart: BoundaryChart, y0, r: float,
                    samples: int = 21) -> AuditReport:
    """Ball inclusions under the chart:

    B_{r/2}(Phi^{-1}(y0)) sits inside Phi^{-1}(B_r(y0)), which sits inside
    B_{2r}(Phi^{-1}(y0)). Verified on deterministic lattices.
    """
    if not chart.delta < 1.0:
        raise ValueError("inclusions require delta < 1")
    y0 = np.asarray(y0, dtype=float)
    x_star = phi_inverse(chart, y0[None, :])[0]
    grid = np.linspace(-1.0, 1.0, samples)
    gx, gy = np.meshgrid(grid, grid)
    disc = np.column_stack([gx.ravel(), gy.ravel()])
    disc = disc[np.linalg.norm(disc, axis=1) <= 1.0]

    inner_pts = x_star[None, :] + 0.5 * r * disc
    mapped = phi_map(chart, inner_pts)
    bad_inner = int(np.sum(np.linalg.norm(mapped - y0, axis=1) > r * (1 + 1e-12)))

    ball_pts = y0[None, :] + r * disc
    pulled = phi_inverse(chart, ball_pts)
    bad_outer = int(np.sum(
        np.linalg.norm(pulled - x_star, axis=1) > 2.0 * r * (1 + 1e-12)))

    rows = [
        AuditRow(label="half-ball-inside-preimage", lhs=float(bad_inner), rhs=0.0,
                 constant=float(bad_inner), budget=0.0, passed=bad_inner == 0),
        AuditRow(label="preimage-inside-double-ball", lhs=float(bad_outer), rhs=0.0,
                 constant=float(bad_outer), budget=0.0, passed=bad_outer == 0),
    ]
    return AuditReport.from_rows(
        "chart-ball-inclusions", rows,
        params={"delta": chart.delta, "r": r, "y0": y0.tolist(),
                "n_points": int(disc.shape[0])})


def b_matrix(chart: BoundaryChart, A: np.ndarray, xp: float) -> np.ndarray:
    """The correction B with A~ = A + B, in closed form (n = 2)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    g = float(chart.grad_phi(np.asarray([xp]))[0])
    B = np.zeros_like(A)
    for i in range(n - 1):
        B[i, -1] = -A[i, 0] * g
        B[-1, i] = -A[0, i] * g
    B[-1, -1] = A[0, 0] * g * g - 2.0 * A[-1, 0] * g
    return B


def _grad_phi_matrix(chart: BoundaryChart, xp: float, n: int = 2) -> np.ndarray:
    g = float(chart.grad_phi(np.asarray([xp]))[0])
    M = np.eye(n)
    M[-1, 0] = -g
    return M


def pushforward_coefficients(chart: BoundaryChart, a_fun, nu: float,
                             probes: np.ndarray | None = None,
                             times: np.ndarray | None = None,
                             n_directions: int = 16) -> tuple:
    """Transformed coefficients A~ = (grad Phi) A (grad Phi)^T and audits.

    ``a_fun(x, t)`` returns the matrix at a spatial point (length-2) and
    time. Returns (a_tilde_fun, b_fun, report): the decomposition identity
    A~ = A + B at probe points, the bound ||B|| <= N delta, and the
    ellipticity certificate <A~ xi, xi> >= nu (1-delta)^2 |xi|^2.
    """
    if probes is None:
        probes = np.linspace(-1.0, 1.0, 9)
    if times is None:
        times = np.array([0.0, 0.5, 1.0])

    def a_tilde(y, t):
        y = np.asarray(y, dtype=float)
        x = phi_inverse(chart, y[None, :])[0]
        M = _grad_phi_matrix(chart, x[0])
        return M @ np.asarray(a_fun(x, t), dtype=float) @ M.T

    def b_fun(y, t):
        y = np.asarray(y, dtype=float)
        x = phi_inverse(chart, y[None, :])[0]
        return b_matrix(chart, np.asarray(a_fun(x, t), dtype=float), x[0])

    angles = 2.0 * math.pi * np.arange(n_directions) / n_directions
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    decomp_err = 0.0
    b_norm = 0.0
    min_quot = math.inf
    for xp in probes:
        for t in times:
            y = np.array([xp, 0.3])
            At = a_tilde(y, t)
            x = phi_inverse(chart, y[None, :])[0]
            A = np.asarray(a_fun(x, t), dtype=float)
            B = b_fun(y, t)
            decomp_err = max(decomp_err, float(np.max(np.abs(At - (A + B)))))
            b_norm = max(b_norm, float(np.linalg.norm(B)))
            for d in dirs:
                min_quot = min(min_quot, float(d @ At @ d))
    thresh = nu * (1.0 - chart.delta) ** 2
    if min_quot < thresh * (1.0 - 1e-12):
        raise EllipticityViolation(
            f"pushforward lost ellipticity: {min_quot} < {thresh}")
    n_emp = b_norm / chart.delta if chart.delta > 0 else 0.0
    rows = [
        AuditRow(label="decomposition-identity", lhs=decomp_err, rhs=1e-12,
                 constant=decomp_err, budget=1e-12,
                 passed=bool(decomp_err <= 1e-12)),
        AuditRow(label="correction-norm-linear-in-delta", lhs=b_norm,
                 rhs=chart.delta, constant=n_emp, budget=math.inf, passed=True),
        AuditRow(label="ellipticity-certificate", lhs=min_quot, rhs=thresh,
                 constant=min_quot / thresh if thresh > 0 else math.inf,
                 budget=math.inf, passed=bool(min_quot >= thresh * (1 - 1e-12))),
    ]
    report = AuditReport.from_rows(
        "coefficient-pushforward", rows,
        params={"delta": chart.delta, "nu": nu, "n_directions": n_directions})
    return a_tilde, b_fun, report


def _transformed_weight(chart: BoundaryChart, beta: Weight,
                        shape: tuple[int, int] = (48, 48)) -> Weight:
    """b~ = b o Phi^{-1}, sampled as cell means on the chart's y-domain."""
    (x0, x1), (y0, y1) = beta.domain

    def fn(pts):
        return beta(phi_inverse(chart, pts))

    singular = None
    if beta.kind == "power":
        c = np.asarray(beta.center)
        singular = tuple(phi_map(chart, c[None, :])[0])
    return Weight.from_function_2d(fn, ((x0, x1), (y0, y1)), shape,
                                   singular=singular)


def _sup_ball_oscillation(w: Weight, fam: BallFamily) -> float:
    """sup over the family of (w)_B (w^{-1})_B - 1 (squared oscillation).

    Both means of every ball come from one pass over the family, which
    shares the family's cell coverage on the weight's grid. A ball that
    covers no sample is skipped when it lies outside the domain; the first
    one, in ball order, that meets the domain (its centre is closer than r
    to the box) raises :class:`EmptyBall`.
    """
    masses, meas = w.ball_masses((1.0, -1.0), fam)
    hit = meas > 0.0
    if not hit.all():
        c, r = ball_grid(fam.centers, fam.radii)
        lo, hi = np.array(w.domain).T
        gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)  # centre to box, per axis
        meets = ~hit & (np.hypot(gap[:, 0], gap[:, 1]) < r)
        if meets.any():
            i = np.argmax(meets)
            raise EmptyBall(f"ball B_{r[i]}({c[i].tolist()}) misses the domain")
    b, b_inv = masses[:, hit] / meas[hit]
    return first_sup(b * b_inv - 1.0)[0]


def pushforward_weight_audit(chart: BoundaryChart, beta: Weight,
                             M0: float, fam: BallFamily,
                             shape: tuple[int, int] = (48, 48)) -> AuditReport:
    """Class and oscillation inflation of the transformed weight.

    Row 1: the characteristic of b~^{-1} against 2^{n+2} times the budget
    satisfied by b. Row 2: the sup-ball squared oscillation of b~ with the
    fitted constant sup/delta^2.
    """
    q = 1.0 + 2.0 / N0
    beta_grid = _transformed_weight(BoundaryChart(delta=0.0),
                                    beta, shape)  # same sampling for fairness
    est_orig = aq_characteristic(beta_grid, q, fam, power=-1.0)
    if est_orig > M0:
        raise GateFailed(
            f"base weight characteristic {est_orig} exceeds budget {M0}")
    wt = _transformed_weight(chart, beta, shape)
    est_tilde = aq_characteristic(wt, q, fam, power=-1.0)
    budget = 2.0 ** (beta.n + 2) * M0
    osc = _sup_ball_oscillation(wt, fam)
    n1_fit = math.sqrt(osc) / chart.delta if chart.delta > 0 else 0.0
    rows = [
        AuditRow(label="inverse-class-inflation", lhs=est_tilde, rhs=budget,
                 constant=est_tilde / est_orig, budget=budget,
                 passed=bool(est_tilde <= budget),
                 extra={"original": est_orig}),
        AuditRow(label="oscillation-inflation", lhs=osc,
                 rhs=chart.delta ** 2, constant=n1_fit, budget=math.inf,
                 passed=True),
    ]
    return AuditReport.from_rows(
        "weight-pushforward", rows,
        params={"delta": chart.delta, "M0": M0, "q": q,
                "grid_shape": list(shape)})


def oscillation_delta_sweep(deltas, shape: tuple[int, int] = (40, 40)) -> list[dict]:
    """Coupled sweep: chart slope delta with weight |x|^{delta/2} on the
    square (-1, 1)^2.

    Under the smallness hypothesis the chart slope and the weight's own
    oscillation sit under the same delta, so the transformed weight's
    squared oscillation should decay like delta^2.
    """
    domain = ((-1.0, 1.0), (-1.0, 1.0))
    fam = BallFamily.default(domain, n_centers=5, n_radii=8)
    rows = []
    for d in deltas:
        chart = BoundaryChart(delta=float(d))
        beta = Weight.power(0.5 * float(d), (0.0, 0.25), domain)
        wt = _transformed_weight(chart, beta, shape)
        osc = _sup_ball_oscillation(wt, fam)
        rows.append({"delta": float(d), "oscillation_sq": osc})
    return rows


def b_norm_delta_sweep(deltas) -> list[dict]:
    """Max correction norm ||B|| per chart slope for the unit coefficient
    (ellipticity nu = 1/2), for the exponent fit, with the
    ``coefficient-pushforward`` report it was read from."""
    rows = []
    for d in deltas:
        chart = BoundaryChart(delta=float(d))
        _, _, rep = pushforward_coefficients(chart, lambda x, t: np.eye(2), 0.5)
        row = next(r for r in rep.rows
                   if r.label == "correction-norm-linear-in-delta")
        rows.append({"delta": float(d), "b_norm": row.lhs, "report": rep})
    return rows


def admissible_radius_search(chart: BoundaryChart, beta: Weight,
                             R: float, t0: float,
                             Lambda: float, n_grid: int = 24,
                             samples: int = 17) -> AuditReport:
    """First radius on a decreasing grid satisfying the chart inclusions.

    A radius rho is admissible when the flattened half-ball of radius
    2*Lambda*rho pulls back inside B_R and the transformed cylinder height
    at that radius fits under the time t0. The largest admissible grid
    radius is recorded; none existing is a failure.
    """
    wt = _transformed_weight(chart, beta)
    grid = np.geomspace(R / (4.0 * Lambda), R / (400.0 * Lambda), n_grid)
    angles = math.pi * (np.arange(samples) + 0.5) / samples
    found = None
    for rho in grid:
        r_big = 2.0 * Lambda * rho
        ring = np.column_stack([r_big * np.cos(angles),
                                r_big * np.abs(np.sin(angles))])
        pulled = phi_inverse(chart, ring)
        inside = bool(np.max(np.linalg.norm(pulled, axis=1)) <= R)
        p0 = N0 / 2.0
        h_big = r_big ** 2 * wt.mean(p0, np.zeros(2), r_big) ** (2.0 / N0)
        if inside and h_big <= t0:
            found = float(rho)
            break
    row = AuditRow(label="first-admissible-radius",
                   lhs=found if found is not None else math.inf,
                   rhs=R / (2.0 * Lambda),
                   constant=found if found is not None else math.inf,
                   budget=R / (2.0 * Lambda), passed=found is not None,
                   extra={"grid_extent": [float(grid[0]), float(grid[-1])]})
    return AuditReport.from_rows(
        "admissible-chart-radius", [row],
        params={"R": R, "t0": t0, "Lambda": Lambda, "delta": chart.delta})
