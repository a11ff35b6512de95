"""Boundary flattening: the graph map, coefficient pushforward, and the
weight-class and oscillation inflation audits.

The boundary patch is the graph of the affine phi(x') = delta * x', and
every function here takes its slope delta, 0 <= delta < 1. The chart and
its inverse are shears, Phi = shear(-delta) and Phi^{-1} = shear(delta)
with shear(d)(x', x_n) = (x', x_n + d x'); both have unit Jacobian
determinant and grad phi = delta. Coefficients push forward by
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

import numpy as np

from .errors import EllipticityViolation, GateFailed
from .report import AuditReport, AuditRow, ratio
from .weights import N0, BallFamily, Weight, a2_products, first_sup


def shear(delta: float, x) -> np.ndarray:
    """(x', x_n + delta x') row-wise: Phi is shear(-delta), Phi^{-1} is
    shear(delta)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = x.copy()
    out[:, -1] = x[:, -1] + delta * x[:, 0]
    return out


def inclusion_audit(delta: float, y0, r: float) -> AuditReport:
    """Ball inclusions under the chart:

    B_{r/2}(Phi^{-1}(y0)) sits inside Phi^{-1}(B_r(y0)), which sits inside
    B_{2r}(Phi^{-1}(y0)). Verified on the points of a 21 x 21 lattice in
    the unit disc.
    """
    y0 = np.asarray(y0, dtype=float)
    x_star = shear(delta, y0[None, :])[0]
    grid = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(grid, grid)
    disc = np.column_stack([gx.ravel(), gy.ravel()])
    disc = disc[np.linalg.norm(disc, axis=1) <= 1.0]

    inner_pts = x_star[None, :] + 0.5 * r * disc
    mapped = shear(-delta, inner_pts)
    bad_inner = int(np.sum(np.linalg.norm(mapped - y0, axis=1) > r * (1 + 1e-12)))

    ball_pts = y0[None, :] + r * disc
    pulled = shear(delta, ball_pts)
    bad_outer = int(np.sum(
        np.linalg.norm(pulled - x_star, axis=1) > 2.0 * r * (1 + 1e-12)))

    rows = [AuditRow.count("half-ball-inside-preimage", bad_inner),
            AuditRow.count("preimage-inside-double-ball", bad_outer)]
    return AuditReport.from_rows(
        "chart-ball-inclusions", rows,
        params={"delta": delta, "r": r, "y0": y0.tolist(),
                "n_points": int(disc.shape[0])})


def b_matrix(delta: float, A: np.ndarray) -> np.ndarray:
    """The correction B with A~ = A + B, in closed form (n = 2)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.zeros_like(A)
    for i in range(n - 1):
        B[i, -1] = -A[i, 0] * delta
        B[-1, i] = -A[0, i] * delta
    B[-1, -1] = A[0, 0] * delta * delta - 2.0 * A[-1, 0] * delta
    return B


def pushforward_coefficients(delta: float, a_fun, nu: float) -> AuditReport:
    """Audits of the transformed coefficients A~ = (grad Phi) A (grad Phi)^T.

    ``a_fun(x, t)`` returns the matrix at a spatial point (length-2) and
    time. The report holds the decomposition identity A~ = A + B at probe
    points, the bound ||B|| <= N delta, and the ellipticity certificate
    <A~ xi, xi> >= nu (1-delta)^2 |xi|^2. The probes are 9 points y' in
    [-1, 1] at y_n = 0.3, at the times 0, 0.5 and 1, in 16 directions xi;
    each is pulled back by Phi^{-1} and evaluated by ``a_fun`` once.
    """
    M = np.eye(2)  # grad Phi, constant for the affine chart
    M[-1, 0] = -delta
    angles = 2.0 * math.pi * np.arange(16) / 16
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    decomp_err = 0.0
    b_norm = 0.0
    min_quot = math.inf
    for xp in np.linspace(-1.0, 1.0, 9):
        for t in np.array([0.0, 0.5, 1.0]):
            x = shear(delta, np.array([[xp, 0.3]]))[0]
            A = np.asarray(a_fun(x, t), dtype=float)
            At = M @ A @ M.T
            B = b_matrix(delta, A)
            decomp_err = max(decomp_err, float(np.max(np.abs(At - (A + B)))))
            b_norm = max(b_norm, float(np.linalg.norm(B)))
            for d in dirs:
                min_quot = min(min_quot, float(d @ At @ d))
    thresh = nu * (1.0 - delta) ** 2
    if min_quot < thresh * (1.0 - 1e-12):
        raise EllipticityViolation(
            f"pushforward lost ellipticity: {min_quot} < {thresh}")
    rows = [
        AuditRow.at_most("decomposition-identity", decomp_err, 1e-12),
        AuditRow.bound("correction-norm-linear-in-delta", b_norm, delta, math.inf),
        AuditRow(label="ellipticity-certificate", lhs=min_quot, rhs=thresh,
                 constant=ratio(min_quot, thresh),
                 budget=math.inf, passed=bool(min_quot >= thresh * (1 - 1e-12))),
    ]
    return AuditReport.from_rows(
        "coefficient-pushforward", rows,
        params={"delta": delta, "nu": nu, "n_directions": len(dirs)})


def _transformed_weight(delta: float, beta: Weight,
                        shape: tuple[int, int] = (48, 48)) -> Weight:
    """b~ = b o Phi^{-1} for a 2D power weight b (the only 2D weight with
    point values), sampled as cell means on the chart's y-domain and refined
    around the image of b's centre."""

    def fn(pts):
        return beta(shear(delta, pts))

    singular = tuple(shear(-delta, np.asarray(beta.center)[None, :])[0])
    return Weight.from_function_2d(fn, beta.domain, shape, singular)


def pushforward_weight_audit(delta: float, beta: Weight,
                             M0: float, fam: BallFamily,
                             shape: tuple[int, int]) -> AuditReport:
    """Class and oscillation inflation of the transformed weight.

    Row 1: the characteristic of b~^{-1} in A_{1+2/n0} = A_2 against
    2^{n+2} times the budget satisfied by b. Row 2: the sup-ball squared
    oscillation of b~ with the fitted constant sup/delta^2. Both read one
    pass of :func:`a2_products` of b~.
    """
    q = 1.0 + 2.0 / N0
    beta_grid = _transformed_weight(0.0, beta, shape)  # same sampling for fairness
    est_orig = first_sup(a2_products(beta_grid, fam))[0]
    if est_orig > M0:
        raise GateFailed(
            f"base weight characteristic {est_orig} exceeds budget {M0}")
    a2_tilde = a2_products(_transformed_weight(delta, beta, shape), fam)
    est_tilde = first_sup(a2_tilde)[0]
    budget = 2.0 ** (beta.n + 2) * M0
    osc = first_sup(a2_tilde - 1.0)[0]
    rows = [
        AuditRow(label="inverse-class-inflation", lhs=est_tilde, rhs=budget,
                 constant=est_tilde / est_orig, budget=budget,
                 passed=bool(est_tilde <= budget),
                 extra={"original": est_orig}),
        AuditRow(label="oscillation-inflation", lhs=osc, rhs=delta ** 2,
                 constant=ratio(math.sqrt(osc), delta), budget=math.inf, passed=True),
    ]
    return AuditReport.from_rows(
        "weight-pushforward", rows,
        params={"delta": delta, "M0": M0, "q": q,
                "grid_shape": list(shape)})


def oscillation_delta_sweep(deltas) -> list[dict]:
    """Coupled sweep: chart slope delta with weight |x|^{delta/2} on the
    square (-1, 1)^2, sampled on a 40 x 40 grid.

    Under the smallness hypothesis the chart slope and the weight's own
    oscillation sit under the same delta, so the transformed weight's
    squared oscillation should decay like delta^2.
    """
    domain = ((-1.0, 1.0), (-1.0, 1.0))
    fam = BallFamily.default(domain, n_centers=5, n_radii=8)
    rows = []
    for d in deltas:
        beta = Weight.power(0.5 * float(d), (0.0, 0.25), domain)
        wt = _transformed_weight(float(d), beta, (40, 40))
        rows.append({"delta": float(d),
                     "oscillation_sq": first_sup(a2_products(wt, fam) - 1.0)[0]})
    return rows


def b_norm_delta_sweep(deltas) -> list[dict]:
    """Max correction norm ||B|| per chart slope for the unit coefficient
    (ellipticity nu = 1/2), for the exponent fit, with the
    ``coefficient-pushforward`` report it was read from."""
    rows = []
    for d in deltas:
        rep = pushforward_coefficients(float(d), lambda x, t: np.eye(2), 0.5)
        rows.append({"delta": float(d), "b_norm": rep.rows[1].lhs, "report": rep})
    return rows


def admissible_radius_search(delta: float, beta: Weight,
                             R: float, t0: float, Lambda: float) -> AuditReport:
    """First radius on a decreasing grid satisfying the chart inclusions.

    A radius rho is admissible when the flattened half-ball of radius
    2*Lambda*rho, probed at 17 angles of its arc, pulls back inside B_R and
    the transformed cylinder height at that radius fits under the time t0.
    The largest admissible radius of a 24-point geometric grid is recorded;
    none existing is a failure.
    """
    wt = _transformed_weight(delta, beta)
    grid = np.geomspace(R / (4.0 * Lambda), R / (400.0 * Lambda), 24)
    angles = math.pi * (np.arange(17) + 0.5) / 17
    found = None
    for rho in grid:
        r_big = 2.0 * Lambda * rho
        ring = np.column_stack([r_big * np.cos(angles),
                                r_big * np.abs(np.sin(angles))])
        pulled = shear(delta, ring)
        inside = bool(np.max(np.linalg.norm(pulled, axis=1)) <= R)
        p0 = N0 / 2.0
        h_big = r_big ** 2 * wt.mean(p0, np.zeros(2), r_big) ** (2.0 / N0)
        if inside and h_big <= t0:
            found = float(rho)
            break
    # every grid radius is below the budget R / (2 Lambda): none found fails
    row = AuditRow.at_most("first-admissible-radius",
                           found if found is not None else math.inf,
                           R / (2.0 * Lambda),
                           extra={"grid_extent": [float(grid[0]), float(grid[-1])]})
    return AuditReport.from_rows(
        "admissible-chart-radius", [row],
        params={"R": R, "t0": t0, "Lambda": Lambda, "delta": delta})
