"""Standalone numerical verification of weighted functional inequalities
on synthetic closed-form test functions, passed as plain callables that
broadcast over arrays of points.

Three checks, each reporting an empirical constant:

  * unweighted L^{2/(q-gamma)} control by the weighted L^2 norm for an
    A_q weight,
  * the weighted L^2 embedding against a higher unweighted power with
    exponent s = 2(1+gamma)/gamma, the case n <= 2 of the paper,
  * the space-time interpolation bound
    (1/(b)_B) avg_Q u^2 b <= N (avg u^2)^{1-th} [(avg u^2)^th
                                  + r^{2th} (avg |grad u|^2)^th].

Weighted integrals use composite 16-point Gauss-Legendre on a mesh graded
toward the weight's singular point, with the innermost slab integrated in
closed form; no audit uses exact monomial antiderivatives.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EmptyBall, GateFailed
from .report import AuditReport, AuditRow
from .weights import BallFamily, Weight, aq_characteristic, reverse_holder_gamma

_SLAB = 1e-10  # relative half-width of the analytic innermost slab
# 16-point Gauss-Legendre nodes and weights on [-1, 1], per graded cell
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _graded_cells(a: float, b: float, singular: float | None) -> np.ndarray:
    """Edges of 48 cells on [a, b], geometrically graded toward a singular point.

    The slab (singular - eps, singular + eps) is excluded; its contribution
    is added in closed form by :func:`weighted_integral`.
    """
    if singular is None or not a < singular < b:
        return np.linspace(a, b, 49)
    left = singular - (singular - a) * np.geomspace(1.0, _SLAB, 25)
    right = singular + (b - singular) * np.geomspace(_SLAB, 1.0, 25)
    return np.unique(np.concatenate([[a], left, right, [b]]))


def weighted_integral(fn, weight: Weight | None, interval) -> float:
    """int fn(x) * w(x) dx over the interval.

    Composite 16-point Gauss-Legendre on a mesh graded toward a power
    weight's singular point; the innermost slab around the singularity is
    integrated in closed form with fn frozen at the center, so slowly
    decaying masses (alpha near -1) are not lost.
    """
    a, b = interval
    singular = None
    if weight is not None and weight.kind == "power":
        c = weight.center[0]
        singular = c if a < c < b else None
    edges = _graded_cells(a, b, singular)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    keep = half > 0.0
    if singular is not None:
        keep &= ~((lo < singular) & (singular < hi))  # the slab cell, below
    mid, half = mid[keep], half[keep]
    # all kept cells' nodes in one (cells, 16) array, a cell per row
    xq = mid[:, None] + half[:, None] * _GL16_NODES
    vals = np.asarray(fn(xq), dtype=float)
    if weight is not None:
        vals = vals * weight(xq)
    total = float(np.sum(half * np.sum(_GL16_WEIGHTS * vals, axis=-1)))
    if singular is not None:
        q = weight.alpha
        if q <= -1.0:
            raise ValueError("non-integrable power inside the interval")
        eps_l = (singular - a) * _SLAB
        eps_r = (b - singular) * _SLAB
        f_c = float(np.asarray(fn(np.array([singular]))).ravel()[0])
        total += (f_c * weight.scale
                  * (eps_l ** (1.0 + q) + eps_r ** (1.0 + q))
                  / (1.0 + q))
    return total


def _ball_interval(w: Weight, x0: float, r: float) -> tuple[float, float]:
    """B_r(x0) ∩ domain as (a, b); EmptyBall if it is empty."""
    a = max(x0 - r, w.domain[0][0])
    b = min(x0 + r, w.domain[0][1])
    if not a < b:
        raise EmptyBall(f"ball B_{r}({x0}) misses the domain")
    return a, b


def weighted_lq_control_audit(g, mu: Weight, q: float,
                              ball: tuple[float, float, float], gamma: float,
                              M0: float, fam: BallFamily,
                              budget: float) -> AuditReport:
    """Unweighted low-exponent average controlled by the weighted L^2 norm.

    lhs = (avg_B |g|^{2/(q-gamma)})^{(q-gamma)/2},
    rhs = ((1/mu(B)) int_B g^2 mu)^{1/2}; the constant must stay finite and
    stable under the dilations 1, 1/2 and 1/4 of the ball. Requires mu in
    A_q within the budget M0 and gamma below q - 1.
    """
    if not 1.0 < q <= 2.0:
        raise GateFailed("exponent q must lie in (1, 2]")
    if not 0.0 < gamma < q - 1.0:
        raise GateFailed(f"gamma must lie in (0, q-1); got {gamma}")
    char = aq_characteristic(mu, q, fam)
    if char > M0:
        raise GateFailed(f"A_q characteristic {char} exceeds budget {M0}")
    rh = reverse_holder_gamma(mu, fam, budget=2.0 * max(char, 1.0))
    gamma_flag = gamma > rh > 0.0
    x0, _, r0 = ball
    rows = []
    consts = []
    exp_low = 2.0 / (q - gamma)
    for d in (1.0, 0.5, 0.25):
        r = r0 * d
        a, b = _ball_interval(mu, x0, r)
        lhs = (weighted_integral(lambda x: np.abs(g(x)) ** exp_low, None, (a, b))
               / (b - a)) ** ((q - gamma) / 2.0)
        mu_mass = float(mu.mass_1d_vec(1.0, x0 - r, x0 + r))
        wsq = weighted_integral(lambda x: g(x) ** 2, mu, (a, b))
        rhs = math.sqrt(wsq / mu_mass)
        n_emp = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
        consts.append(n_emp)
        rows.append(AuditRow(
            label=f"dilation-{d:g}", lhs=lhs, rhs=rhs, constant=n_emp,
            budget=budget, passed=bool(math.isfinite(n_emp) and n_emp <= budget)))
    spread = (max(consts) / min(consts)) if min(consts) > 0 else 1.0
    rows.append(AuditRow(label="dilation-stability", lhs=spread, rhs=10.0,
                         constant=spread, budget=10.0, passed=bool(spread <= 10.0)))
    return AuditReport.from_rows(
        "weighted-lq-control", rows,
        params={"q": q, "gamma": gamma, "aq_characteristic": char,
                "reverse_holder_gamma": rh, "gamma_exceeds_estimate": gamma_flag})


def weighted_embedding_audit(g, beta: Weight, gamma: float,
                             budget: float) -> AuditReport:
    """Weighted L^2 mass controlled by a higher unweighted power, in the
    low-dimensional case (n <= 2) of the paper: s = 2(1+gamma)/gamma,
    lhs = (1/b(B)) int g^2 b, rhs = (avg |g|^s)^{2/s}, on the ball B_1(0).
    """
    if gamma <= 0.0:
        raise GateFailed("gamma must be positive for the low case")
    s = 2.0 * (1.0 + gamma) / gamma
    x0, r = 0.0, 1.0
    a, b = _ball_interval(beta, x0, r)
    mass = float(beta.mass_1d_vec(1.0, x0 - r, x0 + r))
    lhs = weighted_integral(lambda x: g(x) ** 2, beta, (a, b)) / mass
    rhs = (weighted_integral(lambda x: np.abs(g(x)) ** s, None, (a, b))
           / (b - a)) ** (2.0 / s)
    n_emp = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    row = AuditRow(label="embedding-low", lhs=lhs, rhs=rhs, constant=n_emp,
                   budget=budget,
                   passed=bool(math.isfinite(n_emp) and n_emp <= budget))
    return AuditReport.from_rows(
        "weighted-embedding", [row],
        params={"case": "low", "gamma": gamma, "s": s})


def interpolation_audit(u, u_x, beta: Weight, x0: float, r: float,
                        t_span: tuple[float, float], budget: float) -> AuditReport:
    """Weighted space-time mass of ``u(x, t)``, with spatial gradient
    ``u_x(x, t)``, against the interpolation right-hand side.

    Reports the smallest admissible constant over the theta grid 0.05,
    0.1, ..., 0.95 and the minimizing theta. The spatial slice is the whole
    ball B_r(x0) ∩ domain, which the report records as ``half: false``.
    """
    a, b = _ball_interval(beta, x0, r)
    s_t, e_t = t_span
    nt = 12
    tq = s_t + (e_t - s_t) * (np.arange(nt) + 0.5) / nt

    def time_avg(fn) -> float:
        return float(np.mean([fn(t) for t in tq]))

    beta_mean = beta.mean(1.0, x0, r)
    length = b - a
    avg_u2b = time_avg(lambda t: weighted_integral(
        lambda x: u(x, t) ** 2, beta, (a, b)) / length)
    avg_u2 = time_avg(lambda t: weighted_integral(
        lambda x: u(x, t) ** 2, None, (a, b)) / length)
    avg_g2 = time_avg(lambda t: weighted_integral(
        lambda x: u_x(x, t) ** 2, None, (a, b)) / length)
    lhs = avg_u2b / beta_mean
    best = None
    for th in np.linspace(0.05, 0.95, 19):
        rhs = avg_u2 ** (1.0 - th) * (avg_u2 ** th + r ** (2.0 * th) * avg_g2 ** th)
        n_emp = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
        if best is None or n_emp < best[1]:
            best = (float(th), n_emp)
    theta_star, n_star = best
    row = AuditRow(label="interpolation-bound", lhs=lhs,
                   rhs=lhs / n_star if n_star > 0 else 0.0, constant=n_star,
                   budget=budget,
                   passed=bool(math.isfinite(n_star) and n_star <= budget),
                   extra={"theta_min": theta_star, "avg_u2": avg_u2,
                          "avg_grad2": avg_g2, "half": False})
    return AuditReport.from_rows(
        "weighted-interpolation", [row],
        params={"r": r, "x0": x0, "half": False})
