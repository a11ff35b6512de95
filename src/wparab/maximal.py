"""Maximal functions over centered weighted cylinders, Vitali selection,
and the level-set decay experiment.

The maximal function of a field g at z = (x, t) is the sup over radii of
the average of |g| over the centered cylinder C_rho(z); fields restricted
to a set U contribute through g * chi_U while the normalizer stays the
full cylinder measure |C_rho(z)| = 2 rho h_x(rho) in one space dimension.
The sup over rho > 0 is discretized on a radius grid, so computed values
are lower bounds of the true maximal function.

The decay experiment tabulates the level-set recursion

    |{M(g) > K^m}| <= l0^m |{M(g) > 1}|
                      + sum_{i=1..m} l0^i |{M(f) > K^{m-i} dhat^2}|,

with l0 = gamma1 * q0, and fits the smallest gamma1 making every row hold.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion, PreconditionFailed
from .geometry import QuasiMetricParams, WeightedCylinder, height
from .report import AuditReport, AuditRow
from .weights import Weight, _locate as _uniform_locate


@dataclass
class SpaceTimeField:
    """Cell-wise values on a uniform space-time grid; :func:`summed_area`
    gives exact rectangle integrals of |values| as a piecewise constant."""

    x_edges: np.ndarray
    t_edges: np.ndarray
    values: np.ndarray  # (nt, nx), constant per cell

    def __post_init__(self) -> None:
        self.x_edges = np.asarray(self.x_edges, dtype=float)
        self.t_edges = np.asarray(self.t_edges, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        nt, nx = self.values.shape
        if self.x_edges.size != nx + 1 or self.t_edges.size != nt + 1:
            raise ValueError("edge arrays do not match the value grid")
        # cell_area, l1_norm and the level-set measures take every cell as equal
        for name, edges in (("x", self.x_edges), ("t", self.t_edges)):
            d = np.diff(edges)
            if not (np.all(d > 0.0) and np.allclose(d, d[0], rtol=1e-9, atol=0.0)):
                raise ValueError(f"{name} edges must be increasing and uniform")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def cell_area(self) -> float:
        return float((self.x_edges[1] - self.x_edges[0])
                     * (self.t_edges[1] - self.t_edges[0]))

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        xm = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        tm = 0.5 * (self.t_edges[:-1] + self.t_edges[1:])
        gx, gt = np.meshgrid(xm, tm)
        return gx.ravel(), gt.ravel()

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.cell_area)


def summed_area(f: SpaceTimeField) -> np.ndarray:
    """Integrals of |f| over [t_edges[0], t] x [x_edges[0], x] at every grid
    node, shape (nt + 1, nx + 1)."""
    dx, dt = np.diff(f.x_edges), np.diff(f.t_edges)
    cells = np.abs(f.values) * dt[:, None] * dx[None, :]
    sat = np.zeros((len(f.t_edges), len(f.x_edges)))
    sat[1:, 1:] = np.cumsum(np.cumsum(cells, axis=0), axis=1)
    return sat


def _locate(edges: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and fraction of ``v`` along one grid axis, with ``v``
    clipped to the grid."""
    v = np.minimum(np.maximum(v, edges[0]), edges[-1])
    # the uniform lookup puts v = edges[-1] in the cell past the last
    i = np.minimum(_uniform_locate(v, edges), len(edges) - 2)
    return i, (v - edges.take(i)) / np.diff(edges).take(i)


def maximal_function_batch(fields: Sequence[SpaceTimeField], beta: Weight,
                           X: np.ndarray, T: np.ndarray, radii: np.ndarray,
                           window: tuple[float, float, float, float] | None = None,
                           ) -> np.ndarray:
    """Vectorized maximal function of several fields at many points.

    The fields share their grid, so every cylinder bound is located once for
    all of them. Returns shape ``(len(fields),) + X.shape``.

    ``window`` restricts the field to a rectangle (the chi_U convention);
    the cylinder measure in the denominator is never restricted.
    """
    if len(fields) == 0 or not all(np.array_equal(f.x_edges, fields[0].x_edges)
                                   and np.array_equal(f.t_edges, fields[0].t_edges)
                                   for f in fields[1:]):
        raise ValueError("fields must be a non-empty sequence on one grid")
    x_edges, t_edges = fields[0].x_edges, fields[0].t_edges
    if len(radii) == 0:
        raise ValueError("radius grid must be non-empty")
    if not np.all(np.asarray(radii, float) > 0.0):
        raise ValueError(f"radii must be positive, got {radii}")
    X, T = np.asarray(X, float), np.asarray(T, float)
    sats = [summed_area(f) for f in fields]
    best = np.zeros((len(fields),) + X.shape)
    # fields on a grid repeat each x once per time row: heights depend on x only
    xu, inverse = np.unique(X, return_inverse=True)
    for rho in radii:
        hu = height(beta, xu, rho)
        if not np.all(hu > 0.0):
            raise EmptyRegion(f"cylinders of radius {rho} have zero height "
                              "where the weight has no mass")
        h = hu[inverse]
        # spatial bounds depend on x only too: locate them once per distinct x
        a, b = xu - rho, xu + rho
        s, e = T - 0.5 * h, T + 0.5 * h
        if window is not None:
            w_a, w_b, w_s, w_e = window
            a, b = np.maximum(a, w_a), np.minimum(b, w_b)
            s, e = np.maximum(s, w_s), np.minimum(e, w_e)
            b, e = np.maximum(a, b), np.maximum(s, e)
        ia, fa = _locate(x_edges, a)
        ib, fb = _locate(x_edges, b)
        # each table interpolated in x once per distinct x, at b and at a
        cols = [[((1 - f) * sat[:, i] + f * sat[:, i + 1]).ravel()
                 for i, f in ((ib, fb), (ia, fa))] for sat in sats]
        # ((S(b,e) - S(a,e)) - S(b,s)) + S(a,s) by time bound; 0 + S and -S
        # are exact (S >= 0), so the sum rounds as that expression does
        num = np.zeros_like(best)
        for sign, t in ((1.0, e), (-1.0, s)):
            it, ft = _locate(t_edges, t)
            lo = it * xu.size + inverse  # flat index of the node below in cols
            hi, gt = lo + xu.size, 1 - ft
            for num_k, (cb, ca) in zip(num, cols):
                num_k += sign * (gt * cb.take(lo) + ft * cb.take(hi))
                num_k -= sign * (gt * ca.take(lo) + ft * ca.take(hi))
        del cols, it, ft, lo, hi, gt  # free them before the next radius
        num /= 2.0 * rho * h
        np.maximum(best, num, out=best)
    return best


def default_radius_grid(g: SpaceTimeField) -> np.ndarray:
    """24 log-spaced radii from two cells to the field's spatial width."""
    dx = g.x_edges[1] - g.x_edges[0]
    width = g.x_edges[-1] - g.x_edges[0]
    return np.geomspace(2.0 * dx, width, 24)


def weak_1_1_audit(fields: Sequence[SpaceTimeField], beta: Weight, lambdas,
                   budget: float) -> list[AuditReport]:
    """Weak (1,1) bound of the maximal operator, one report per field; the
    fields share one grid and one :func:`maximal_function_batch` call over
    the :func:`default_radius_grid` of the first.

    For each level lambda reports lambda * |{Mg > lambda}| against the L^1
    norm of g; the audit constant is the worst ratio and is recorded, not
    asserted against any theoretical value (unless a budget is supplied).
    """
    radii = default_radius_grid(fields[0])
    X, T = fields[0].cell_centers()
    reports = []
    for g, mg in zip(fields, maximal_function_batch(fields, beta, X, T, radii)):
        l1 = g.l1_norm()
        rows = []
        for lam in lambdas:
            meas = _levelset_measure(mg, lam, g.cell_area)
            rows.append(AuditRow.bound(
                f"level-{lam:g}", lam * meas, l1, budget,
                extra={"lambda": float(lam), "levelset_measure": meas}))
        worst = float(np.max([0.0] + [r.constant for r in rows]))  # a NaN row stays NaN
        rows.append(AuditRow.at_most("weak-11-constant", worst, budget))
        reports.append(AuditReport.from_rows(
            "maximal-weak-1-1", rows,
            params={"n_points": int(X.size), "n_radii": int(len(radii)),
                    "l1_norm": l1}))
    return reports


def _rect_intersect(r1, r2) -> bool:
    # strict comparisons: shared edges carry zero measure and do not count
    a1, b1, s1, e1 = r1
    a2, b2, s2, e2 = r2
    return a1 < b2 and a2 < b1 and s1 < e2 and s2 < e1


def vitali_select(cylinders: list[WeightedCylinder]) -> list[int]:
    """Greedy Vitali selection in decreasing radius order; returns the
    indices of the selected cylinders in selection order.

    Selected cylinders are pairwise disjoint (exact interval arithmetic);
    every input cylinder intersects a selected one of radius at least its
    own. Ties in radius break by input order.
    """
    order = sorted(range(len(cylinders)),
                   key=lambda i: (-cylinders[i].r, i))
    selected: list[int] = []
    extents = [c.region() for c in cylinders]
    for i in order:
        if all(not _rect_intersect(extents[i], extents[j]) for j in selected):
            selected.append(i)
    return selected


def five_rho_cover_audit(cylinders: list[WeightedCylinder], selected: list[int],
                         beta: Weight) -> AuditReport:
    """Verify disjointness and the 5-rho covering property by sampling.

    Every point of a 7 x 7 lattice on every input cylinder must land in some
    selected cylinder (indices into ``cylinders``) dilated to five times its radius.
    """
    # disjointness of the selection, exact interval arithmetic
    overlaps = 0
    for i_pos, i in enumerate(selected):
        for j in selected[i_pos + 1:]:
            if _rect_intersect(cylinders[i].region(), cylinders[j].region()):
                overlaps += 1
    dilated = [WeightedCylinder(cylinders[i].x0, cylinders[i].t0, 5.0 * cylinders[i].r,
                                beta, variant="C") for i in selected]
    # each lattice point (cylinder, x, t) against each dilated cylinder
    a, b, s, e = np.array([c.region() for c in cylinders]).reshape(-1, 4).T
    da, db, ds, de = np.array([d.region() for d in dilated]).reshape(-1, 4).T
    gx = np.linspace(a, b, 7, axis=-1)[:, :, None, None]
    gt = np.linspace(s, e, 7, axis=-1)[:, None, :, None]
    in_x = (da <= gx) & (gx <= db)
    in_t = (ds <= gt) & (gt <= de)
    uncovered = int(np.count_nonzero(~(in_x & in_t).any(axis=-1)))
    rows = [AuditRow.count("selected-pairwise-disjoint", overlaps),
            AuditRow.count("five-rho-cover", uncovered)]
    return AuditReport.from_rows(
        "vitali-covering-selection", rows,
        params={"n_input": len(cylinders), "n_selected": len(selected),
                "note": "cover verified for the finite selected family; "
                        "the continuum statement ranges over all cylinders"})


def _levelset_measure(values: np.ndarray, threshold: float, area: float) -> float:
    return float(np.sum(values > threshold) * area)


def levelset_decay_audit(grad_sq: SpaceTimeField, force_sq: SpaceTimeField,
                         beta: Weight, K: float, q0: float, m_max: int,
                         quasi: QuasiMetricParams,
                         center: float, t_top: float,
                         r_unit: float, delta_hat: float) -> AuditReport:
    """Level-set decay table for the maximal function of |grad u|^2.

    Evaluates M(g chi_U) on U = Q_{2 Lambda r}(z_top), with Lambda from the
    fitted ``quasi`` and radii from :func:`default_radius_grid`, restricted
    to the unit cylinder Q_r(z_top), normalizes
    so the base density condition holds (the raw condition is reported),
    and fits the smallest gamma1 for which the decay recursion holds for
    every m = 1..m_max. Takes K > 1, 0 < q0 < 1 and m_max >= 1, as
    ``config.PARAMS`` checks them.
    """
    lam = quasi.Lambda
    big_r = 2.0 * lam * r_unit
    h_big = height(beta, center, big_r).item()
    window = (center - big_r, center + big_r, t_top - h_big, t_top)
    radii = default_radius_grid(grad_sq)

    # every measure below is taken on Q_1, and each point's value depends on
    # its own (x, t) only: evaluate the Q_1 cells alone
    X, T = grad_sq.cell_centers()
    h_unit = height(beta, center, r_unit).item()
    in_q1 = ((np.abs(X - center) <= r_unit)
             & (T <= t_top) & (T > t_top - h_unit))
    mg, mf = maximal_function_batch([grad_sq, force_sq], beta, X[in_q1], T[in_q1],
                                    radii, window=window)
    area = grad_sq.cell_area
    q1_measure = 2.0 * r_unit * h_unit

    raw_s = _levelset_measure(mg, K, area)
    precondition_ok = raw_s <= q0 * q1_measure
    norm = 1.0
    if not precondition_ok:
        # doubling normalization, mirroring the division of u and F by N0
        while _levelset_measure(mg / norm, K, area) > q0 * q1_measure:
            norm *= 2.0
            if norm > 2.0 ** 120:
                raise PreconditionFailed("normalization failed to shrink the level set")
    mg_n = mg / norm
    mf_n = mf / norm

    lhs = [_levelset_measure(mg_n, K ** m, area) for m in range(1, m_max + 1)]
    base = _levelset_measure(mg_n, 1.0, area)
    f_meas = {j: _levelset_measure(mf_n, (K ** j) * delta_hat ** 2, area)
              for j in range(0, m_max)}

    def rhs(gamma1: float, m: int) -> float:
        l0 = gamma1 * q0
        return (l0 ** m * base
                + sum(l0 ** i * f_meas[m - i] for i in range(1, m + 1)))

    grid = np.geomspace(1e-4, 1e6, 241)
    fitted = None
    for gamma1 in grid:
        if all(lhs[m - 1] <= rhs(gamma1, m) * (1.0 + 1e-12) + 1e-300
               for m in range(1, m_max + 1)):
            fitted = float(gamma1)
            break
    table = []
    rows = [AuditRow(
        label="base-density", lhs=raw_s, rhs=q0 * q1_measure, constant=norm,
        budget=q0 * q1_measure, passed=bool(precondition_ok),
        extra={"normalization": norm, "note": "reported, not fatal"})]
    monotone = all(b >= a for a, b in zip(lhs[1:], lhs[:-1]))
    if fitted is not None:
        for m in range(1, m_max + 1):
            r_val = rhs(fitted, m)
            table.append([m, lhs[m - 1], r_val, fitted])
            rows.append(AuditRow(
                label=f"decay-m-{m}", lhs=lhs[m - 1], rhs=r_val, constant=fitted,
                budget=fitted, passed=bool(lhs[m - 1] <= r_val * (1 + 1e-12) + 1e-300)))
    rows.append(AuditRow.at_most(
        "gamma1-finite", fitted if fitted is not None else math.inf, float(grid[-1])))
    rows.append(AuditRow.count("monotone-decay", 0 if monotone else 1))
    report = AuditReport.from_rows(
        "levelset-decay-recursion", rows,
        params={"K": K, "q0": q0, "m_max": m_max, "delta_hat": delta_hat,
                "Lambda": lam, "r_unit": r_unit, "normalization": norm,
                "table": table})
    # base-density is informational; the verdict covers the decay rows
    report.passed = all(r.passed for r in rows[1:])
    return report
