"""Mean-oscillation functionals for the coefficient and the weight.

For the weight, the ball-wise squared oscillation

    theta_beta(B) = (1/b(B)) ∫_B |b - (b)_B|^2 b^{-1} dx

collapses algebraically to (b)_B (b^{-1})_B - 1, so it is read from the
A_2 product of ``weights.a2_products``. For the coefficient, a scalar in
this 1D code, the average is partial: on a cylinder the coefficient is
centered per time slice around its spatial mean over B_rho(x0) ∩ Omega, so
purely time-dependent coefficients register zero oscillation.

The supremal functionals discretize the sup over centers and radii on a
finite lattice and are therefore lower bounds; the smallness gate compares
their sum against a configured threshold delta.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyRegion
from .geometry import height
from .report import AuditReport, AuditRow
from .weights import BallFamily, Weight, a2_products, ball_grid, first_sup

# Cylinders per theta_A_ms pass in oscillation_supremum. At its
# 17 x 33 nodes a scalar coefficient takes 4.5 KB per cylinder and node
# array, so 32 cylinders keep a pass's traced peak near 0.5 MB (1 MB at 64,
# 23 MB for the whole 1,632-cylinder lattice at once). On a 2-vCPU VM the
# power-weight supremum took 12-23 ms at 32 to 128 cylinders a pass and
# 28-29 ms at 256.
CYLINDER_BLOCK = 32


def theta_beta_ms(beta: Weight, x0, r: float) -> float:
    """Ball-wise squared weighted mean oscillation of the weight: the A_2
    product over B_r(x0) ∩ domain less one; zero for constant weights."""
    return max(float(a2_products(beta, BallFamily.centered(x0, [r]))[0]) - 1.0, 0.0)


def sample_broadcast(fn, x, t, shape: tuple) -> np.ndarray:
    """``fn(x, t)`` as a contiguous array of ``shape``, from one broadcasting
    call: every sampled coefficient and forcing. ``x`` and ``t`` are laid out
    to broadcast to ``shape``, and so must the result (a scalar is fine)."""
    vals = np.asarray(fn(x, t), dtype=float)
    try:
        # C order: each row is reduced as one contiguous slice, like a 1D array
        return np.array(np.broadcast_to(vals, shape), order="C")
    except ValueError as exc:
        raise ValueError(f"coefficient returned shape {vals.shape}, which is not "
                         f"a scalar field broadcasting to {shape}") from exc


def theta_A_ms(A_fun, x0, t0, r, h, mask):
    """Squared partial mean oscillation of the coefficient on a batch of
    cylinders.

    The cylinder Q_{r,beta}(x0, t0) is B_r(x0) times (t0 - h, t0], where h
    is the weight's cylinder height h_{x0}(r) (``geometry.height``). The
    centres ``x0`` and ``t0``, ``r`` and ``h`` are floats or 1D arrays that
    broadcast over cylinders.

    ``A_fun(x, t)`` must broadcast like a numpy ufunc: it is called once, as
    ``A_fun(xs[:, None, :], ts[:, :, None])`` on the space and time nodes of
    every cylinder (17 midpoint nodes in time, 33 in space), and returns a
    scalar field that broadcasts to (cylinders, 17, 33). Each cylinder is
    clipped to ``mask`` =
    (x_lo, x_hi, t_lo, t_hi); within each time slice the coefficient is
    centered around its spatial average over B_r(x0) ∩ Omega, and the
    squared deviation is averaged over the clipped cylinder.

    One cylinder gives a float and raises ``EmptyRegion`` if it misses the
    mask; a batch gives an array holding NaN for such cylinders.
    """
    x0, t0, r, h = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                         for v in (x0, t0, r, h)))
    x_lo, x_hi, t_lo, t_hi = mask
    a = np.maximum(x0 - r, x_lo)
    b = np.minimum(x0 + r, x_hi)
    s_lo = np.maximum(t0 - h, t_lo)
    s_hi = np.minimum(t0, t_hi)
    met = (a < b) & (s_lo < s_hi)
    if x0.ndim == 0 and not met:
        raise EmptyRegion("cylinder does not meet the masked domain")
    a, b, s_lo, s_hi = (v[met][:, None] for v in (a, b, s_lo, s_hi))
    # midpoint nodes: a genuine midpoint rule in space and time
    n_space, n_time = 33, 17
    xs = a + (b - a) * (np.arange(n_space) + 0.5) / n_space
    ts = s_lo + (s_hi - s_lo) * (np.arange(n_time) + 0.5) / n_time
    vals = sample_broadcast(A_fun, xs[:, None, :], ts[:, :, None],
                            (xs.shape[0], n_time, n_space))
    dev = vals - vals.mean(axis=2, keepdims=True)
    out = np.full(x0.shape, np.nan)
    out[met] = np.mean(dev ** 2, axis=(1, 2))
    return float(out) if out.ndim == 0 else out


def oscillation_supremum(A_fun, beta: Weight, R0: float, delta: float,
                         mask) -> AuditReport:
    """Supremal oscillation functionals and the smallness gate.

    Maximizes sqrt(theta_A_ms) over (center, radius) on the lattice of 17
    centres across the mask and 24 geometric radii from two lattice spacings
    (R0/2 at most) to just below R0, and sqrt(theta_beta_ms) likewise;
    passes iff their sum is below delta.
    """
    x_lo, x_hi, t_lo, t_hi = mask
    grid_points = np.linspace(x_lo, x_hi, 17)
    radii = np.geomspace(min(2.0 * (x_hi - x_lo) / 16, 0.5 * R0),
                         R0 * (1.0 - 1e-9), 24)

    # theta_beta_ms of every lattice ball at once
    fam = BallFamily(grid_points[:, None], radii)
    sup_b, k = first_sup(a2_products(beta, fam) - 1.0)
    worst_b = None if k is None else (float(grid_points[k // radii.size]),
                                      float(radii[k % radii.size]))
    t_centers = np.linspace(t_lo + (t_hi - t_lo) * 0.25, t_hi, 4)
    # one height per (center, radius), shared by its time centres; the
    # cylinders run centre-major, then radius, then time centre
    centers, rs = ball_grid(grid_points[:, None], radii)
    heights = height(beta, centers[:, 0], rs)
    x0s, rs, heights = (np.repeat(v, t_centers.size) for v in (centers[:, 0], rs, heights))
    tcs = np.tile(t_centers, len(centers))
    th_a = np.concatenate([
        theta_A_ms(A_fun, x0s[i:i + CYLINDER_BLOCK], tcs[i:i + CYLINDER_BLOCK],
                   rs[i:i + CYLINDER_BLOCK], heights[i:i + CYLINDER_BLOCK], mask)
        for i in range(0, tcs.size, CYLINDER_BLOCK)])
    # cylinders that miss the mask hold NaN, which never wins
    sup_a, k = first_sup(th_a)
    worst_a = None if k is None else (float(x0s[k]), float(tcs[k]), float(rs[k]))
    theta_a = float(np.sqrt(sup_a))
    theta_b = float(np.sqrt(sup_b))
    total = theta_a + theta_b
    # the terms are non-negative, so the strict gate decides the verdict
    rows = [
        AuditRow.at_most("matrix-partial-oscillation", theta_a, delta,
                         extra={"worst": worst_a}),
        AuditRow.at_most("weight-mean-oscillation", theta_b, delta,
                         extra={"worst": worst_b}),
        AuditRow(label="smallness-gate", lhs=total, rhs=delta, constant=total,
                 budget=delta, passed=bool(total < delta)),
    ]
    return AuditReport.from_rows(
        "oscillation-smallness-gate", rows,
        params={"R0": R0, "delta": delta, "n_radii": radii.size})
