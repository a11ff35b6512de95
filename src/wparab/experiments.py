"""Reusable experiment drivers: manufactured solutions, convergence and
refinement sweeps, the frozen-comparison amplitude sweep, and the level-set
experiment wiring.

The manufactured solution is u*(x,t) = sin(pi x) e^{-t} on (0,1); its
forcing is built so the flux divergence matches b u*_t - (a u*_x)_x
exactly, using a closed-form series for the weighted antiderivatives
int |s-c|^alpha sin(pi s) ds, so the construction stays analytic even for
degenerate weights. The forcing separates as F(x, t) = e^{-t} g(x): the
spatial profile g is evaluated once per face and the decay once per time
level, and each entry of F is their product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WeightedCylinder
from .solver import (
    CoefficientField,
    Grid,
    SolutionField,
    forcing_from_callable,
    freeze_compare,
    sinusoidal_coefficient,
    solve_ivbp,
)
from .weights import Weight


def _series_int_pow_trig(alpha: float, y: float, odd: bool) -> float:
    """int_0^y u^alpha cos(pi u) du, or sin(pi u) if ``odd``, for y in [0, 1].

    Integrates the first 24 terms of the Taylor series of the trig factor
    term by term; term k carries the power pi^j / j! with j = 2k (cosine) or
    2k + 1 (sine).
    """
    total = 0.0
    sign = 1.0
    fact = 1.0
    for k in range(24):
        j = 2 * k + odd
        if k > 0:
            fact *= (j - 1) * j
            sign = -sign
        power = j + 1 + alpha
        total += sign * math.pi ** j / fact * y ** power / power
    return total


def int_power_sin(alpha: float, c: float, x: float) -> float:
    """int_0^x |s - c|^alpha sin(pi s) ds, closed series form.

    Split sin(pi s) around the profile center:
    sin(pi s) = sin(pi c) cos(pi u) + cos(pi c) sin(pi u) with u = s - c.
    """
    sc, cc = math.sin(math.pi * c), math.cos(math.pi * c)

    def even_part(y: float) -> float:  # int_0^y |u|^a cos(pi u) du, odd extension
        return math.copysign(_series_int_pow_trig(alpha, abs(y), odd=False), y)

    def odd_part(y: float) -> float:   # int_0^y |u|^a sin(pi u) du, even extension
        return _series_int_pow_trig(alpha, abs(y), odd=True)

    u1, u0 = x - c, -c
    return (sc * (even_part(u1) - even_part(u0))
            + cc * (odd_part(u1) - odd_part(u0)))


@dataclass
class ManufacturedCase:
    """u* = sin(pi x) e^{-t} with forcing matched to the weight."""

    beta: Weight

    def exact(self, x, t):
        """sin(pi x) e^{-t}, broadcast over x and t, with ``math.exp`` per level."""
        decay = np.array([math.exp(-s) for s in np.ravel(t)]).reshape(np.shape(t))
        return np.sin(math.pi * np.asarray(x)) * decay

    def profile(self, x) -> float:
        """Spatial factor g of the forcing F(x, t) = e^{-t} g(x)."""
        x = float(x)
        if self.beta.kind == "power" and self.beta.alpha == 0.0:
            scale = self.beta.scale
            return (-math.cos(math.pi * x) * math.pi
                    - scale * (-math.cos(math.pi * x) / math.pi))
        alpha, c, scale = self.beta.alpha, self.beta.center[0], self.beta.scale
        g = -scale * int_power_sin(alpha, c, x)
        return -math.pi * math.cos(math.pi * x) + g

    def solve(self, nx: int, nt: int, t_final: float) -> tuple[SolutionField, float]:
        grid = Grid(x0=0.0, x1=1.0, nx=nx, t_final=t_final, nt=nt)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        decay = np.array([math.exp(-t) for t in grid.t])
        g = np.array([self.profile(x) for x in grid.faces])
        F = decay[:, None] * g[None, :]
        u = solve_ivbp(self.beta, A, F, grid, initial=self.exact(grid.x, 0.0))
        err = space_time_l2_error(u, self.exact)
        return u, err


def space_time_l2_error(u: SolutionField, exact) -> float:
    """Discrete L^2 error over the implicit levels t_k, k >= 1, against
    ``exact(x, t)``, which must broadcast over (levels, nodes)."""
    grid = u.grid
    diff = exact(grid.x[None, :], grid.t[1:, None])
    np.subtract(u.u[1:], diff, out=diff)
    diff **= 2
    return math.sqrt(u.integral(diff))


def default_nt(nx: int, t_final: float) -> int:
    """Time steps of a manufactured solve on [0, 1] x [0, t_final] when the
    config sets none: tau close to h^2, and at least 4."""
    return max(round(t_final * nx * nx), 4)


def convergence_study(beta: Weight, levels: list[int], t_final: float,
                      use, between) -> list[dict]:
    """Dyadic refinement sweep with tau close to h^2, one level at a time.

    Solves the last (finest) level first, then the others in their order.
    Each solution goes to ``use(nx, nt, u)`` as soon as it is solved and is
    not kept here, so no two levels are alive at once unless ``use`` keeps
    one. ``between()`` runs once the first solution is dropped, before the
    next level is solved. Returns one row per level, in the order of
    ``levels``, with the space-time L^2 error and, from the second level on,
    the observed order against the previous level.
    """
    case = ManufacturedCase(beta)
    errors = {}

    def solve(nx: int) -> None:
        nt = default_nt(nx, t_final)
        u, errors[nx] = case.solve(nx, nt, t_final)
        use(nx, nt, u)

    solve(levels[-1])
    between()
    for nx in levels[:-1]:
        solve(nx)
    return [{"nx": nx, "nt": default_nt(nx, t_final), "error": errors[nx],
             "order": (math.log2(errors[prev] / errors[nx]) if prev is not None
                       else float("nan"))}
            for prev, nx in zip([None] + levels[:-1], levels)]


def smooth_random_forcing(seed: int):
    """A fixed smooth forcing built from six seeded mode coefficients.

    The same continuum function is evaluated on every grid, so refinement
    sweeps measure discretization effects only.
    """
    rng = np.random.default_rng(seed)
    cx = rng.uniform(-1.0, 1.0, 6)
    ct = rng.uniform(0.5, 2.0, 6)

    def fn(x, t):
        val = 0.0
        for k in range(6):
            val += cx[k] * np.sin((k + 1) * math.pi * x) * np.cos(ct[k] * t)
        return val

    return fn


def solve_driven(beta: Weight, forcing_fn, nx: int, nt: int, t_final: float,
                 a_fun) -> SolutionField:
    """Solve with zero initial data, forcing ``forcing_fn`` and conductivity
    ``a_fun`` on the unit interval.

    Both callables must broadcast like numpy ufuncs over (x, t) arrays; see
    ``forcing_from_callable``.
    """
    grid = Grid(x0=0.0, x1=1.0, nx=nx, t_final=t_final, nt=nt)
    A = CoefficientField.from_callable(a_fun, grid)
    F = forcing_from_callable(forcing_fn, grid)
    return solve_ivbp(beta, A, F, grid)


def freeze_compare_sweep(beta: Weight, amplitudes: list[float]) -> list[dict]:
    """Gradient-gap sweep over coefficient oscillation amplitudes, on the
    cylinder of radius 0.05 at (0.5, 0.05) of a 256 x 64 grid.

    The zero-amplitude row is the pure-discretization baseline: there the
    solution itself solves the frozen equation, so the measured gap is the
    local-grid and interpolation error only. The local resolution is chosen
    so this floor sits just below the smallest amplitude's effect, which
    keeps the approach to the floor visible in the sweep.
    """
    rows: list[dict] = []
    grid = Grid(x0=0.0, x1=1.0, nx=256, t_final=0.05, nt=64)
    initial = np.sin(math.pi * grid.x)
    for a in amplitudes:
        a_fun = sinusoidal_coefficient(1.0, a, 8.0)
        A = CoefficientField.from_callable(a_fun, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(beta, A, F, grid, initial=initial)
        cyl = WeightedCylinder(0.5, grid.t_final, 0.05, beta, variant="Q")
        eps_emp, delta_emp = freeze_compare(u, a_fun, cyl, nx_local=8, nt_local=4)
        rows.append({"amplitude": a, "eps_emp": eps_emp, "delta_emp": delta_emp})
    return rows


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x (positive pairs only)."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return float("nan")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])
