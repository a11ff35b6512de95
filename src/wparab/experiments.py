"""Reusable experiment drivers: manufactured solutions, convergence and
refinement sweeps, the frozen-comparison amplitude sweep, and the level-set
experiment wiring.

The manufactured solution is u*(x,t) = sin(pi x) e^{-t} on (0,1); its
forcing is built so the flux divergence matches b u*_t - (a u*_x)_x
exactly, using one series for the weighted antiderivative
int |s-c|^alpha sin(pi s) ds of every power weight, so the construction
stays analytic even for degenerate weights. The forcing separates as
F(x, t) = e^{-t} g(x): the spatial profile g is evaluated once on the faces,
and the forcing of a block of time levels is the outer product of their
decay factors with it. The march reads it one block at a time, and it is a
table only where the solution's ``F`` is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import draws
from .geometry import WeightedCylinder
from .solver import (
    CoefficientField,
    Grid,
    SolutionField,
    forcing_from_callable,
    freeze_compare,
    level_blocks,
    sinusoidal_coefficient,
    solve_ivbp,
)
from .weights import Weight

# Taylor coefficients of cos(pi u) (even j) and sin(pi u) (odd j) in one
# array: term j is (-1)^(j // 2) pi^j u^j / j!, 24 terms of each factor.
_J = np.arange(48)
_SINE = _J % 2 == 1
_TAYLOR = (-1.0) ** (_J // 2) * np.pi ** _J / np.cumprod(np.maximum(_J, 1.0))
# |x - c| up to which the series stays within 4e-13 of quadrature; it is
# 1.4e-10 off at 4 and 1e-5 at 5, so the config refuses centres beyond it.
SERIES_REACH = 3.0


def int_power_sin(alpha: float, c: float, x) -> np.ndarray:
    """int_0^x |s - c|^alpha sin(pi s) ds at every point of the array ``x``.

    With u = s - c, sin(pi s) = sin(pi c) cos(pi u) + cos(pi c) sin(pi u).
    Integrated term by term against |u|^alpha from 0 to y, the cosine
    terms give sign(y) |y|^p / p, odd in y, and the sine terms |y|^p / p,
    even in y, with p = j + 1 + alpha; both series are summed at y = x - c
    and at y = -c. Needs |x - c| <= SERIES_REACH.
    """
    p = _J + 1.0 + alpha
    coef = _TAYLOR / p * np.where(_SINE, math.cos(math.pi * c), math.sin(math.pi * c))

    def series(y):
        y = np.asarray(y, dtype=float)[..., None]
        return (np.where(_SINE, 1.0, np.sign(y)) * np.abs(y) ** p) @ coef

    return series(np.asarray(x) - c) - series(-c)


@dataclass
class ManufacturedCase:
    """u* = sin(pi x) e^{-t} with forcing matched to the weight."""

    beta: Weight

    def exact(self, x, t):
        """sin(pi x) e^{-t}, broadcast over x and t."""
        return np.sin(math.pi * np.asarray(x)) * np.exp(-np.asarray(t))

    def profile(self, faces) -> np.ndarray:
        """Spatial factor g of the forcing F(x, t) = e^{-t} g(x) on ``faces``.

        g' = (pi^2 - b) sin(pi x) fixes g up to a constant, and the scheme
        reads F only through differences of neighbouring faces. The
        constant is the one that gives g mean zero over ``faces``, a gauge
        that does not single out x = 0: mirroring the weight about 1/2 maps
        g to -g(1 - x).
        """
        alpha, c, scale = self.beta.alpha, self.beta.center[0], self.beta.scale
        g = -math.pi * np.cos(math.pi * faces) - scale * int_power_sin(alpha, c, faces)
        return g - g.mean()

    def solve(self, nx: int, nt: int, t_final: float) -> tuple[SolutionField, float]:
        """The solution on an nx x nt grid of [0, 1] x [0, t_final], whose
        forcing is computed per block of levels (a table only once its
        ``F`` is read), and its :func:`space_time_l2_error`."""
        grid = Grid(x0=0.0, x1=1.0, nx=nx, t_final=t_final, nt=nt)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        g = self.profile(grid.faces)
        u = solve_ivbp(self.beta, A, lambda rows: np.outer(np.exp(-grid.t[rows]), g),
                       grid, initial=self.exact(grid.x, 0.0))
        return u, space_time_l2_error(u, self.exact)


def space_time_l2_error(u: SolutionField, exact) -> float:
    """Discrete L^2 error over the implicit levels t_k, k >= 1, against
    ``exact(x, t)``, which must broadcast over (levels, nodes): its squares
    summed by ``np.sum`` over each of the march's blocks of levels."""
    grid, total = u.grid, 0.0
    for rows in level_blocks(grid.nt):
        diff = exact(grid.x[None, :], grid.t[rows, None])
        np.subtract(u.u[rows], diff, out=diff)
        diff **= 2
        total += float(np.sum(diff))
    return math.sqrt(total * grid.h * grid.tau)


def default_nt(nx: int, t_final: float) -> int:
    """Time steps of a manufactured solve on [0, 1] x [0, t_final] when the
    config sets none: tau close to h^2, and at least 4."""
    return max(round(t_final * nx * nx), 4)


def convergence_study(beta: Weight, levels: list[int], t_final: float,
                      use) -> list[dict]:
    """Dyadic refinement sweep with tau close to h^2, one level at a time.

    Solves the last (finest) level first, then the others in their order.
    Each solution goes to ``use(nx, nt, u)`` as soon as it is solved and is
    not kept here, so no two levels are alive at once unless ``use`` keeps
    one. Returns one row per level, in the order of ``levels``, with the
    space-time L^2 error and, from the second level on, the observed order
    against the previous level.
    """
    case = ManufacturedCase(beta)
    errors = {}
    for nx in levels[-1:] + levels[:-1]:
        nt = default_nt(nx, t_final)
        u, errors[nx] = case.solve(nx, nt, t_final)
        use(nx, nt, u)
        del u  # not alive through the next level's solve
    return [{"nx": nx, "nt": default_nt(nx, t_final), "error": errors[nx],
             "order": (math.log2(errors[prev] / errors[nx]) if prev is not None
                       else float("nan"))}
            for prev, nx in zip([None] + levels[:-1], levels)]


def smooth_random_forcing(seed: int):
    """A fixed smooth forcing built from six pairs of mode coefficients,
    drawn from the seed's ``"forcing"`` stream (:mod:`.draws`).

    The same continuum function is evaluated on every grid, so refinement
    sweeps measure discretization effects only.
    """
    cx, ct = draws.uniform(draws.key(seed, "forcing"), [[-1.0], [0.5]], [[1.0], [2.0]],
                           (2, 6))

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
    return solve_ivbp(beta, CoefficientField.from_callable(a_fun, grid),
                      forcing_from_callable(forcing_fn, grid), grid)


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
