"""Conservative implicit finite-difference solver for

    b(x) u_t - d/dx( a(x,t) u_x ) = d/dx F(x,t)

on an interval with zero lateral Dirichlet data, plus the discrete norms
and estimate audits built on top of it.

Discretization: backward Euler in time, central face fluxes in space,

    (b_i / tau) (u^{k+1}_i - u^k_i)
        = [ a_{i+1/2} (u_{i+1} - u_i) - a_{i-1/2} (u_i - u_{i-1}) ]^{k+1} / h^2
          + ( F^{k+1}_{i+1/2} - F^{k+1}_{i-1/2} ) / h.

The weight enters through cell averages b_i over dual cells, so a weight
vanishing at a node never zeroes a row; the implicit operator is an
M-matrix and each step is one tridiagonal SPD solve (LAPACK ``dgtsv``, in
place on the new time level). ``dgtsv`` comes from scipy's compiled LAPACK
module alone, loaded on the first implicit step: no run imports the
``scipy.linalg`` package. The diagonals and the forcing differences are
built as whole arrays for blocks of ``STEP_BLOCK`` time levels, so a step
only forms its right-hand side and solves. The time derivative's
negative-order norm is represented throughout by the flux proxy
|| a u_x + F ||_{L^p}, which is exactly the bound the energy identities use.

Tables of shape (nt + 1, nx) are built only where they hold values: a
conductivity that does not vary in t is a read-only broadcast view of one
row, a sampled forcing that is already a full C-ordered table is not
copied, and the norms form their integrands in arrays they have just made.
``apriori_ratio`` forms all three of its integrands, |u_x|^p,
|a u_x + F|^p and |F|^p, in turn in one face table, so it holds u, F and
that table and nothing else of the grid's size.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (EllipticityViolation, EmptyRegion, GateFailed, PreconditionFailed,
                     SingularSystem)
from .geometry import WeightedCylinder
from .maximal import SpaceTimeField
from .oscillation import sample_broadcast, theta_A_ms, theta_beta_ms
from .report import AuditReport, AuditRow, fmt_floats, ratio
from .weights import Weight, _locate


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on [x0, x1] x [t0, t_final].

    Times are absolute: a solve on the unit interval starts at t0 = 0, a
    frozen solve at the bottom of its cylinder, and every region a
    :class:`SolutionField` reads is in that one frame. The node, face and
    time arrays are built once per grid and shared by every reader, so they
    are read-only.
    """

    x0: float
    x1: float
    nx: int
    t_final: float
    nt: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.nx < 2 or self.nt < 1:
            raise ValueError("need at least 3 nodes per axis")
        if not self.x0 < self.x1 or self.t_final <= self.t0:
            raise ValueError("degenerate grid extents")

    @property
    def h(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def tau(self) -> float:
        return (self.t_final - self.t0) / self.nt

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.linspace(self.x0, self.x1, self.nx + 1))

    @cached_property
    def faces(self) -> np.ndarray:
        return _read_only(self.x[:-1] + 0.5 * self.h)

    @cached_property
    def t(self) -> np.ndarray:
        return _read_only(self.t0 + np.linspace(0.0, self.t_final - self.t0, self.nt + 1))

    def region(self) -> tuple[float, float, float, float]:
        """(x0, x1, t0, t_final): the whole grid as a region."""
        return (self.x0, self.x1, self.t0, self.t_final)


@dataclass
class CoefficientField:
    """Scalar conductivity at faces per time level.

    ``values`` has shape (nt + 1, nx) and may be a read-only broadcast view,
    as :meth:`from_callable` builds it: a row per time level is then stored
    only when the conductivity varies in t.
    """

    values: np.ndarray  # (nt+1, nx_faces)

    @classmethod
    def from_callable(cls, fn, grid: Grid) -> "CoefficientField":
        """Sample a conductivity a(x, t) at faces for every time level.

        ``fn`` must broadcast like a numpy ufunc: it is called once, as
        ``fn(grid.faces[None, :], grid.t[:, None])``, and its result (a
        scalar is fine) must broadcast to shape (nt + 1, nx). Every sample
        must be finite and positive (EllipticityViolation otherwise).
        ``values`` is the result broadcast to that shape, a read-only view
        that holds only what ``fn`` returned.
        """
        vals = np.asarray(fn(grid.faces[None, :], grid.t[:, None]), dtype=float)
        values = np.broadcast_to(vals, (grid.nt + 1, grid.nx))  # ValueError otherwise
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise EllipticityViolation("conductivity samples must be finite and positive")
        return cls(values=values)


def sinusoidal_coefficient(base: float, amplitude: float, frequency: float):
    """The conductivity a(x, t) = base + amplitude sin(frequency pi x)."""
    def a_fun(x, t):
        return base + amplitude * np.sin(frequency * math.pi * x)

    return a_fun


def forcing_from_callable(fn, grid: Grid) -> np.ndarray:
    """Sample a forcing F(x, t) at faces for every time level.

    ``fn`` must broadcast like a numpy ufunc: it is called once, as
    ``fn(grid.faces[None, :], grid.t[:, None])``, and its result (a scalar
    is fine) must broadcast to shape (nt + 1, nx).
    """
    return sample_broadcast(fn, grid.faces[None, :], grid.t[:, None],
                            (grid.nt + 1, grid.nx))


def cell_averaged_weight(beta: Weight, grid: Grid) -> np.ndarray:
    """Weight means over dual cells around each node (analytic for powers)."""
    x = grid.x
    a = np.maximum(x - 0.5 * grid.h, grid.x0)
    b = np.minimum(x + 0.5 * grid.h, grid.x1)
    mass = beta.mass_1d_vec(1.0, a, b)
    vals = mass / (b - a)
    if np.any(vals <= 0.0):
        raise SingularSystem("weight cell averages must be positive")
    return vals


@dataclass
class SolutionField:
    """Discrete solution with the data needed by the estimate audits."""

    grid: Grid
    u: np.ndarray          # (nt+1, nx+1) node values
    beta: Weight
    beta_cells: np.ndarray  # (nx+1,) dual-cell averages
    A: CoefficientField
    F: np.ndarray          # (nt+1, nx_faces)

    # -- basic fields --------------------------------------------------------

    def grad(self, out: np.ndarray | None = None) -> np.ndarray:
        """Face gradients (u_{i+1} - u_i)/h, shape (nt+1, nx), in ``out`` if
        given, else in a new array."""
        g = np.subtract(self.u[:, 1:], self.u[:, :-1], out=out)
        g /= self.grid.h
        return g

    def flux_proxy(self, g: np.ndarray | None = None) -> np.ndarray:
        """a u_x + F at faces: the negative-norm proxy integrand, formed in
        place inside ``g`` (an array from :meth:`grad`, which it overwrites)
        or, without one, inside a new gradient."""
        g = self.grad() if g is None else g
        g *= self.A.values
        g += self.F
        return g

    def gradient_squared_field(self) -> SpaceTimeField:
        g = self.grad()[1:, :] ** 2  # implicit samples live at t_{k+1}
        return SpaceTimeField(self.grid.x, self.grid.t, g)

    def forcing_squared_field(self) -> SpaceTimeField:
        return SpaceTimeField(self.grid.x, self.grid.t, self.F[1:, :] ** 2)

    def scaled(self, c: float) -> "SolutionField":
        return SolutionField(self.grid, self.u * c, self.beta, self.beta_cells,
                             self.A, self.F * c)

    # -- space-time boxes ----------------------------------------------------

    def block(self, values: np.ndarray, region) -> np.ndarray:
        """The part of a node or face array inside region = (a, b, s, e), as
        a view.

        Rows are the implicit time levels t_k in (s, e], k >= 1. Columns are
        the nodes in [a, b] when ``values`` has nx + 1 columns, else the
        faces in [a, b]. Both axes are sorted, so each is one index range.
        A block with no time row or no column raises ``EmptyRegion``.
        """
        a, b, s, e = region
        fuzz = 1e-12 * max(1.0, abs(e))
        k0, k1 = np.searchsorted(self.grid.t, [s + fuzz, e + fuzz], side="right")
        if values.shape[1] == self.grid.nx + 1:
            x = self.grid.x
            c0 = np.searchsorted(x, a - 1e-12, side="left")
            c1 = np.searchsorted(x, b + 1e-12, side="right")
        else:
            f = self.grid.faces
            c0 = np.searchsorted(f, a, side="left")
            c1 = np.searchsorted(f, b, side="right")
        block = values[max(k0, 1):k1, c0:c1]
        if not block.size:
            raise EmptyRegion(f"the region [{a:.12g}, {b:.12g}] x ({s:.12g}, {e:.12g}] "
                              "holds no grid column or no time level")
        return block

    def integral(self, block: np.ndarray) -> float:
        """Space-time integral of a :meth:`block` (or of values computed
        from one, element by element): its ``np.sum`` times h * tau."""
        return float(np.sum(block) * self.grid.h * self.grid.tau)

    def lp(self, values: np.ndarray, p: float, region,
           overwrite: bool = False) -> float:
        """Discrete L^p norm of a node or face array over the region. With
        ``overwrite`` the region's block of ``values`` receives |values|^p,
        so no table is made."""
        a = self.block(values, region)
        a = np.abs(a, out=a if overwrite else None)
        a **= p
        return self.integral(a) ** (1.0 / p)

    def sup_weighted_energy(self, region) -> float:
        """sup over slices of the weighted L^2 mass of u."""
        rows = self.block(self.u ** 2 * self.beta_cells, region)
        return float(np.max(np.sum(rows, axis=1) * self.grid.h))

    def region_measure(self, region) -> float:
        n_slices, n_faces = self.block(self.F, region).shape
        return float(n_slices * self.grid.tau * n_faces * self.grid.h)


CSV_BLOCK = 16384  # values that write_solution_csv lays out at once: about 1 MB


def write_solution_csv(path, u: SolutionField):
    """Column dump (x, t, u), row-major over time then space, with floats as
    ``report.fmt_float`` renders them (by ``report.fmt_floats``). Blocks of
    about ``CSV_BLOCK`` values are laid out as zero-padded byte rows and
    written with the padding dropped.

    A ``wparab`` run calls it through ``forked.Forked``, in a child that runs
    while the later audit groups do.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    xs, ts = (fmt_floats(a).view(np.uint8).reshape(len(a), -1) for a in (u.grid.x, u.grid.t))
    comma, newline = np.frombuffer(b",\n", np.uint8)[:, None]
    blocks = -(-u.u.size // CSV_BLOCK)
    with open(path, "wb") as fh:
        fh.write(b"x,t,u\n")
        for values, times in zip(np.array_split(u.u, blocks), np.array_split(ts, blocks)):
            fields = (xs, comma, times[:, None], comma,
                      fmt_floats(values).view(np.uint8).reshape(values.shape + (-1,)), newline)
            lines = np.concatenate([np.broadcast_to(f, values.shape + f.shape[-1:])
                                    for f in fields], axis=-1)
            fh.write(lines[lines != 0])
    return path


def write_solution_binary(path, u: SolutionField):
    """Row-major binary dump with a little-endian header.

    Header: magic 'WPRB', version byte, endianness tag '<', node and time
    counts (uint32), then x0, h, t0, tau as float64; payload is the node
    array in C order as little-endian float64.
    """
    import struct

    grid = u.grid
    header = struct.pack("<4sBcIIdddd", b"WPRB", 1, b"<",
                         grid.nx + 1, grid.nt + 1,
                         grid.x0, grid.h, grid.t0, grid.tau)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.u, dtype="<f8").data)  # no copy on little-endian
    return Path(path)


def _check_finite(*arrays) -> None:
    """ValueError unless every array is finite. LAPACK ``dgtsv`` takes an
    inf or NaN without a word and spreads it through every later level, so
    the solvers check what their implicit steps are built from, once."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _check_marched(u: np.ndarray) -> None:
    """SingularSystem naming the first time level of a march that is not
    finite: finite inputs stay finite through a step unless it overflows."""
    bad = ~np.isfinite(u).all(axis=1)
    if bad.any():
        raise SingularSystem(f"step {int(np.argmax(bad))} produced non-finite values")


# Time levels whose diagonals and forcing differences are built at once. On
# a 2-vCPU VM the marching time per step falls from 11.4 us at 8 levels to
# 9.5-10 us from 64 levels on (nx = 64 and 128) and no further; 128 levels
# keep the four block arrays near 0.5 MB at nx = 128, where one block for
# all of nt = 4096 would add about 17 MB.
STEP_BLOCK = 128

_DGTSV = None
_FLAPACK = "scipy.linalg._flapack"


def _dgtsv():
    """LAPACK ``dgtsv`` from scipy's compiled LAPACK module
    ``scipy/linalg/_flapack.*`` alone, loaded on the first call by its file
    path under its own name, or taken from ``sys.modules``. It is the
    routine ``scipy.linalg.lapack.dgtsv`` gives (a later ``import
    scipy.linalg`` reuses the module), but loading it took 0.003 s and
    2.7 MB where importing ``scipy.linalg.lapack`` took 0.17 s and 28 MB
    (2-vCPU Xeon VM, medians of 10 fresh interpreters). A missing module
    raises ``ImportError`` naming the paths searched."""
    global _DGTSV
    if _DGTSV is None:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            paths = [Path(d, "linalg", "_flapack" + suffix)
                     for d in (scipy.submodule_search_locations if scipy else ())
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((p for p in paths if p.is_file()), None)
            if path is None:
                raise ImportError(f"no LAPACK module {_FLAPACK} (scipy) at any of "
                                  f"{[str(p) for p in paths]}")
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
        _DGTSV = module.dgtsv
    return _DGTSV


def _implicit_step(dl, d, du, x, step: int) -> None:
    """One backward Euler step (SPD tridiagonal solve), in place.

    ``x`` holds the right-hand side and is overwritten with the interior
    values; ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonals
    of the step's matrix, which LAPACK ``dgtsv`` overwrites with its
    factorization. ``dgtsv`` does not check its inputs: the caller checks
    that they are finite.
    """
    if d.size == 1:  # the dgtsv wrapper rejects empty off-diagonals
        x /= d
        return
    # the flags overwrite_dl, overwrite_d, overwrite_du and overwrite_b, by
    # position: at n = 127 a call took 2.5 us this way, 2.9-3.3 us by keyword
    info = _dgtsv()(dl, d, du, x, 1, 1, 1, 1)[-1]
    if info != 0:
        raise SingularSystem(f"step {step} failed to factor (dgtsv info {info})")


def _march(u: np.ndarray, mass: np.ndarray, a_levels: np.ndarray, h: float,
           source: np.ndarray | None = None,
           lateral: np.ndarray | None = None) -> None:
    """Fill the interior of u[1:] by backward Euler from u[0], in place.

    Row k + 1 solves mass (u^{k+1} - u^k) = [div(a grad u) + div F]^{k+1} with
    ``mass`` = b / tau, conductivities ``a_levels[k + 1]`` at the faces and
    face forcing ``source[k + 1]``. ``lateral[k]`` holds the left and right
    boundary terms a u / h^2 of step k + 1 (zero Dirichlet data without it).
    The diagonals and the forcing differences are built per block of
    ``STEP_BLOCK`` levels with the elementwise expressions of a single step.
    """
    nt = u.shape[0] - 1
    for k0 in range(0, nt, STEP_BLOCK):
        a = a_levels[k0 + 1:k0 + 1 + STEP_BLOCK]
        dl = -a[:, 1:-1] / h ** 2
        du = dl.copy()
        d = mass + (a[:, 1:] + a[:, :-1]) / h ** 2
        if source is not None:
            f = source[k0 + 1:k0 + 1 + STEP_BLOCK]
            src = (f[:, 1:] - f[:, :-1]) / h
        for j in range(a.shape[0]):
            k = k0 + j
            x = u[k + 1, 1:-1]
            np.multiply(mass, u[k, 1:-1], out=x)
            if source is not None:
                x += src[j]
            if lateral is not None:
                x[0] += lateral[k, 0]
                x[-1] += lateral[k, 1]
            _implicit_step(dl[j], d[j], du[j], x, k + 1)


def solve_ivbp(beta: Weight, A: CoefficientField, F: np.ndarray, grid: Grid,
               initial: np.ndarray | None = None) -> SolutionField:
    """March backward Euler with zero lateral Dirichlet data.

    ``F`` holds face samples per time level; ``initial`` holds node values
    at t = 0 (defaults to zero). The scheme is unconditionally stable for
    degenerate weights; each step solves one tridiagonal system.
    """
    if A.values.shape != (grid.nt + 1, grid.nx):
        raise ValueError("coefficient field does not match the grid")
    if F.shape != (grid.nt + 1, grid.nx):
        raise ValueError("forcing does not match the grid")
    beta_cells = cell_averaged_weight(beta, grid)
    u = np.zeros((grid.nt + 1, grid.nx + 1))
    if initial is not None:
        u[0, :] = np.asarray(initial, dtype=float)
        u[0, 0] = 0.0
        u[0, -1] = 0.0
    _check_finite(beta_cells[1:-1], A.values[1:], F[1:], u[0, 1:-1])
    _march(u, beta_cells[1:-1] / grid.tau, A.values, grid.h, source=F)
    _check_marched(u)
    return SolutionField(grid=grid, u=u, beta=beta, beta_cells=beta_cells,
                         A=A, F=F)


def solve_frozen(beta_bar: float, a_bar, x_span: tuple[float, float],
                 t_span: tuple[float, float], nx: int, nt: int, data) -> SolutionField:
    """Solve the constant-in-space companion problem with weight ``beta_bar``
    and conductivity ``a_bar`` (a constant, or a callable of time that
    broadcasts over an array of times) on an nx x nt grid of x_span x t_span.

    ``data(x, t)`` supplies the parabolic boundary values and broadcasts like
    a numpy ufunc: one call gives the initial slice, one both lateral traces.
    The field's grid starts at t_span[0], so ``a_bar``, ``data`` and every
    region read from the field take absolute times. The interior is marched
    implicitly; a march that overflows raises ``SingularSystem``.
    """
    if beta_bar <= 0.0:
        raise PreconditionFailed("frozen weight average must be positive")
    a, b = x_span
    grid = Grid(x0=a, x1=b, nx=nx, t_final=t_span[1], nt=nt, t0=t_span[0])
    A = CoefficientField.from_callable(
        (lambda _, t: a_bar(t)) if callable(a_bar) else (lambda _, t: a_bar), grid)
    beta_cells = np.full(grid.nx + 1, beta_bar)
    u = np.zeros((grid.nt + 1, grid.nx + 1))
    u[0, :] = data(grid.x, grid.t[0])
    ends = sample_broadcast(data, np.array([[a, b]]), grid.t[1:, None], (grid.nt, 2))
    _check_finite(beta_cells[1:-1], A.values[1:], u[0, 1:-1], ends)
    lateral = A.values[1:, [0, -1]] * ends / grid.h ** 2
    _march(u, beta_cells[1:-1] / grid.tau, A.values, grid.h, lateral=lateral)
    u[1:, [0, -1]] = ends
    _check_marched(u)
    beta_const = Weight.constant(beta_bar, (a, b))
    F = np.zeros((grid.nt + 1, grid.nx))
    return SolutionField(grid=grid, u=u, beta=beta_const, beta_cells=beta_cells,
                         A=A, F=F)


# -- audits -------------------------------------------------------------------


def energy_audit(u: SolutionField, inner: WeightedCylinder,
                 outer: WeightedCylinder, budget: float) -> AuditReport:
    """Local energy estimates on nested cylinders.

    Row 1 (improved form): sup-in-time weighted mass + gradient energy on
    the inner cylinder against u^2 + |F|^2 on the outer one. Row 2 (basic
    form): the same left side against the cutoff-weighted right side with
    the 1 + 1/r^2 + b(x)/h(2r) factors.
    """
    reg_in = inner.region()
    reg_out = outer.region()
    lhs = u.sup_weighted_energy(reg_in) + u.lp(u.grad(), 2.0, reg_in) ** 2
    f_sq = u.lp(u.F, 2.0, reg_out) ** 2
    rhs1 = u.lp(u.u, 2.0, reg_out) ** 2 + f_sq

    r = outer.r / 2.0
    factor = 1.0 + 1.0 / r ** 2 + u.beta_cells / outer.h
    rhs2 = u.integral(u.block(u.u ** 2 * factor, reg_out)) + f_sq
    rows = [AuditRow.bound("caccioppoli-improved", lhs, rhs1, budget),
            AuditRow.bound("caccioppoli-basic", lhs, rhs2, budget)]
    return AuditReport.from_rows(
        "caccioppoli-energy", rows,
        params={"inner_r": inner.r, "outer_r": outer.r,
                "center": [inner.x0], "t0": inner.t0})


def poincare_audit(u: SolutionField, cyl: WeightedCylinder, variant: str,
                   budget: float) -> AuditReport:
    """Mean-deviation control by the gradient, with the oscillation term.

    ``variant`` "interior" subtracts the cylinder mean; "boundary" requires a
    zero trace on the flat side and skips the mean. The oscillation term is
    moved to the left, which requires budget * theta^2 < 1 (GateFailed
    otherwise); the reported constant solves
    lhs = N (r^2 * grad_term + theta^2 * lhs).
    """
    reg = cyl.region()
    theta2 = theta_beta_ms(u.beta, cyl.x0, cyl.r)
    if budget * theta2 >= 1.0:
        raise GateFailed(
            f"oscillation term too large: budget*theta^2 = {budget * theta2}")
    vals = u.block(u.u, reg)
    mean = float(np.mean(vals)) if variant == "interior" else 0.0
    lhs = u.integral((vals - mean) ** 2)
    grad_term = cyl.r ** 2 * (u.lp(u.grad(), 2.0, reg) ** 2 + u.lp(u.F, 2.0, reg) ** 2)
    row = AuditRow.bound(f"poincare-{variant}", lhs, grad_term + theta2 * lhs, budget,
                         extra={"theta_sq": theta2, "grad_term": grad_term})
    return AuditReport.from_rows(
        f"gradient-poincare-{variant}", [row],
        params={"variant": variant, "r": cyl.r, "center": [cyl.x0]})


def lipschitz_audit(v: SolutionField, inner: WeightedCylinder, beta_bar: float,
                    budget: float) -> AuditReport:
    """Interior gradient and time-derivative sup bounds for frozen solutions.

    lhs = r * beta_bar * ||v_t||_inf + ||grad v||_inf on the inner cylinder,
    rhs = mean-square gradient over the whole grid of ``v`` (the outer
    cylinder a frozen solve covers, of radius half the grid's width), both
    discrete.
    """
    reg_in = inner.region()
    reg_out = v.grid.region()
    sup_grad = float(np.max(np.abs(v.block(v.grad(), reg_in))))
    # row k: the slope into t_k (row 0 is zero and never selected)
    vt = v.block(np.diff(v.u, axis=0, prepend=v.u[:1]) / v.grid.tau, reg_in)
    sup_vt = float(np.max(np.abs(vt)))
    r = inner.r
    lhs = r * beta_bar * sup_vt + sup_grad
    rhs = math.sqrt(v.lp(v.grad(), 2.0, reg_out) ** 2 / v.region_measure(reg_out))
    row = AuditRow.bound("frozen-lipschitz", lhs, rhs, budget,
                         extra={"sup_grad": sup_grad, "sup_vt": sup_vt})
    return AuditReport.from_rows(
        "frozen-interior-lipschitz", [row],
        params={"inner_r": inner.r, "outer_r": 0.5 * (v.grid.x1 - v.grid.x0),
                "beta_bar": beta_bar})


def _interp_solution(u: SolutionField):
    """Space-time interpolant of the node values: linear in time between two
    levels, then linear in x on the cell j of ``weights._locate`` (the last
    cell at the right end), with x clipped to the grid.
    ``fn(x, t)`` broadcasts like a numpy ufunc: one row per time of t[:, None]."""
    grid = u.grid

    def fn(x, t):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), grid.x[0]), grid.x[-1])
        t = np.asarray(t, dtype=float)
        k = np.clip(np.floor((t - grid.t0) / grid.tau).astype(np.intp), 0, grid.nt - 1)
        ft = (t - grid.t[k]) / grid.tau
        j = np.minimum(_locate(x, grid.x), grid.nx - 1)
        # the level-interpolated row at the nodes j and j + 1
        lo, hi = ((1.0 - ft) * u.u[k, i] + ft * u.u[k + 1, i] for i in (j, j + 1))
        return lo + (x - grid.x[j]) / grid.h * (hi - lo)

    return fn


def freeze_compare(u: SolutionField, A_fun, cyl_base: WeightedCylinder,
                   nx_local: int, nt_local: int) -> tuple[float, float]:
    """Gradient gap between u and its frozen-coefficient companion.

    Normalizes u so the mean-square gradient over the 4r cylinder is one,
    solves the frozen problem there with u's boundary data, on a grid in
    u's time frame that starts at the 4r cylinder's bottom, and returns
    (eps_emp, delta_emp): the root-mean-square gradient gap over the 2r
    cylinder and the oscillation + forcing smallness of the inputs, with the
    coefficient's oscillation ``theta_A_ms`` on the 4r cylinder, clipped to
    u's grid. ``A_fun(x, t)`` must broadcast; a gradient of u that vanishes
    on the 4r cylinder raises ``PreconditionFailed``.
    """
    r, x0, t0 = cyl_base.r, cyl_base.x0, cyl_base.t0
    beta = u.beta
    cyl4 = WeightedCylinder(x0, t0, 4.0 * r, beta, variant="Q")
    cyl2 = WeightedCylinder(x0, t0, 2.0 * r, beta, variant="Q")
    reg4 = cyl4.region()
    size4 = u.region_measure(reg4)
    grad_rms = math.sqrt(u.lp(u.grad(), 2.0, reg4) ** 2 / size4)
    if grad_rms == 0.0:
        raise PreconditionFailed("the gradient of u vanishes on the 4r cylinder")
    u_hat = u.scaled(1.0 / grad_rms)

    # mean over the whole ball B_R, not its part inside the domain
    R = 4.0 * r
    beta_bar = float(beta.mass_1d_vec(1.0, x0 - R, x0 + R)) / (2.0 * R)
    xs_quad = np.linspace(x0 - R, x0 + R, 65)

    def a_bar(t):  # the mean over the 65 nodes at each time of t
        vals = sample_broadcast(A_fun, xs_quad, t,
                                np.broadcast_shapes(np.shape(t), xs_quad.shape))
        return np.mean(vals, axis=-1, keepdims=True)

    data = _interp_solution(u_hat)
    v = solve_frozen(beta_bar, a_bar, cyl4.x_interval, cyl4.t_interval,
                     nx_local, nt_local, data)

    # compare gradients on the local grid restricted to the 2r cylinder
    reg2 = cyl2.region()
    gu = np.diff(data(v.grid.x[None, :], v.grid.t[:, None]), axis=1) / v.grid.h
    gap = v.block(gu, reg2) - v.block(v.grad(), reg2)
    eps_emp = math.sqrt(float(np.mean(gap ** 2)))

    th_b = theta_beta_ms(beta, x0, R)
    th_a = theta_A_ms(A_fun, x0, t0, R, cyl4.h, u.grid.region())
    f_ms = u_hat.lp(u_hat.F, 2.0, reg4) ** 2 / size4
    return eps_emp, math.sqrt(th_a + th_b + f_ms)


def apriori_ratio(u: SolutionField, p: float) -> float:
    """Solution-norm to data-norm ratio at exponent p >= 2 on the full domain.

    The time-derivative part is represented by the flux proxy
    ||a u_x + F||_{L^p}; the ratio is ``report.ratio(grad + proxy, ||F||)``,
    infinite when only the forcing vanishes.
    """
    region = u.grid.region()
    # one face table beside u and F, refilled for each integrand: the
    # gradient, the gradient again for the proxy, then F
    g = u.grad()
    grad_norm = u.lp(g, p, region, overwrite=True)
    proxy_norm = u.lp(u.flux_proxy(u.grad(out=g)), p, region, overwrite=True)
    np.copyto(g, u.F)
    f_norm = u.lp(g, p, region, overwrite=True)
    return ratio(grad_norm + proxy_norm, f_norm)


def time_shift_audit(u: SolutionField, phi: np.ndarray, shift_steps: int,
                     budget: float) -> AuditReport:
    """Integrated time-shift continuity in the weighted L^2 norm.

    lhs = sum_k tau * || (u(t_k + h) - u(t_k)) phi ||^2_{L^2(b)},
    rhs = 2 h^{1/2} * ||proxy||_{L^2} * || u phi^2 ||^2_{L^2 W^{1,2}},
    with h = shift_steps * tau and the flux proxy standing in for the
    negative-order norm of b u_t.
    """
    if shift_steps < 1 or shift_steps > u.grid.nt:
        raise ValueError("shift must be a positive number of steps")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (u.grid.nx + 1,):
        raise ValueError("cutoff must live on the nodes")
    if phi[0] != 0.0 or phi[-1] != 0.0:
        raise ValueError("cutoff must vanish at the lateral boundary")
    grid = u.grid
    h_shift = shift_steps * grid.tau
    w = u.beta_cells
    diff = (u.u[shift_steps:] - u.u[:grid.nt + 1 - shift_steps]) * phi
    lhs = u.integral(diff ** 2 * w)
    proxy = u.lp(u.flux_proxy(), 2.0, grid.region())
    prod = u.u * phi[None, :] ** 2
    l2_sq = u.integral(prod[1:] ** 2)
    g_sq = u.integral((np.diff(prod, axis=1) / grid.h)[1:] ** 2)
    w12_sq = l2_sq + g_sq
    row = AuditRow.bound("time-shift-continuity", lhs,
                         2.0 * math.sqrt(h_shift) * proxy * w12_sq, budget)
    return AuditReport.from_rows(
        "weighted-time-shift", [row],
        params={"shift_steps": shift_steps, "h": h_shift})
