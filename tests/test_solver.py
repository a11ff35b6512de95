import importlib.machinery
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from wparab import solver
from wparab.config import ExperimentConfig
from wparab.errors import (EllipticityViolation, EmptyRegion, GateFailed, PreconditionFailed,
                           SingularSystem)
from wparab.experiments import (
    ManufacturedCase,
    convergence_study,
    int_power_sin,
    smooth_random_forcing,
    solve_driven,
)
from wparab.geometry import WeightedCylinder
from wparab.oscillation import theta_A_ms, theta_beta_ms
from wparab.solver import (
    STEP_BLOCK,
    _implicit_step,
    _interp_solution,
    CoefficientField,
    Grid,
    SolutionField,
    apriori_ratio,
    cell_averaged_weight,
    energy_audit,
    forcing_from_callable,
    freeze_compare,
    lipschitz_audit,
    poincare_audit,
    sinusoidal_coefficient,
    solve_frozen,
    solve_ivbp,
    time_shift_audit,
)
from wparab.weights import Weight

BETA1 = Weight.constant(1.0, (0.0, 1.0))
BETA_POW = Weight.power(0.2, 0.5, (0.0, 1.0))


def small_grid(nx=32, nt=32, t_final=0.25):
    return Grid(x0=0.0, x1=1.0, nx=nx, t_final=t_final, nt=nt)


def field_of(u, grid, beta):
    """The node values ``u`` on ``grid`` as a solution with unit
    coefficient and no forcing, whether or not they solve anything."""
    return SolutionField(grid=grid, u=u, beta=beta,
                         beta_cells=cell_averaged_weight(beta, grid),
                         A=CoefficientField.from_callable(lambda x, t: 1.0, grid),
                         F=np.zeros((grid.nt + 1, grid.nx)))


class TestScheme:
    def test_zero_data_zero_solution(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid)
        assert np.all(u.u == 0.0)

    def test_nonnegative_initial_stays_nonnegative(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        init = np.maximum(0.0, np.sin(2 * math.pi * grid.x))
        u = solve_ivbp(BETA_POW, A, F, grid, initial=init)
        assert np.min(u.u) >= -1e-14

    def test_conservation_telescopes_to_boundary(self):
        # summing the scheme against ones leaves only boundary fluxes
        grid = small_grid(nx=16, nt=8)
        A = CoefficientField.from_callable(lambda x, t: 1.0 + 0.2 * x, grid)
        F = forcing_from_callable(lambda x, t: np.sin(3 * x + t), grid)
        u = solve_ivbp(BETA_POW, A, F, grid, initial=np.sin(math.pi * grid.x))
        g = u.grad()
        for k in range(1, grid.nt + 1):
            lhs = np.sum(u.beta_cells[1:-1] * (u.u[k, 1:-1] - u.u[k - 1, 1:-1])
                         / grid.tau) * grid.h
            flux = A.values[k] * g[k] + u.F[k]
            rhs = flux[-1] - flux[0]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_ellipticity_validated(self):
        grid = small_grid(nx=8, nt=4)
        with pytest.raises(EllipticityViolation, match="positive"):
            CoefficientField.from_callable(lambda x, t: -1.0, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_conductivity_rejected(self, bad):
        # a NaN sample passes a sign test, and an infinite one has no
        # reciprocal bound; the message names finiteness for both
        grid = Grid(0, 1, 8, 0.1, 4)
        with pytest.raises(EllipticityViolation, match="finite"):
            CoefficientField.from_callable(lambda x, t: np.where(t > 0.05, bad, 1.0),
                                           grid)

    def test_scaling_covariance_exact(self):
        # the dilated discrete system is isomorphic to the original one
        r = 0.5
        nx, nt = 24, 16
        beta = Weight.power(0.3, 0.0, (0.0, 1.0))
        # the full-ball mean; n0/2 = 1 in one dimension
        psi_r = float(beta.mass_1d_vec(1.0, -r, r)) / (2.0 * r)
        grid_big = Grid(x0=0.0, x1=1.0, nx=nx, t_final=0.1, nt=nt)
        a_fun = lambda x, t: 1.0 + 0.3 * np.sin(2 * x + t)
        f_fun = lambda x, t: np.cos(4 * x) * (1 + t)
        grid_small = Grid(x0=0.0, x1=r, nx=nx,
                          t_final=0.1 * r * r * psi_r, nt=nt)
        A_big = CoefficientField.from_callable(
            lambda x, t: a_fun(r * x, r * r * psi_r * t), grid_big)
        F_big = forcing_from_callable(
            lambda x, t: r * f_fun(r * x, r * r * psi_r * t), grid_big)
        beta_tilde = Weight.power(0.3, 0.0, (0.0, 1.0),
                                  scale=r ** 0.3 / psi_r)
        u_tilde = solve_ivbp(beta_tilde, A_big, F_big, grid_big)
        A_small = CoefficientField.from_callable(a_fun, grid_small)
        F_small = forcing_from_callable(f_fun, grid_small)
        beta_small = Weight.power(0.3, 0.0, (0.0, r))
        u_orig = solve_ivbp(beta_small, A_small, F_small, grid_small)
        assert np.allclose(u_tilde.u, u_orig.u, atol=1e-12)


def energy_identity_residual(u):
    """Relative residual of backward Euler's discrete energy identity

        1/2 |u^N|^2_b + 1/2 sum_k |u^k - u^(k-1)|^2_b + tau sum_k sum_faces a (Du^k)^2 h
          = 1/2 |u^0|^2_b - tau sum_k sum_faces F^k Du^k h,

    with |v|^2_b = sum_i b_i v_i^2 h over ``beta_cells``: multiply step k by
    u^k and sum by parts. Every sum is ``math.fsum``."""
    g, b = u.grid, u.beta_cells

    def norm_sq(v):
        return math.fsum((b * v * v * g.h).tolist())

    du = np.diff(u.u, axis=1)[1:] / g.h
    end = 0.5 * norm_sq(u.u[-1])
    jumps = 0.5 * math.fsum(norm_sq(u.u[k] - u.u[k - 1]) for k in range(1, g.nt + 1))
    dissipation = g.tau * math.fsum((u.A.values[1:] * du * du * g.h).ravel().tolist())
    work = -g.tau * math.fsum((u.F[1:] * du * g.h).ravel().tolist())
    lhs, rhs = end + jumps + dissipation, 0.5 * norm_sq(u.u[0]) + work
    return abs(lhs - rhs) / lhs


class TestEnergyIdentity:
    WEIGHTS = [Weight.power(0.2, 0.5, (0.0, 1.0)), BETA1, Weight.power(-0.7, 0.5, (0.0, 1.0))]

    @staticmethod
    def driven(beta, nx):
        return solve_driven(beta, smooth_random_forcing(1), nx, nx, 0.25,
                            lambda x, t: 1.0 + 0.5 * np.sin(3.0 * x))

    @pytest.mark.parametrize("nx", [32, 64, 128])
    @pytest.mark.parametrize("beta", WEIGHTS, ids=["pow0.2", "unit", "pow-0.7"])
    def test_holds_to_rounding(self, beta, nx):
        assert energy_identity_residual(self.driven(beta, nx)) <= 1e-12

    @pytest.mark.parametrize("nx", [32, 64, 128])
    @pytest.mark.parametrize("beta", WEIGHTS, ids=["pow0.2", "unit", "pow-0.7"])
    def test_perturbed_node_breaks_it(self, beta, nx):
        u = self.driven(beta, nx)
        u.u[nx // 2, nx // 2] += 1e-8
        assert energy_identity_residual(u) > 1e-12


def pointwise_samples(fn, grid):
    """The former sampler: one call per (face, time level) point."""
    return np.asarray([[fn(x, t) for x in grid.faces] for t in grid.t], dtype=float)


def oscillating_config_coefficient():
    cfg = ExperimentConfig.from_dict({
        "name": "osc", "seed": 1, "selection": ["weights"],
        "coefficient": {"base": 1.0, "oscillation": 0.3, "frequency": 8.0}})
    return cfg.coefficient_fn()


class TestGridCache:
    def test_arrays_built_once(self):
        grid = small_grid(nx=8, nt=4)
        assert grid.x is grid.x
        assert grid.t is grid.t
        assert grid.faces is grid.faces

    def test_arrays_read_only(self):
        grid = small_grid(nx=8, nt=4)
        for arr in (grid.x, grid.t, grid.faces):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestTimeFrame:
    """A grid's times are absolute: its origin t0 moves the time axis and
    nothing else."""

    @pytest.mark.parametrize("t_final, nt", [(0.25, 1024), (0.05, 64), (0.3, 7),
                                             (1.0 / 3.0, 12)])
    def test_zero_origin_keeps_the_axis(self, t_final, nt):
        grid = Grid(x0=0.0, x1=1.0, nx=4, t_final=t_final, nt=nt)
        assert same_bits(grid.t, np.linspace(0.0, t_final, nt + 1))
        assert grid.tau == t_final / nt
        assert grid.region() == (0.0, 1.0, 0.0, t_final)

    @pytest.mark.parametrize("s, e, nt", [(0.1, 0.5, 12), (-0.3, 0.25, 1024),
                                          (-0.0625, 0.0, 48), (0.03, 0.07, 5)])
    def test_origin_shifts_the_axis(self, s, e, nt):
        grid = Grid(x0=-0.4, x1=0.6, nx=4, t_final=e, nt=nt, t0=s)
        local = Grid(x0=-0.4, x1=0.6, nx=4, t_final=e - s, nt=nt)
        assert same_bits(grid.t, s + local.t)
        assert grid.tau == local.tau
        assert grid.region() == (-0.4, 0.6, s, e)

    def test_final_time_after_the_origin(self):
        with pytest.raises(ValueError, match="degenerate grid extents"):
            Grid(x0=0.0, x1=1.0, nx=4, t_final=0.1, nt=4, t0=0.1)

    def test_whole_grid_audits_read_the_grid_in_its_frame(self):
        # the same arrays on a grid that starts at t = -0.3: a whole-grid
        # region that started at t = 0 would drop the rows before it
        u = solve_driven(BETA_POW, smooth_random_forcing(5), nx=32, nt=64,
                         t_final=0.5, a_fun=sinusoidal_coefficient(1.0, 0.3, 3.0))
        g = u.grid
        grid = Grid(x0=g.x0, x1=g.x1, nx=g.nx, t_final=0.2, nt=g.nt, t0=-0.3)
        assert (grid.h, grid.tau) == (g.h, g.tau) and grid.t[0] < 0.0 < grid.t[-1]
        moved = SolutionField(grid=grid, u=u.u, beta=u.beta, beta_cells=u.beta_cells,
                              A=u.A, F=u.F)
        for p in (2.0, 4.0):
            assert apriori_ratio(moved, p) == apriori_ratio(u, p)
        phi = np.sin(math.pi * g.x) ** 2
        phi[[0, -1]] = 0.0
        for steps in (1, 5):
            want = time_shift_audit(u, phi, steps, 10.0).rows[0]
            got = time_shift_audit(moved, phi, steps, 10.0).rows[0]
            assert (got.lhs, got.rhs) == (want.lhs, want.rhs)


class TestBroadcastSampling:
    @pytest.mark.parametrize("make_fn", [
        lambda: smooth_random_forcing(7),
        lambda: sinusoidal_coefficient(1.0, 0.3, 8.0),
        oscillating_config_coefficient,
    ], ids=["smooth-forcing", "oscillating", "config-coefficient"])
    def test_matches_pointwise(self, make_fn):
        fn = make_fn()
        grid = Grid(x0=0.0, x1=1.0, nx=37, t_final=0.25, nt=29)
        ref = pointwise_samples(fn, grid)
        tol = 1e-15 * np.abs(ref).max()
        np.testing.assert_allclose(forcing_from_callable(fn, grid), ref,
                                   rtol=0, atol=tol)
        if ref.min() > 0.0:  # the signed forcing is no conductivity
            A = CoefficientField.from_callable(fn, grid)
            np.testing.assert_allclose(A.values, ref, rtol=0, atol=tol)

    def test_time_broadcast_result_holds_one_row(self):
        # a conductivity that does not read t keeps one row of nx values; no
        # step reads A.values rows in place, since _march builds contiguous
        # diagonals for each block of levels
        fn = oscillating_config_coefficient()
        grid = Grid(x0=0.0, x1=1.0, nx=64, t_final=0.25, nt=1024)
        A = CoefficientField.from_callable(fn, grid)
        ref = np.broadcast_to(fn(grid.faces[None, :], grid.t[:, None]),
                              (grid.nt + 1, grid.nx))
        assert np.array_equal(A.values, ref)
        lo, hi = np.lib.array_utils.byte_bounds(A.values)
        assert not A.values.flags.writeable and hi - lo == grid.nx * A.values.itemsize

    def test_scalar_result_fills_grid(self):
        grid = small_grid(nx=8, nt=4)
        F = forcing_from_callable(lambda x, t: 0.5, grid)
        assert F.shape == (grid.nt + 1, grid.nx) and np.all(F == 0.5)
        A = CoefficientField.from_callable(lambda x, t: 2.0, grid)
        assert A.values.shape == (grid.nt + 1, grid.nx) and np.all(A.values == 2.0)

    def test_wrong_shape_rejected(self):
        grid = small_grid(nx=8, nt=4)
        with pytest.raises(ValueError):
            forcing_from_callable(lambda x, t: np.ones(3), grid)
        with pytest.raises(ValueError):
            CoefficientField.from_callable(lambda x, t: np.ones((grid.nt + 1, 3)),
                                           grid)


class TestManufactured:
    def test_forcing_matches_spec_form_for_unit_weight(self):
        # b = 1 gives g = (pi^2 - 1)(-cos(pi x) / pi) up to a constant, and
        # this one already has mean zero over the midpoint faces
        faces = small_grid(nx=16).faces
        ref = (math.pi ** 2 - 1) * (-np.cos(math.pi * faces) / math.pi)
        assert ManufacturedCase(BETA1).profile(faces) == pytest.approx(ref, rel=1e-12)

    def test_power_sin_antiderivative_series(self):
        # independent oracle: adaptive quadrature on pieces split at c, with
        # |s - c|^alpha as the algebraic weight of a piece that ends at c
        from scipy.integrate import quad

        def oracle(alpha, c, x):
            ends = [0.0, c, x] if 0.0 < c < x else [0.0, x]
            total = 0.0
            for a, b in zip(ends, ends[1:]):
                if a == b:
                    continue
                if c in (a, b):
                    total += quad(lambda s: math.sin(math.pi * s), a, b, weight="alg",
                                  wvar=(alpha, 0.0) if c == a else (0.0, alpha))[0]
                else:
                    total += quad(lambda s: abs(s - c) ** alpha * math.sin(math.pi * s),
                                  a, b, epsabs=0.0, epsrel=1e-13)[0]
            return total

        # |x - c| reaches 1: past 0.803 (alpha = 0.6) and 0.908 (alpha = 0.2)
        # the cosine part's antiderivative is negative, and its sign counts
        xs = np.array([0.0, 0.05, 0.3, 0.45, 0.8, 0.95, 1.0])
        for alpha in (-0.7, 0.2, 0.6, 1.5):
            for c in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
                ref = [oracle(alpha, c, x) for x in xs]
                assert int_power_sin(alpha, c, xs) == pytest.approx(ref, rel=1e-9)

    def test_unit_weight_second_order(self):
        rows = convergence_study(BETA1, [16, 32, 64], 0.2,
                                 use=lambda *_: None, between=lambda: None)
        orders = [r["order"] for r in rows[1:]]
        assert min(orders) >= 1.9

    def test_degenerate_weight_first_order_or_better(self):
        rows = convergence_study(BETA_POW, [16, 32, 64], 0.2,
                                 use=lambda *_: None, between=lambda: None)
        orders = [r["order"] for r in rows[1:]]
        assert min(orders) >= 1.0


def implicit_step_banded(beta_cells, a_faces, h, tau, rhs):
    """The implicit step as it was before the direct LAPACK call."""
    m = beta_cells.size - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = ab[2, :-1] = -a_faces[1:-1] / h ** 2
    ab[1, :] = beta_cells[1:-1] / tau + (a_faces[1:] + a_faces[:-1]) / h ** 2
    return solve_banded((1, 1), ab, rhs)


class TestImplicitStep:
    @pytest.mark.parametrize("m", [1, 2, 7, 127])
    def test_equals_solve_banded(self, m):
        rng = np.random.default_rng(m)
        beta_cells = rng.uniform(0.01, 3.0, m + 2)
        a_faces = rng.uniform(0.2, 5.0, m + 1)
        rhs = rng.standard_normal(m)
        h, tau = 1.0 / (m + 1), 0.37 / (m + 1) ** 2
        dl = -a_faces[1:-1] / h ** 2
        d = beta_cells[1:-1] / tau + (a_faces[1:] + a_faces[:-1]) / h ** 2
        x = rhs.copy()
        _implicit_step(dl, d, dl.copy(), x, 1)
        # the right-hand side is overwritten with the solution
        assert np.array_equal(x, implicit_step_banded(beta_cells, a_faces, h, tau, rhs))

    def test_missing_lapack_module_names_the_path(self, monkeypatch):
        monkeypatch.setattr(solver, "_DGTSV", None)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"linalg.?_flapack\.missing"):
            solver._dgtsv()

    def test_singular_system_raises(self):
        with pytest.raises(SingularSystem, match="step 3"):
            _implicit_step(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4), 3)

    def test_overflow_reports_first_step(self):
        grid = small_grid(nx=8, nt=4)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        with pytest.raises(SingularSystem, match="step 1 produced non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            solve_ivbp(BETA1, A, F, grid, initial=np.full(grid.nx + 1, 1e308))

    def test_non_finite_inputs_raise(self):
        grid = small_grid(nx=16, nt=8)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = forcing_from_callable(smooth_random_forcing(3), grid)
        solve_ivbp(BETA1, A, F, grid)
        bad_F = F.copy()
        bad_F[5, 3] = np.nan
        bad_A = A.values.copy()
        bad_A[8, 0] = np.nan
        init = np.ones(grid.nx + 1)
        init[4] = np.inf
        for args, kwargs in (((BETA1, A, bad_F, grid), {}),
                             ((BETA1, CoefficientField(bad_A), F, grid), {}),
                             ((BETA1, A, F, grid), {"initial": init})):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_ivbp(*args, **kwargs)

        def a_bar(t):
            return np.where(t > 0.2, np.nan, 1.0)

        def data(x, t):
            return np.cos(x) + np.where(t > 0.3, np.nan, 0.0)

        smooth = lambda x, t: np.cos(np.asarray(x))
        for a, d, error, message in (
                (a_bar, smooth, EllipticityViolation, "finite and positive"),
                (1.0, data, ValueError, "infs or NaNs")):
            # a NaN conductivity fails CoefficientField.from_callable's
            # ellipticity check, as it does for solve_ivbp's coefficient
            with pytest.raises(error, match=message):
                solve_frozen(1.0, a, (0.0, 1.0), (0.0, 0.4), 8, 8, d)


def march_per_step(beta_cells, a_values, u0, h, tau, F=None, left=None, right=None):
    """Backward Euler with one dgtsv call per step on diagonals built for that
    step: the reference the blocked marcher must equal bit for bit."""
    nt = a_values.shape[0] - 1
    u = np.zeros((nt + 1, u0.size))
    u[0] = u0
    for k in range(nt):
        a = a_values[k + 1]
        rhs = beta_cells[1:-1] / tau * u[k, 1:-1]
        if F is not None:
            rhs = rhs + (F[k + 1, 1:] - F[k + 1, :-1]) / h
        if left is not None:
            rhs[0] += a[0] * left[k] / h ** 2
            rhs[-1] += a[-1] * right[k] / h ** 2
            u[k + 1, 0], u[k + 1, -1] = left[k], right[k]
        off = -a[1:-1] / h ** 2
        diag = beta_cells[1:-1] / tau + (a[1:] + a[:-1]) / h ** 2
        if diag.size == 1:
            u[k + 1, 1:-1] = rhs / diag
        else:
            u[k + 1, 1:-1] = dgtsv(off, diag, off.copy(), rhs)[3]
    return u


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBlockedMarching:
    """solve_ivbp and solve_frozen equal the per-step loop bit for bit."""

    @pytest.mark.parametrize("nx, nt", [
        (2, 9), (16, 5), (16, STEP_BLOCK), (9, 2 * STEP_BLOCK + 37)])
    @pytest.mark.parametrize("time_dependent", [False, True])
    @pytest.mark.parametrize("initial", [False, True])
    def test_solve_ivbp_equals_per_step(self, nx, nt, time_dependent, initial):
        grid = small_grid(nx=nx, nt=nt)
        if time_dependent:
            A = CoefficientField.from_callable(
                lambda x, t: 1.0 + 0.3 * np.sin(7.0 * x) * (1.0 + 2.0 * t), grid)
        else:
            A = CoefficientField.from_callable(lambda x, t: 1.0 + 0.2 * x, grid)
        F = forcing_from_callable(smooth_random_forcing(5), grid)
        u0 = np.sin(math.pi * grid.x) - 0.25 if initial else np.zeros(nx + 1)
        u0[[0, -1]] = 0.0
        got = solve_ivbp(BETA_POW, A, F, grid, initial=u0 if initial else None)
        ref = march_per_step(got.beta_cells, A.values, u0, grid.h, grid.tau, F=F)
        assert same_bits(got.u, ref)

    @pytest.mark.parametrize("nx, nt", [(2, 7), (12, STEP_BLOCK + 1)])
    @pytest.mark.parametrize("left_zero", [False, True])
    def test_solve_frozen_equals_per_step(self, nx, nt, left_zero):
        # left_zero: data that vanish on the left side, a zero lateral trace
        def data(x, t):
            x = np.asarray(x)
            return (x + 0.4) * (x - 0.3 + t) if left_zero else x ** 2 + 2.0 * t - 0.3

        got = solve_frozen(0.7, lambda t: 1.0 + 0.3 * t, (-0.4, 0.6), (0.1, 0.5),
                           nx, nt, data)
        assert got.grid.t[0] == 0.1 and got.grid.t[-1] == 0.5
        ts = got.grid.t[1:]
        left = np.array([data(-0.4, t) for t in ts])
        right = np.array([data(0.6, t) for t in ts])
        u0 = data(got.grid.x, 0.1)
        assert (np.count_nonzero(left) == 0) == left_zero
        ref = march_per_step(got.beta_cells, got.A.values, u0, got.grid.h,
                             got.grid.tau, left=left, right=right)
        assert same_bits(got.u, ref)


class TestFrozen:
    def test_overflowing_march_raises(self):
        # finite data whose lateral terms a u / h^2 overflow to inf
        def data(x, t):
            return np.full(np.broadcast(x, t).shape, 1e306)

        with np.errstate(over="ignore"), \
                pytest.raises(SingularSystem, match="step 1 produced non-finite values"):
            solve_frozen(1.0, 1.0, (0.0, 1.0), (0.0, 0.25), 64, 8, data)

    def test_zero_data(self):
        v = solve_frozen(1.0, 1.0, (0.0, 1.0), (0.0, 0.5), 16, 16,
                         lambda x, t: np.zeros_like(np.asarray(x, float)))
        assert np.all(v.u == 0.0)

    def test_caloric_polynomial_exact(self):
        # x^2 + 2t lies in the discrete kernel of the centered scheme
        v = solve_frozen(1.0, 1.0, (-1.0, 1.0), (0.0, 0.5), 20, 10,
                         lambda x, t: np.asarray(x) ** 2 + 2.0 * t)
        for k, t in enumerate(v.grid.t):
            ref = v.grid.x ** 2 + 2.0 * t
            assert np.allclose(v.u[k], ref, atol=1e-11)

    def test_data_called_once_per_boundary_part(self):
        # the initial slice on the nodes, then both lateral traces at once
        calls = []

        def data(x, t):
            calls.append(np.broadcast(x, t).shape)
            return x ** 2 + 2.0 * t

        v = solve_frozen(1.0, 1.0, (-1.0, 1.0), (0.0, 0.5), 20, 10, data)
        assert calls == [(21,), (10, 2)]
        assert np.array_equal(v.u[1:, 0], 1.0 + 2.0 * v.grid.t[1:])
        assert np.array_equal(v.u[1:, -1], 1.0 + 2.0 * v.grid.t[1:])

    def test_doubled_weight_is_half_time(self):
        # beta_bar = 2 with step tau equals beta_bar = 1 with step tau/2
        data = lambda x, t: np.cos(np.asarray(x))
        v2 = solve_frozen(2.0, 1.0, (0.0, 1.0), (0.0, 0.4), 16, 8, data)
        v1 = solve_frozen(1.0, 1.0, (0.0, 1.0), (0.0, 0.2), 16, 8, data)
        assert np.allclose(v2.u, v1.u, atol=1e-13)


def make_manufactured(nx=64, nt=None, t_final=0.25, beta=BETA1):
    nt = nt if nt is not None else nx
    case = ManufacturedCase(beta)
    u, err = case.solve(nx, nt, t_final)
    return u, err


class TestEnergyAudit:
    def cylinders(self, beta, t0=0.25):
        inner = WeightedCylinder(0.5, t0, 0.1875, beta, variant="Q")
        outer = WeightedCylinder(0.5, t0, 0.25, beta, variant="Q")
        return inner, outer

    def test_zero_solution_trivial(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid)
        inner, outer = self.cylinders(BETA1)
        rep = energy_audit(u, inner, outer, math.inf)
        assert rep.rows[0].lhs == 0.0
        assert rep.passed

    def test_scale_invariance(self):
        u, _ = make_manufactured()
        inner, outer = self.cylinders(BETA1)
        n1 = energy_audit(u, inner, outer, math.inf).rows[0].constant
        n2 = energy_audit(u.scaled(37.0), inner, outer, math.inf).rows[0].constant
        assert n2 == pytest.approx(n1, rel=1e-12)

    def test_refinement_stability(self):
        # tau proportional to h^2, matching the convergence-order stepping
        inner, outer = self.cylinders(BETA1)
        consts = []
        for nx in (32, 64, 128):
            u, _ = make_manufactured(nx=nx, nt=nx * nx // 4)
            consts.append(energy_audit(u, inner, outer, math.inf).rows[0].constant)
        spread = (max(consts) - min(consts)) / min(consts)
        assert spread < 0.10, consts


class TestPoincare:
    def test_constant_solution_zero_lhs(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid)
        cyl = WeightedCylinder(0.5, 0.25, 0.2, BETA1)
        rep = poincare_audit(u, cyl, variant="interior", budget=100.0)
        assert rep.rows[0].lhs == 0.0

    def test_interior_scaling_of_constant(self):
        # dyadic radius so the audited region snaps identically on all grids
        consts = []
        for nx in (32, 64):
            u, _ = make_manufactured(nx=nx, nt=nx * nx // 4)
            cyl = WeightedCylinder(0.5, 0.25, 0.25, BETA1)
            rep = poincare_audit(u, cyl, variant="interior", budget=100.0)
            consts.append(rep.rows[0].constant)
        assert consts[0] == pytest.approx(consts[1], rel=0.2)

    def test_boundary_variant_zero_trace(self):
        u, _ = make_manufactured()
        cyl = WeightedCylinder(0.0, 0.25, 0.2, BETA1,
                               variant="Q+")
        rep = poincare_audit(u, cyl, variant="boundary", budget=100.0)
        assert rep.passed

    def test_boundary_nonzero_trace_fails(self):
        # u = 1 has no gradient, no forcing and no oscillation term, so the
        # right side is 0 < lhs and the inequality fails for every N
        grid = small_grid(nx=32, nt=64)
        u = field_of(np.ones((grid.nt + 1, grid.nx + 1)), grid, BETA1)
        cyl = WeightedCylinder(0.0, 0.25, 0.25, BETA1, variant="Q+")
        row = poincare_audit(u, cyl, variant="boundary", budget=100.0).rows[0]
        assert row.lhs > 0.0 and row.rhs == 0.0
        assert row.constant == math.inf and not row.passed

    def test_gate_failure(self):
        vals = np.full(64, 1.0)
        vals[28:36] = 1e4  # violent oscillation
        beta = Weight.sampled(vals, (0.0, 1.0))
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(beta, A, F, grid, initial=np.sin(math.pi * grid.x))
        cyl = WeightedCylinder(0.5, 0.25, 0.2, beta)
        with pytest.raises(GateFailed):
            poincare_audit(u, cyl, variant="interior", budget=100.0)


class TestLipschitz:
    def frozen_solution(self, nx=48, nt=48):
        beta_bar = 1.0
        beta = Weight.constant(beta_bar, (-1.0, 1.0))
        outer = WeightedCylinder(0.0, 0.0, 0.5, beta, variant="Q")
        inner = WeightedCylinder(0.0, 0.0, 0.25, beta, variant="Q")
        v = solve_frozen(beta_bar, 1.0, outer.x_interval, outer.t_interval, nx, nt,
                         lambda x, t: np.asarray(x) ** 2 + 2.0 * t)
        return v, inner, beta_bar

    def test_constant_data_zero_both_sides(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        outer = WeightedCylinder(0.0, 0.0, 0.5, beta, variant="Q")
        inner = WeightedCylinder(0.0, 0.0, 0.25, beta, variant="Q")
        v = solve_frozen(1.0, 1.0, outer.x_interval, outer.t_interval, 16, 16,
                         lambda x, t: np.full_like(np.asarray(x, float), 3.0))
        rep = lipschitz_audit(v, inner, beta_bar=1.0, budget=math.inf)
        assert rep.rows[0].lhs == pytest.approx(0.0, abs=1e-12)

    def test_gradient_free_time_profile_fails(self):
        # v = t moves in time with no gradient: lhs = r b v_t > 0 = rhs
        beta = Weight.constant(1.0, (0.0, 1.0))
        outer = WeightedCylinder(0.5, 0.0, 0.5, beta, variant="Q")
        inner = WeightedCylinder(0.5, 0.0, 0.25, beta, variant="Q")
        (a, b), (s, e) = outer.x_interval, outer.t_interval
        grid = Grid(x0=a, x1=b, nx=16, t_final=e, nt=16, t0=s)
        v = field_of(np.repeat(grid.t[:, None], grid.nx + 1, axis=1), grid, beta)
        row = lipschitz_audit(v, inner, beta_bar=1.0, budget=100.0).rows[0]
        assert row.lhs > 0.0 and row.rhs == 0.0
        assert row.constant == math.inf and not row.passed

    def test_caloric_polynomial_stable_constant(self):
        consts = []
        for n in (32, 64):
            v, inner, bb = self.frozen_solution(nx=n, nt=n)
            rep = lipschitz_audit(v, inner, bb, math.inf)
            assert rep.rows[0].extra["sup_grad"] > 0.0
            assert rep.rows[0].extra["sup_vt"] > 0.0
            consts.append(rep.rows[0].constant)
        assert consts[0] == pytest.approx(consts[1], rel=0.15)
        assert all(np.isfinite(c) and c > 0 for c in consts)

    def test_shrinking_radius_bounded_constant(self):
        # dilation sweep: N_emp stays bounded as the cylinder pair shrinks
        beta = Weight.constant(1.0, (-1.0, 1.0))
        consts = []
        for r in (0.25, 0.125, 0.0625):
            outer = WeightedCylinder(0.0, 0.0, 2 * r, beta, variant="Q")
            inner = WeightedCylinder(0.0, 0.0, r, beta, variant="Q")
            v = solve_frozen(1.0, 1.0, outer.x_interval, outer.t_interval, 48, 48,
                             lambda x, t: np.asarray(x) ** 2 + 2.0 * t)
            consts.append(lipschitz_audit(v, inner, 1.0, math.inf).rows[0].constant)
        assert max(consts) < 10.0 * min(consts)
        assert all(np.isfinite(c) and c > 0 for c in consts)


class TestFreezeCompare:
    def test_constant_coefficients_discretization_only(self):
        # F = 0 and constant coefficients: u itself solves the frozen
        # equation, so the gap is interpolation + local-grid error only
        grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.05, nt=64)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid, initial=np.sin(math.pi * grid.x))
        cyl = WeightedCylinder(0.5, 0.05, 0.05, BETA1)
        eps_emp, delta_emp = freeze_compare(u, lambda x, t: 1.0, cyl, nx_local=8,
                                            nt_local=4)
        assert eps_emp < 0.05
        assert delta_emp == 0.0  # no oscillation in the weight or coefficient, no forcing

    def test_gap_tracks_forcing(self):
        # constant coefficients with growing forcing: the gap follows ||F||
        gaps = []
        for f_amp in (0.0, 0.5, 1.0):
            grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.05, nt=64)
            A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
            F = forcing_from_callable(
                lambda x, t, a=f_amp: a * np.sin(2 * math.pi * x), grid)
            u = solve_ivbp(BETA1, A, F, grid, initial=np.sin(math.pi * grid.x))
            cyl = WeightedCylinder(0.5, 0.05, 0.05, BETA1)
            gaps.append(freeze_compare(u, lambda x, t: 1.0, cyl, nx_local=8,
                                       nt_local=4)[0])
        assert gaps[0] < gaps[1] < gaps[2]

    def freeze(self, a_fun, x0, t0):
        grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.05, nt=64)
        A = CoefficientField.from_callable(a_fun, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA_POW, A, F, grid, initial=np.sin(math.pi * grid.x))
        cyl = WeightedCylinder(x0, t0, 0.05, BETA_POW)
        return freeze_compare(u, a_fun, cyl, nx_local=8, nt_local=4)

    def test_theta_a_is_theta_A_ms_on_the_4r_cylinder(self):
        # B_0.2(0.15) runs past x = 0, and the 4r cylinder's height past t = 0
        a_fun = sinusoidal_coefficient(1.0, 0.4, 8.0)
        _, delta_emp = self.freeze(a_fun, 0.15, 0.02)
        h4 = WeightedCylinder(0.15, 0.02, 0.2, BETA_POW).h
        assert h4 > 0.02
        want = theta_A_ms(a_fun, 0.15, 0.02, 0.2, h4, (0.0, 1.0, 0.0, 0.05))
        assert want > 0.0
        unclipped = theta_A_ms(a_fun, 0.15, 0.02, 0.2, h4, (-1.0, 1.0, -1.0, 1.0))
        assert want != unclipped
        # F = 0, so the forcing term is 0
        assert delta_emp == math.sqrt(want + theta_beta_ms(BETA_POW, 0.15, 0.2))

    def test_interpolant_called_once_per_boundary_part_and_gradient(self, monkeypatch):
        calls = []
        interp = solver._interp_solution

        def counted(u):
            fn = interp(u)

            def wrapped(x, t):
                calls.append(np.broadcast(x, t).shape)
                return fn(x, t)

            return wrapped

        monkeypatch.setattr(solver, "_interp_solution", counted)
        self.freeze(sinusoidal_coefficient(1.0, 0.4, 8.0), 0.5, 0.05)
        # nx_local = 8, nt_local = 4: the initial slice, both lateral traces,
        # and u's nodes at every local level for the gradient gap
        assert calls == [(9,), (4, 2), (5, 9)]

    def test_zero_gradient_raises(self):
        # the zero solution has no gradient to normalize on the 4r cylinder
        grid = Grid(x0=0.0, x1=1.0, nx=32, t_final=0.05, nt=32)
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        u = solve_ivbp(BETA1, A, np.zeros((grid.nt + 1, grid.nx)), grid,
                       initial=np.zeros(grid.x.shape))
        assert not np.any(u.u)
        cyl = WeightedCylinder(0.5, 0.05, 0.05, BETA1)
        with pytest.raises(PreconditionFailed, match="gradient of u vanishes"):
            freeze_compare(u, lambda x, t: 1.0, cyl, nx_local=8, nt_local=4)

    def test_coefficient_of_time_alone_has_no_oscillation(self):
        eps_emp, delta_emp = self.freeze(lambda x, t: 1.0 + 0.5 * t, 0.5, 0.05)
        assert delta_emp == pytest.approx(math.sqrt(theta_beta_ms(BETA_POW, 0.5, 0.2)),
                                          rel=1e-12)
        assert eps_emp > 0.0


class TestInterpolant:
    def test_rows_equal_per_time_np_interp(self):
        # nonzero lateral values, and a spacing (1/30) that is no power of
        # two; the two-point form and np.interp round apart by 1.4 eps max|u|
        u = solve_frozen(0.7, 1.0, (-0.4, 0.6), (0.1, 0.5), 30, 12,
                         lambda x, t: np.cos(3.0 * x) + t)
        grid = u.grid
        fn = _interp_solution(u)
        rng = np.random.default_rng(5)
        # the nodes, points between them, and points past either end
        x = np.concatenate([grid.x, rng.uniform(-0.5, 0.7, 64),
                            [np.nextafter(0.6, 1.0), np.nextafter(-0.4, -1.0)]])
        # the levels, times between them, and times past either end; the
        # grid's times are absolute and start at 0.1
        t = np.concatenate([grid.t, rng.uniform(0.05, 0.55, 16), [grid.t_final + 1e-3]])
        got = fn(x[None, :], t[:, None])
        assert got.shape == (t.size, x.size)
        for i, ti in enumerate(t):
            # the interpolant as one np.interp call per time
            k = min(max(int(np.floor((ti - 0.1) / grid.tau)), 0), grid.nt - 1)
            ft = (ti - grid.t[k]) / grid.tau
            want = np.interp(x, grid.x, (1.0 - ft) * u.u[k] + ft * u.u[k + 1])
            tol = 4.0 * np.finfo(float).eps * np.max(np.abs(want))
            assert np.all(np.abs(got[i] - want) <= tol)
            assert np.array_equal(fn(x, ti), got[i])


class TestEmptyRegion:
    def test_cylinder_narrower_than_the_grid_spacing_raises(self):
        u, _ = make_manufactured(nx=32, nt=40)
        # no node or face lies within 1e-9 of x = 0.51 (h = 1/32)
        thin = (0.51 - 1e-9, 0.51 + 1e-9, 0.0, 0.25)
        for values in (u.u, u.F, u.grad()):
            with pytest.raises(EmptyRegion, match="no grid column or no time level"):
                u.block(values, thin)
        # nor does any time level within its height of t = 0.25
        cyl = WeightedCylinder(0.51, 0.25, 1e-9, BETA1)
        with pytest.raises(EmptyRegion):
            u.block(u.u, (0.0, 1.0, *cyl.t_interval))
        with pytest.raises(EmptyRegion):
            energy_audit(u, cyl, cyl, math.inf)
        with pytest.raises(EmptyRegion):
            poincare_audit(u, cyl, variant="interior", budget=100.0)


class TestAprioriRatio:
    def test_zero_forcing_ratio_zero(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid)
        assert apriori_ratio(u, 2.0) == 0.0

    def test_zero_forcing_nonzero_solution_infinite(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid, initial=np.sin(math.pi * grid.x))
        assert apriori_ratio(u, 2.0) == math.inf

    def test_ratio_scale_invariant(self):
        u = solve_driven(BETA1, smooth_random_forcing(3), nx=48, nt=48,
                         t_final=0.25, a_fun=lambda x, t: 1.0)
        r1 = apriori_ratio(u, 2.0)
        r2 = apriori_ratio(u.scaled(11.0), 2.0)
        # forcing scales with the solution, so the ratio is unchanged
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_refinement_stability_p2(self):
        ratios = []
        for nx in (32, 64, 128):
            u = solve_driven(BETA1, smooth_random_forcing(3), nx=nx, nt=nx,
                             t_final=0.25, a_fun=lambda x, t: 1.0)
            ratios.append(apriori_ratio(u, 2.0))
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.10, ratios

    def test_discrete_energy_bound_p2(self):
        # re-derived on the discrete level: testing the scheme with the new
        # iterate gives nu * ||grad u||^2 <= ||F|| ||grad u||, with nu the
        # smallest conductivity, so the gradient norm never exceeds ||F|| / nu
        for beta in (BETA1, BETA_POW):
            u = solve_driven(beta, smooth_random_forcing(5), nx=64, nt=256,
                             t_final=0.25, a_fun=lambda x, t: 1.0)
            region = u.grid.region()
            nu = float(u.A.values.min())
            assert u.lp(u.grad(), 2.0, region) <= u.lp(u.F, 2.0, region) / nu * (1 + 1e-10)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_ratio_of_the_full_domain_norms(self, p):
        u = solve_driven(BETA_POW, smooth_random_forcing(5), nx=32, nt=64,
                         t_final=0.25, a_fun=lambda x, t: 1.0)
        region = u.grid.region()
        assert apriori_ratio(u, p) == ((u.lp(u.grad(), p, region)
                                        + u.lp(u.flux_proxy(), p, region))
                                       / u.lp(u.F, p, region))


class TestTimeShift:
    def cutoff(self, grid):
        x = grid.x
        phi = np.clip(1.0 - ((x - 0.5) / 0.35) ** 2, 0.0, None) ** 2
        return phi

    def test_zero_solution(self):
        grid = small_grid()
        A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
        F = np.zeros((grid.nt + 1, grid.nx))
        u = solve_ivbp(BETA1, A, F, grid)
        rep = time_shift_audit(u, self.cutoff(grid), 1, 10.0)
        assert rep.passed
        assert rep.rows[0].lhs == 0.0

    def test_zero_cutoff(self):
        u, _ = make_manufactured(nx=32, nt=32)
        rep = time_shift_audit(u, np.zeros(u.grid.nx + 1), 2, 10.0)
        assert rep.rows[0].lhs == 0.0
        assert rep.rows[0].rhs == 0.0

    def test_shift_exponent_at_least_half(self):
        u, _ = make_manufactured(nx=64, nt=64)
        phi = self.cutoff(u.grid)
        hs, lhss = [], []
        for steps in (1, 2, 4):
            rep = time_shift_audit(u, phi, steps, 10.0)
            hs.append(steps * u.grid.tau)
            lhss.append(rep.rows[0].lhs)
        slope = np.polyfit(np.log(hs), np.log(lhss), 1)[0]
        assert slope >= 0.5

    @pytest.mark.parametrize("steps", [1, 3, 32])
    def test_lhs_equals_level_loop(self, steps):
        u, _ = make_manufactured(nx=32, nt=32, beta=BETA_POW)
        phi = self.cutoff(u.grid)
        levels = []
        for k in range(u.grid.nt + 1 - steps):
            diff = (u.u[k + steps] - u.u[k]) * phi
            levels.append(diff ** 2 * u.beta_cells)
        lhs = float(np.sum(levels) * u.grid.h * u.grid.tau)
        assert time_shift_audit(u, phi, steps, 10.0).rows[0].lhs == lhs


class TestArrayPasses:
    """Whole-array forms of the per-level loops keep every bit."""

    @pytest.mark.parametrize("nx, nt", [(32, 40), (32, 48), (64, 40), (16, 40)])
    def test_l2_error_equals_level_loop(self, nx, nt):
        u, err = make_manufactured(nx=nx, nt=nt, beta=BETA_POW)
        exact = ManufacturedCase(BETA_POW).exact
        levels = []
        for k in range(1, u.grid.nt + 1):
            diff = u.u[k] - exact(u.grid.x, u.grid.t[k])
            levels.append(diff ** 2)
        assert err == math.sqrt(float(np.sum(levels) * u.grid.h * u.grid.tau))

    def test_exact_broadcasts_with_per_level_bits(self):
        case = ManufacturedCase(BETA_POW)
        x, t = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 0.3, 5)
        grid_vals = case.exact(x[None, :], t[:, None])
        for k, tk in enumerate(t):
            assert np.array_equal(grid_vals[k], np.sin(math.pi * x) * math.exp(-tk))

    @pytest.mark.parametrize("a_fun", [lambda x, t: 1.0 + 0.3 * np.sin(7.0 * x),
                                       lambda x, t: 1.0 + 0.3 * np.sin(7.0 * x) * (1.0 + t)],
                             ids=["constant-in-t", "varying-in-t"])
    def test_in_place_norms_keep_the_bits(self, a_fun):
        u = solve_driven(BETA_POW, smooth_random_forcing(5), nx=32, nt=64,
                         t_final=0.25, a_fun=a_fun)
        g = np.diff(u.u, axis=1) / u.grid.h
        proxy = np.broadcast_to(a_fun(u.grid.faces[None, :], u.grid.t[:, None]),
                                u.F.shape) * g + u.F
        assert np.array_equal(u.grad(), g)
        assert np.array_equal(u.flux_proxy(), proxy)
        region = u.grid.region()
        for p in (2.0, 3.5, 4.0):
            assert u.lp(proxy, p, region) == float(
                (np.sum(np.abs(proxy[1:]) ** p) * u.grid.h * u.grid.tau) ** (1.0 / p))

    @pytest.mark.parametrize("region", [
        (0.2, 0.61, 0.03, 0.2), (0.0, 1.0, 0.0, 0.25), (0.5, 0.5, 0.1, 0.1),
        (0.7, 0.3, 0.0, 0.25), (-1.0, 2.0, -1.0, 2.0), (0.25, 0.75, 0.1, 0.13)])
    def test_block_is_the_masked_selection(self, region):
        u, _ = make_manufactured(nx=32, nt=40, beta=BETA_POW)
        a, b, s, e = region
        t = u.grid.t
        fuzz = 1e-12 * max(1.0, abs(e))
        ks = np.nonzero((t > s + fuzz) & (t <= e + fuzz) & (np.arange(t.size) >= 1))[0]
        for values, cols in (
                (u.u, (u.grid.x >= a - 1e-12) & (u.grid.x <= b + 1e-12)),
                (u.F, (u.grid.faces >= a) & (u.grid.faces <= b))):
            # the boolean column index leaves its copy F-ordered: copy it
            # again in C order, the order of the block it stands for
            ref = np.ascontiguousarray(values[ks][:, cols])
            if ref.size == 0:  # no time level or no column
                with pytest.raises(EmptyRegion):
                    u.block(values, region)
                continue
            got = u.block(values, region)
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert np.shares_memory(got, values)
            # the norm sums the block row by row, as over that C-ordered copy
            assert u.lp(values, 2.0, region) == float(
                (np.sum(np.abs(ref) ** 2.0) * u.grid.h * u.grid.tau) ** 0.5)
            if values is u.u:  # the sup over slices, as a loop over the rows
                assert u.sup_weighted_energy(region) == max(
                    float(np.sum(row) * u.grid.h) for row in ref ** 2 * u.beta_cells[cols])


class TestWeightCells:
    def test_degenerate_node_keeps_positive_mass(self):
        grid = Grid(x0=0.0, x1=1.0, nx=64, t_final=0.1, nt=4)
        cells = cell_averaged_weight(BETA_POW, grid)
        assert np.all(cells > 0.0)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=-0.5, max_value=0.9))
    def test_cell_average_matches_quadrature(self, alpha):
        beta = Weight.power(alpha, 0.5, (0.0, 1.0))
        grid = Grid(x0=0.0, x1=1.0, nx=16, t_final=0.1, nt=4)
        cells = cell_averaged_weight(beta, grid)
        i = 4  # interior node away from the kink
        xs = np.linspace(grid.x[i] - grid.h / 2, grid.x[i] + grid.h / 2, 20001)
        mid = 0.5 * (xs[:-1] + xs[1:])
        ref = float(np.mean(np.abs(mid - 0.5) ** alpha))
        assert cells[i] == pytest.approx(ref, rel=1e-6)
