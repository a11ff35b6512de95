import math

import numpy as np
import pytest

from wparab.experiments import (
    ManufacturedCase,
    convergence_study,
    fit_loglog_slope,
    smooth_random_forcing,
)
from wparab.solver import sinusoidal_coefficient
from wparab.weights import Weight


class TestFitting:
    def test_loglog_slope_exact_power_law(self):
        xs = [0.05, 0.1, 0.2, 0.4]
        ys = [3.0 * x ** 1.7 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.7, abs=1e-12)

    def test_loglog_slope_drops_nonpositive(self):
        assert math.isnan(fit_loglog_slope([1.0, -1.0], [2.0, 3.0]))


class TestForcing:
    @pytest.mark.parametrize("beta", [Weight.power(0.2, 0.5, (0.0, 1.0)),
                                      Weight.constant(1.0, (0.0, 1.0))])
    def test_separable_forcing_matches_pointwise(self, beta):
        case = ManufacturedCase(beta)
        # on this time grid np.exp and math.exp disagree in the last bit at
        # some levels, so the check also pins the scalar decay factor
        u, _ = case.solve(16, 64, 0.25)
        grid = u.grid
        ref = np.array([[math.exp(-t) * case.profile(x) for x in grid.faces]
                        for t in grid.t])
        assert np.array_equal(u.F, ref)

    def test_seeded_forcing_reproducible(self):
        f1 = smooth_random_forcing(42)
        f2 = smooth_random_forcing(42)
        f3 = smooth_random_forcing(43)
        pts = [(0.3, 0.1), (0.7, 0.2)]
        assert all(f1(x, t) == f2(x, t) for x, t in pts)
        assert any(f1(x, t) != f3(x, t) for x, t in pts)

    def test_oscillating_coefficient_range(self):
        a = sinusoidal_coefficient(1.0, 0.3, 8.0)
        xs = np.linspace(0.0, 1.0, 101)
        vals = [a(x, 0.0) for x in xs]
        assert min(vals) >= 0.7 - 1e-12
        assert max(vals) <= 1.3 + 1e-12
        # the bits of the frozen-comparison sweep's former 1 + a sin(8 pi x)
        assert np.array_equal(a(xs, 0.0), 1.0 + 0.3 * np.sin(8.0 * math.pi * xs))


class TestConvergenceRows:
    def test_row_structure(self):
        rows = convergence_study(Weight.constant(1.0, (0.0, 1.0)), [8, 16], 0.1,
                                 use=lambda *_: None, between=lambda: None)
        assert math.isnan(rows[0]["order"])
        assert rows[1]["order"] > 0.0
        assert rows[1]["error"] < rows[0]["error"]

    def test_manufactured_exact_at_initial_time(self):
        case = ManufacturedCase(Weight.constant(1.0, (0.0, 1.0)))
        u, _ = case.solve(16, 8, 0.1)
        assert np.allclose(u.u[0], case.exact(u.grid.x, 0.0) *
                           np.where((u.grid.x == 0) | (u.grid.x == 1), 0, 1),
                           atol=1e-15)
