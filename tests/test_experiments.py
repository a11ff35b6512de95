import json
import math
from pathlib import Path

import numpy as np
import pytest

from wparab import cli
from wparab.cli import run_experiment
from wparab.experiments import (
    ManufacturedCase,
    convergence_study,
    fit_loglog_slope,
    smooth_random_forcing,
)
from wparab.geometry import WeightedCylinder
from wparab.solver import (energy_audit, poincare_audit, sinusoidal_coefficient,
                           time_shift_audit)
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
        u, _ = case.solve(16, 64, 0.25)
        grid = u.grid
        g = case.profile(grid.faces)
        # each level is its own decay factor times the one profile
        ref = np.array([np.exp(-t) * g for t in grid.t])
        assert np.array_equal(u.F, ref)
        # the gauge: the profile has mean zero over the faces
        assert abs(np.mean(g)) <= 1e-15 * np.max(np.abs(g))

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


class TestManufacturedWeights:
    @pytest.mark.parametrize("centre", [0.1, 0.9])
    def test_off_centre_weight_converges_at_second_order(self, tmp_path, centre):
        # on |x - 0.1|^0.6 some faces lie 0.9 from the centre, where the
        # cosine part of the forcing series is negative: with its sign
        # dropped the errors stalled at 3.8e-4, 4.4e-4 and 4.6e-4
        raw = json.loads((Path(cli.__file__).parent / "configs"
                          / "power_weight.json").read_text())
        raw["weight"].update(alpha=0.6, center=centre)
        raw["audits"]["solve"].update(levels=[32, 64, 128], order_min=1.9)
        raw["selection"] = ["solve"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run_experiment(str(cfg), str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out"
                             / "solve__manufactured-convergence.json").read_text())
        orders = [float(row["constant"]) for row in report["rows"]]
        assert report["passed"] and len(orders) == 2 and min(orders) >= 1.9

    def test_mirrored_weight_keeps_the_constants(self):
        # x -> 1 - x maps |x - 0.3|^0.2 to |x - 0.7|^0.2 and u* to itself;
        # in the mean-zero gauge F maps to -F, so every constant that reads
        # u, its gradient or |F| on a cylinder centred at 1/2 is unchanged
        consts = []
        for centre in (0.3, 0.7):
            w = Weight.power(0.2, centre, (0.0, 1.0))
            u, _ = ManufacturedCase(w).solve(64, 1024, 0.25)
            inner = WeightedCylinder(0.5, 0.25, 0.1875, w, variant="Q")
            outer = WeightedCylinder(0.5, 0.25, 0.25, w, variant="Q")
            phi = np.clip(1.0 - ((u.grid.x - 0.5) / 0.35) ** 2, 0.0, None) ** 2
            reports = [energy_audit(u, inner, outer, budget=100.0),
                       poincare_audit(u, outer, variant="interior", budget=10.0),
                       time_shift_audit(u, phi, 2, budget=10.0)]
            consts.append([row.constant for rep in reports for row in rep.rows])
        assert len(consts[0]) == 4
        assert consts[1] == pytest.approx(consts[0], rel=1e-12)
