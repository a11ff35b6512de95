import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import cli, flattening, weights
from wparab.config import ExperimentConfig
from wparab.errors import EmptyBall, GateFailed
from wparab.experiments import fit_loglog_slope
from wparab.flattening import (
    BoundaryChart,
    _sup_ball_oscillation,
    _transformed_weight,
    b_matrix,
    b_norm_delta_sweep,
    inclusion_audit,
    oscillation_delta_sweep,
    phi_inverse,
    phi_map,
    pushforward_coefficients,
    pushforward_weight_audit,
)
from wparab.weights import BallFamily, Weight, ball_grid

DOM2 = ((-1.0, 1.0), (-1.0, 1.0))


class TestChart:
    def test_zero_chart_is_identity(self):
        chart = BoundaryChart(delta=0.0)
        pts = np.array([[0.3, -0.2], [1.0, 1.0]])
        assert np.allclose(phi_map(chart, pts), pts)
        assert np.allclose(phi_inverse(chart, pts), pts)

    def test_affine_direct_substitution(self):
        chart = BoundaryChart(delta=0.25)
        out = phi_map(chart, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[1.0, 0.75]])

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(min_value=0.0, max_value=0.9),
        x=st.floats(min_value=-2.0, max_value=2.0),
        y=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_roundtrip_exact(self, delta, x, y):
        chart = BoundaryChart(delta=delta)
        p = np.array([[x, y]])
        # exact up to one rounding of the chart offset
        tol = 1e-15 * (1.0 + abs(float(chart.phi(np.array([x]))[0])))
        assert np.allclose(phi_inverse(chart, phi_map(chart, p)), p, atol=tol)
        assert np.allclose(phi_map(chart, phi_inverse(chart, p)), p, atol=tol)

    def test_lipschitz_bound_tight(self):
        chart = BoundaryChart(delta=0.3)
        xs = np.linspace(-2.0, 2.0, 4001)
        assert np.max(np.abs(chart.grad_phi(xs))) <= 0.3 + 1e-12

    def test_delta_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            BoundaryChart(delta=1.0)


class TestInclusions:
    def test_zero_chart(self):
        chart = BoundaryChart(delta=0.0)
        rep = inclusion_audit(chart, [0.0, 0.0], 0.5)
        assert rep.passed

    def test_steep_chart_still_passes(self):
        chart = BoundaryChart(delta=0.9)
        rep = inclusion_audit(chart, [0.4, -0.3], 0.7)
        assert rep.passed


class TestCoefficients:
    def test_zero_chart_no_correction(self):
        chart = BoundaryChart(delta=0.0)
        a_t, b_f, rep = pushforward_coefficients(chart, lambda x, t: np.eye(2), 0.5)
        assert rep.passed
        assert np.allclose(b_f(np.array([0.3, 0.1]), 0.0), 0.0)
        assert np.allclose(a_t(np.array([0.3, 0.1]), 0.0), np.eye(2))

    def test_identity_affine_closed_form(self):
        delta = 0.3
        chart = BoundaryChart(delta=delta)
        B = b_matrix(chart, np.eye(2), 0.0)
        assert np.allclose(B, [[0.0, -delta], [-delta, delta ** 2]])

    def test_symmetry_preserved(self):
        chart = BoundaryChart(delta=0.4)
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        a_t, _, _ = pushforward_coefficients(chart, lambda x, t: A, 0.4)
        At = a_t(np.array([0.2, 0.3]), 0.0)
        assert np.allclose(At, At.T)

    def test_decomposition_identity(self):
        chart = BoundaryChart(delta=0.5)

        def A(x, t):
            return np.array([[1.5 + 0.2 * math.sin(x[0]), 0.1],
                             [0.1, 1.0 + 0.1 * t]])

        _, _, rep = pushforward_coefficients(chart, A, nu=0.4)
        row = next(r for r in rep.rows if r.label == "decomposition-identity")
        assert row.passed

    def test_b_norm_linear_exponent(self):
        rows = b_norm_delta_sweep([0.05, 0.1, 0.2])
        slope = fit_loglog_slope([r["delta"] for r in rows],
                                 [r["b_norm"] for r in rows])
        assert slope >= 0.9

    def test_flatten_group_pushes_forward_once_per_delta(self, tmp_path, monkeypatch):
        # the coefficient-pushforward report is the sweep's last one
        charts = []
        real = flattening.pushforward_coefficients
        monkeypatch.setattr(flattening, "pushforward_coefficients",
                            lambda chart, *a: charts.append(chart.delta) or real(chart, *a))
        cfg = ExperimentConfig.from_dict({"name": "flat", "seed": 3,
                                          "selection": ["flatten"]})
        reports = cli.run_flatten(cli.RunContext(cfg, cfg.seed, tmp_path))
        assert charts == cfg.audits["flatten"].deltas == [0.05, 0.1, 0.2]
        coef, = [r for r in reports if r.check == "coefficient-pushforward"]
        assert coef.params["delta"] == 0.2


class TestWeightPushforward:
    def fam(self):
        return BallFamily.default(DOM2, n_centers=5, n_radii=8)

    def test_zero_chart_no_inflation(self):
        chart = BoundaryChart(delta=0.0)
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = pushforward_weight_audit(chart, beta, 10.0, self.fam(),
                                       shape=(32, 32))
        row = rep.rows[0]
        assert row.passed
        assert row.constant == pytest.approx(1.0, rel=1e-9)

    def test_shifted_chart_within_budget(self):
        chart = BoundaryChart(delta=0.2)
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = pushforward_weight_audit(chart, beta, 10.0, self.fam(),
                                       shape=(32, 32))
        row = rep.rows[0]
        assert row.passed  # within 2^{n+2} M0
        assert row.lhs >= 1.0 - 1e-9

    def test_gate_on_base_budget(self):
        chart = BoundaryChart(delta=0.2)
        beta = Weight.power(0.9, (0.0, 0.0), DOM2)
        with pytest.raises(GateFailed):
            pushforward_weight_audit(chart, beta, 1.0, self.fam(), shape=(24, 24))

    def test_oscillation_quadratic_in_delta(self):
        rows = oscillation_delta_sweep([0.05, 0.1, 0.2], shape=(32, 32))
        slope = fit_loglog_slope([r["delta"] for r in rows],
                                 [r["oscillation_sq"] for r in rows])
        assert slope >= 1.8, rows


def count_calls(monkeypatch, name):
    """Replace weights.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(weights, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(weights, name, counted)
    return calls


class TestSupBallOscillation:
    CHART = BoundaryChart(delta=0.2)

    def weight(self):
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        return _transformed_weight(self.CHART, beta, (24, 24))

    @staticmethod
    def two_pass(w, fam):
        """The supremum with one mean per exponent, for reference; every
        ball must cover a subcell centre."""
        return max(w.mean(1.0, c, r) * w.mean(-1.0, c, r) - 1.0
                   for c, r in zip(*ball_grid(fam.centers, fam.radii)))

    def test_one_coverage_per_ball(self, monkeypatch):
        w = self.weight()
        fam = BallFamily.default(DOM2, n_centers=5, n_radii=8)
        ref = self.two_pass(w, fam)
        coverage = count_calls(monkeypatch, "_coverage")
        osc = _sup_ball_oscillation(w, fam)
        assert osc == ref and osc > 0.0
        assert len(coverage) == 1 and coverage[0][1].size == 5 * 5 * 8
        # the audit's three uses of one family on one grid (both A_q
        # characteristics and the oscillation) share one coverage pass
        coverage.clear()
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        pushforward_weight_audit(self.CHART, beta, 10.0, fam, shape=(16, 16))
        assert [args[-2:] for args in coverage] == [(16, 16)]
        # so do the three weights of the delta sweep, on a family of its own
        coverage.clear()
        oscillation_delta_sweep([0.05, 0.1, 0.2], shape=(16, 16))
        assert len(coverage) == 1

    def test_ball_outside_domain_skipped(self):
        w = self.weight()
        inside = BallFamily.centered((0.3, -0.2), np.array([0.2, 0.5]))
        mixed = BallFamily(centers=np.array([[0.3, -0.2], [5.0, 5.0]]),
                           radii=np.array([0.2, 0.5]))
        assert _sup_ball_oscillation(w, mixed) == _sup_ball_oscillation(w, inside)

    def test_ball_without_subcell_centre_raises(self):
        # a 2x2 grid on DOM2 has its outermost subcell centres at x = +-0.875;
        # this ball overlaps the strip x > 0.95 of the box but holds none
        w = Weight.sampled(np.array([[1.0, 2.0], [3.0, 4.0]]), DOM2)
        fam = BallFamily.centered((1.05, 0.0), np.array([0.1]))
        assert w.ball_masses((1.0,), fam)[1][0] == 0.0
        with pytest.raises(EmptyBall):
            _sup_ball_oscillation(w, fam)


class TestAdmissibleRadius:
    def test_radius_found_and_within_cap(self):
        from wparab.flattening import admissible_radius_search

        chart = BoundaryChart(delta=0.2)
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = admissible_radius_search(chart, beta, R=0.8, t0=0.5,
                                       Lambda=2.0)
        assert rep.passed
        row = rep.rows[0]
        assert 0.0 < row.constant <= 0.8 / 4.0

    def test_tiny_time_budget_shrinks_radius(self):
        from wparab.flattening import admissible_radius_search

        chart = BoundaryChart(delta=0.2)
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        big = admissible_radius_search(chart, beta, R=0.8, t0=0.5,
                                       Lambda=2.0).rows[0].constant
        small = admissible_radius_search(chart, beta, R=0.8, t0=1e-3,
                                         Lambda=2.0).rows[0].constant
        assert small < big


class TestJacobian:
    def test_gradient_chain_bound(self):
        # pulled-back gradients grow by at most 1 + delta < 2
        chart = BoundaryChart(delta=0.9)
        M = np.array([[1.0, 0.0], [-0.9, 1.0]])
        sigma_max = np.linalg.svd(M, compute_uv=False)[0]
        assert sigma_max <= 2.0

    def test_unit_determinant(self):
        # the chart is a shear: numeric Jacobian determinant is one
        chart = BoundaryChart(delta=0.4)
        eps = 1e-6
        for p in ([0.3, -0.2], [0.0, 0.5]):
            p = np.asarray(p)
            J = np.empty((2, 2))
            for j in range(2):
                dp = np.zeros(2)
                dp[j] = eps
                J[:, j] = (phi_map(chart, (p + dp)[None, :])[0]
                           - phi_map(chart, (p - dp)[None, :])[0]) / (2 * eps)
            assert np.linalg.det(J) == pytest.approx(1.0, rel=1e-7)
