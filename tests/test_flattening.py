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
    _transformed_weight,
    b_matrix,
    b_norm_delta_sweep,
    inclusion_audit,
    oscillation_delta_sweep,
    pushforward_coefficients,
    pushforward_weight_audit,
    shear,
)
from wparab.weights import BallFamily, Weight, a2_products, ball_grid, first_sup

DOM2 = ((-1.0, 1.0), (-1.0, 1.0))


class TestChart:
    def test_zero_chart_is_identity(self):
        pts = np.array([[0.3, -0.2], [1.0, 1.0]])
        assert np.allclose(shear(-0.0, pts), pts)
        assert np.allclose(shear(0.0, pts), pts)

    def test_affine_direct_substitution(self):
        # Phi = shear(-delta): (x', x_n - delta x')
        out = shear(-0.25, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[1.0, 0.75]])

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(min_value=0.0, max_value=0.9),
        x=st.floats(min_value=-2.0, max_value=2.0),
        y=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_roundtrip_exact(self, delta, x, y):
        p = np.array([[x, y]])
        # exact up to one rounding of the chart offset
        tol = 1e-15 * (1.0 + abs(delta * x))
        assert np.allclose(shear(delta, shear(-delta, p)), p, atol=tol)
        assert np.allclose(shear(-delta, shear(delta, p)), p, atol=tol)

    def test_lipschitz_bound_tight(self):
        xs = np.linspace(-2.0, 2.0, 4001)
        offset = shear(0.3, np.column_stack([xs, np.zeros_like(xs)]))[:, 1]
        slopes = np.diff(offset) / np.diff(xs)
        assert np.max(np.abs(slopes)) <= 0.3 + 1e-12


class TestInclusions:
    def test_zero_chart(self):
        rep = inclusion_audit(0.0, [0.0, 0.0], 0.5)
        assert rep.passed

    def test_steep_chart_still_passes(self):
        rep = inclusion_audit(0.9, [0.4, -0.3], 0.7)
        assert rep.passed


class TestCoefficients:
    def test_zero_chart_no_correction(self):
        rep = pushforward_coefficients(0.0, lambda x, t: np.eye(2), 0.5)
        assert rep.passed
        # A~ = A + B at every probe, and the largest ||B|| is 0: A~ = A
        assert rep.rows[0].lhs <= 1e-12 and rep.rows[1].lhs == 0.0
        assert np.allclose(b_matrix(0.0, np.eye(2)), 0.0)

    def test_identity_affine_closed_form(self):
        delta = 0.3
        B = b_matrix(delta, np.eye(2))
        assert np.allclose(B, [[0.0, -delta], [-delta, delta ** 2]])

    def test_symmetry_preserved(self):
        # A~ = A + B at every probe (row 0), and B of a symmetric A is
        # symmetric, so A~ is
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        rep = pushforward_coefficients(0.4, lambda x, t: A, 0.4)
        assert rep.rows[0].label == "decomposition-identity" and rep.rows[0].passed
        B = b_matrix(0.4, A)
        assert np.allclose(B, B.T)

    def test_each_probe_evaluates_the_coefficient_once(self):
        # 9 points at 3 times; each is pulled back and evaluated once
        calls = []

        def a_fun(x, t):
            calls.append((tuple(x), t))
            return np.eye(2)

        pushforward_coefficients(0.2, a_fun, 0.5)
        assert len(calls) == 27 and len(set(calls)) == 27

    def test_decomposition_identity(self):
        def A(x, t):
            return np.array([[1.5 + 0.2 * math.sin(x[0]), 0.1],
                             [0.1, 1.0 + 0.1 * t]])

        rep = pushforward_coefficients(0.5, A, nu=0.4)
        row = next(r for r in rep.rows if r.label == "decomposition-identity")
        assert row.passed

    def test_b_norm_linear_exponent(self):
        rows = b_norm_delta_sweep([0.05, 0.1, 0.2])
        slope = fit_loglog_slope([r["delta"] for r in rows],
                                 [r["b_norm"] for r in rows])
        assert slope >= 0.9

    def test_flatten_group_pushes_forward_once_per_delta(self, tmp_path, monkeypatch):
        # the coefficient-pushforward report is the sweep's last one
        deltas = []
        real = flattening.pushforward_coefficients
        monkeypatch.setattr(flattening, "pushforward_coefficients",
                            lambda delta, *a: deltas.append(delta) or real(delta, *a))
        cfg = ExperimentConfig.from_dict({"name": "flat", "seed": 3,
                                          "selection": ["flatten"]})
        reports = cli.run_flatten(cli.RunContext(cfg, cfg.seed, tmp_path))
        assert deltas == cfg.audits["flatten"].deltas == [0.05, 0.1, 0.2]
        coef, = [r for r in reports if r.check == "coefficient-pushforward"]
        assert coef.params["delta"] == 0.2

    def test_single_chart_checks_share_the_last_slope(self, tmp_path):
        # the four single-chart checks audit one chart, the sweep's last slope,
        # which is not the 0.2 of the bundled configs here
        cfg = ExperimentConfig.from_dict({
            "name": "flat", "seed": 3, "selection": ["flatten"],
            "audits": {"flatten": {"deltas": [0.05, 0.1, 0.5]}}})
        reports = cli.run_flatten(cli.RunContext(cfg, cfg.seed, tmp_path))
        assert {r.check: r.params["delta"] for r in reports if "delta" in r.params} == {
            "chart-ball-inclusions": 0.5, "coefficient-pushforward": 0.5,
            "weight-pushforward": 0.5, "admissible-chart-radius": 0.5}


class TestWeightPushforward:
    def fam(self):
        return BallFamily.default(DOM2, n_centers=5, n_radii=8)

    def test_zero_chart_no_inflation(self):
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = pushforward_weight_audit(0.0, beta, 10.0, self.fam(),
                                       shape=(32, 32))
        row = rep.rows[0]
        assert row.passed
        assert row.constant == pytest.approx(1.0, rel=1e-9)

    def test_shifted_chart_within_budget(self):
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = pushforward_weight_audit(0.2, beta, 10.0, self.fam(),
                                       shape=(32, 32))
        row = rep.rows[0]
        assert row.passed  # within 2^{n+2} M0
        assert row.lhs >= 1.0 - 1e-9

    def test_gate_on_base_budget(self):
        beta = Weight.power(0.9, (0.0, 0.0), DOM2)
        with pytest.raises(GateFailed):
            pushforward_weight_audit(0.2, beta, 1.0, self.fam(), shape=(24, 24))

    def test_oscillation_quadratic_in_delta(self):
        rows = oscillation_delta_sweep([0.05, 0.1, 0.2])
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
    """The pushforward audits' sup-ball oscillation: the sup of
    a2_products less one."""

    DELTA = 0.2

    def weight(self):
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        return _transformed_weight(self.DELTA, beta, (24, 24))

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
        osc = first_sup(a2_products(w, fam) - 1.0)[0]
        assert osc == ref and osc > 0.0
        assert len(coverage) == 1 and coverage[0][1].size == 5 * 5 * 8
        # the audit's three uses of one family on one grid (both A_q
        # characteristics and the oscillation) share one coverage pass
        coverage.clear()
        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        pushforward_weight_audit(self.DELTA, beta, 10.0, fam, shape=(16, 16))
        assert [args[-2:] for args in coverage] == [(16, 16)]
        # so do the three weights of the delta sweep, on a family of its own
        coverage.clear()
        oscillation_delta_sweep([0.05, 0.1, 0.2])
        assert len(coverage) == 1

    def test_ball_without_subcell_centre_raises(self):
        # a 2x2 grid on DOM2 has its outermost subcell centres at x = +-0.875;
        # this ball overlaps the strip x > 0.95 of the box but holds none
        w = Weight.sampled(np.array([[1.0, 2.0], [3.0, 4.0]]), DOM2)
        fam = BallFamily.centered((1.05, 0.0), np.array([0.1]))
        with pytest.raises(EmptyBall):
            w.means((1.0,), fam)
        with pytest.raises(EmptyBall):
            a2_products(w, fam)


class TestAdmissibleRadius:
    def test_radius_found_and_within_cap(self):
        from wparab.flattening import admissible_radius_search

        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        rep = admissible_radius_search(0.2, beta, R=0.8, t0=0.5,
                                       Lambda=2.0)
        assert rep.passed
        row = rep.rows[0]
        assert 0.0 < row.constant <= 0.8 / 4.0

    def test_tiny_time_budget_shrinks_radius(self):
        from wparab.flattening import admissible_radius_search

        beta = Weight.power(0.1, (0.0, 0.0), DOM2)
        big = admissible_radius_search(0.2, beta, R=0.8, t0=0.5,
                                       Lambda=2.0).rows[0].constant
        small = admissible_radius_search(0.2, beta, R=0.8, t0=1e-3,
                                         Lambda=2.0).rows[0].constant
        assert small < big


class TestJacobian:
    def test_gradient_chain_bound(self):
        # pulled-back gradients grow by at most 1 + delta < 2
        M = np.array([[1.0, 0.0], [-0.9, 1.0]])
        sigma_max = np.linalg.svd(M, compute_uv=False)[0]
        assert sigma_max <= 2.0

    def test_unit_determinant(self):
        # the chart is a shear: numeric Jacobian determinant is one
        eps = 1e-6
        for p in ([0.3, -0.2], [0.0, 0.5]):
            p = np.asarray(p)
            J = np.empty((2, 2))
            for j in range(2):
                dp = np.zeros(2)
                dp[j] = eps
                J[:, j] = (shear(-0.4, (p + dp)[None, :])[0]
                           - shear(-0.4, (p - dp)[None, :])[0]) / (2 * eps)
            assert np.linalg.det(J) == pytest.approx(1.0, rel=1e-7)
