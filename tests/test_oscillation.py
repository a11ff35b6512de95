import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import oscillation
from wparab.config import ExperimentConfig
from wparab.errors import EmptyRegion
from wparab.geometry import height
from wparab.oscillation import (
    oscillation_supremum,
    theta_A_ms,
    theta_beta_ms,
)
from wparab.weights import BallFamily, Weight, a2_products

DOM = (-1.0, 1.0)
MASK = (-1.0, 1.0, -1.0, 0.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "wparab" / "configs"


def theta_beta_quadrature(profile, x0, r, n=200000):
    """Independent oracle: direct quadrature of the defining integrand."""
    x = np.linspace(x0 - r, x0 + r, n + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    dx = x[1] - x[0]
    b = profile(mid)
    mean = np.sum(b) * dx / (2 * r)
    mass = np.sum(b) * dx
    return float(np.sum((b - mean) ** 2 / b) * dx / mass)


def lattice_radii(R0, width):
    """The 24 radii of oscillation_supremum's lattice on a mask this wide."""
    return np.geomspace(min(2.0 * width / 16, 0.5 * R0), R0 * (1.0 - 1e-9), 24)


def theta_A(A_fun, beta, x0, t0, r, mask):
    """theta_A_ms on the cylinder of beta's height h_{x0}(r)."""
    return theta_A_ms(A_fun, x0, t0, r, height(beta, x0, r).item(), mask)


class TestThetaBeta:
    def test_constant_weight_zero(self):
        for c in (0.5, 1.0, 7.0):
            w = Weight.constant(c, DOM)
            assert theta_beta_ms(w, [0.0], 0.5) == 0.0

    @pytest.mark.parametrize("w", [
        Weight.power(0.3, 0.17, DOM), Weight.constant(2.0, DOM),
        Weight.sampled(np.exp(np.sin(np.linspace(0.0, 9.0, 40))), DOM)])
    def test_is_the_a2_product_less_one(self, w):
        for x0, r in ((0.0, 0.5), (0.9, 0.3), (-0.4, 0.05)):
            product = a2_products(w, BallFamily.centered([x0], [r]))[0]
            assert theta_beta_ms(w, [x0], r) == max(product - 1.0, 0.0)

    def test_power_weight_against_quadrature(self):
        w = Weight.power(0.1, 0.0, DOM)
        got = theta_beta_ms(w, [0.0], 1.0)
        ref = theta_beta_quadrature(lambda x: np.abs(x) ** 0.1, 0.0, 1.0)
        assert got == pytest.approx(ref, rel=1e-3)
        assert got > 0.0

    def test_linear_perturbation_quadratic_order(self):
        # b = 1 + eps*x: theta ~ (eps*r)^2/3 to leading order
        r = 1.0
        x = np.linspace(-1.0, 1.0, 4097)
        mid = 0.5 * (x[:-1] + x[1:])
        for eps in (1e-2, 1e-3):
            w = Weight.sampled(1.0 + eps * mid, DOM)  # cell values of 1 + eps*x
            got = theta_beta_ms(w, [0.0], r)
            assert got == pytest.approx(eps ** 2 * r ** 2 / 3.0, rel=2e-2)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_invariant_under_weight_scaling(self, c):
        w = Weight.power(0.2, 0.1, DOM)
        v1 = theta_beta_ms(w, [0.0], 0.7)
        v2 = theta_beta_ms(Weight.power(0.2, 0.1, DOM, scale=c), [0.0], 0.7)
        assert v2 == pytest.approx(v1, rel=1e-10, abs=1e-14)


class TestThetaA:
    def test_time_dependent_coefficient_invisible(self):
        beta = Weight.constant(1.0, DOM)

        def A(x, t):
            return 2.0 + np.sin(17.0 * t)

        got = theta_A(A, beta, 0.0, 0.0, 0.5, MASK)
        assert got == pytest.approx(0.0, abs=1e-24)

    def test_linear_in_space_order(self):
        beta = Weight.constant(1.0, DOM)
        for eps in (0.1, 0.01):
            def A(x, t, e=eps):
                return 1.0 + e * x

            got = theta_A(A, beta, 0.0, 0.0, 0.5, MASK)
            # per-slice variance of e*x over (-r, r) is e^2 r^2 / 3
            assert got == pytest.approx(eps ** 2 * 0.25 / 3.0, rel=5e-2)

    def test_checkerboard_exact_cellwise(self):
        beta = Weight.constant(1.0, DOM)

        def A(x, t):
            return np.where(x >= 0.0, 2.0, 1.0)

        # symmetric ball, 33 space nodes: the middle one sits on x = 0, so
        # 17 of them read 2 and 16 read 1, in every time slice
        got = theta_A(A, beta, 0.0, 0.0, 0.5, MASK)
        assert got == pytest.approx(17 * 16 / 33 ** 2, rel=1e-12)

    def test_time_shift_invariance(self):
        beta = Weight.constant(1.0, DOM)

        def A1(x, t):
            return 1.0 + 0.3 * np.sin(3 * x)

        def A2(x, t):
            return 1.0 + 0.3 * np.sin(3 * x) + 5.0 * np.cos(t)

        v1 = theta_A(A1, beta, 0.1, -0.1, 0.4, MASK)
        v2 = theta_A(A2, beta, 0.1, -0.1, 0.4, MASK)
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_matrix_valued(self):
        # the 1D coefficient is a scalar: a 2 x 2 matrix field is refused
        beta = Weight.constant(1.0, DOM)

        def A(x, t):
            a11 = 1.0 + 0.1 * np.asarray(x)
            zero, one = np.zeros_like(a11), np.ones_like(a11)
            return np.stack([np.stack([a11, zero], -1), np.stack([zero, one], -1)], -2)

        with pytest.raises(ValueError, match="not a scalar field"):
            theta_A(A, beta, 0.0, 0.0, 0.5, MASK)


def theta_A_per_node(A_fun, beta, x0, t0, r, mask):
    """theta_A_ms as it was before the broadcasting call: one A_fun call per
    node (33 in space, 17 in time), one reduction per time slice. Kept as
    the exact reference."""
    x_lo, x_hi, t_lo, t_hi = mask
    a = max(x0 - r, x_lo)
    b = min(x0 + r, x_hi)
    h = height(beta, x0, r).item()
    s_lo = max(t0 - h, t_lo)
    s_hi = min(t0, t_hi)
    if a >= b or s_lo >= s_hi:
        raise EmptyRegion("cylinder does not meet the masked domain")
    xs = a + (b - a) * (np.arange(33) + 0.5) / 33
    ts = s_lo + (s_hi - s_lo) * (np.arange(17) + 0.5) / 17
    total = 0.0
    for t in ts:
        vals = np.asarray([np.asarray(A_fun(x, t), dtype=float) for x in xs])
        dev = vals - vals.mean(axis=0)
        total += float(np.mean(dev ** 2))
    return total / len(ts)


def config_coefficient():
    return ExperimentConfig.from_dict({
        "name": "osc", "seed": 0,
        "coefficient": {"base": 1.0, "oscillation": 0.3}}).coefficient_fn()


def bundled_power_weight():
    return ExperimentConfig.load(CONFIG_DIR / "power_weight.json").build_weight()


class TestThetaAWholeArray:
    """theta_A_ms equals the per-node loop bit for bit."""

    @pytest.mark.parametrize("make_beta", [
        lambda: Weight.constant(1.0, (0.0, 1.0)), bundled_power_weight])
    def test_config_coefficient_exact(self, make_beta):
        beta = make_beta()
        a_fun = config_coefficient()
        mask = (0.0, 1.0, 0.0, 0.25)
        for x0 in (0.1, 0.37, 0.5, 0.83):
            for r in (0.05, 0.13, 0.3):
                for tc in (0.0625, 0.2, 0.25):
                    assert (theta_A(a_fun, beta, x0, tc, r, mask)
                            == theta_A_per_node(a_fun, beta, x0, tc, r, mask))

    @pytest.mark.parametrize("x0, tc", [
        (-0.9, -0.5),   # clipped on the left
        (0.9, -0.5),    # clipped on the right
        (0.0, -0.95),   # clipped at the bottom
        (0.0, 0.02),    # clipped at the top
        (-0.95, -0.98), # clipped left and bottom
    ])
    def test_masked_cylinders_exact(self, x0, tc):
        beta = Weight.power(0.2, 0.0, DOM)
        a_fun = config_coefficient()
        got = theta_A(a_fun, beta, x0, tc, 0.3, MASK)
        assert got == theta_A_per_node(a_fun, beta, x0, tc, 0.3, MASK)
        assert got > 0.0

    @pytest.mark.parametrize("A", [
        lambda x, t: np.ones(5),
        lambda x, t: np.ones(np.broadcast(x, t).shape + (2,)),
        lambda x, t: np.ones(np.broadcast(x, t).shape + (2, 3)),
    ])
    def test_wrong_shape_rejected(self, A):
        beta = Weight.constant(1.0, DOM)
        with pytest.raises(ValueError, match="coefficient returned shape"):
            theta_A(A, beta, 0.0, -0.2, 0.3, MASK)


class TestSupremum:
    def test_identity_all_zero(self):
        beta = Weight.constant(1.0, DOM)
        rep = oscillation_supremum(lambda x, t: 1.0, beta, 0.5, 0.1, MASK)
        assert rep.passed
        gate = next(r for r in rep.rows if r.label == "smallness-gate")
        assert gate.lhs == pytest.approx(0.0, abs=1e-12)

    def test_zero_delta_fails_unless_constant(self):
        beta = Weight.power(0.1, 0.0, DOM)
        rep = oscillation_supremum(lambda x, t: 1.0, beta, 0.5, 0.0, MASK)
        assert not rep.passed

    def test_power_weight_oscillation_decreases_with_alpha(self):
        sups = []
        for alpha in (0.4, 0.2, 0.1, 0.05):
            beta = Weight.power(alpha, 0.0, DOM)
            rep = oscillation_supremum(lambda x, t: 1.0, beta, 0.5, 10.0, MASK)
            row = next(r for r in rep.rows if r.label == "weight-mean-oscillation")
            sups.append(row.lhs)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_monotone_under_lattice_refinement(self):
        # the 17-centre lattice refines the 5-centre one (every fourth centre)
        beta = Weight.power(0.3, 0.17, DOM)
        sup_f = oscillation_supremum(lambda x, t: 1.0, beta, 0.5, 1.0, MASK).rows[1].lhs
        radii = lattice_radii(0.5, 2.0)
        sup_c = math.sqrt(max(theta_beta_ms(beta, [x0], r)
                              for x0 in np.linspace(-1.0, 1.0, 5) for r in radii))
        assert sup_f >= sup_c - 1e-15

    @pytest.mark.parametrize("make_beta", [
        bundled_power_weight,
        lambda: Weight.sampled(np.exp(np.sin(np.linspace(0.0, 9.0, 40))),
                               (0.0, 1.0))])
    def test_one_height_per_lattice_ball(self, make_beta, monkeypatch):
        # every time centre of a (x0, r) gets the bits of the scalar height
        # in the batched theta_A_ms, and every cylinder reaches it once
        beta = make_beta()
        seen = []

        def recorded(A_fun, x0, t0, r, h, mask):
            seen.extend(zip(np.ravel(x0).tolist(), np.ravel(r).tolist(),
                            np.ravel(h).tolist()))
            return theta_A_ms(A_fun, x0, t0, r, h, mask)

        monkeypatch.setattr(oscillation, "theta_A_ms", recorded)
        rep = oscillation_supremum(config_coefficient(), beta, 0.5, 1.0,
                                   (0.0, 1.0, 0.0, 0.25))
        n_radii = rep.params["n_radii"]
        assert n_radii == 24
        assert len(seen) == 17 * n_radii * 4
        assert len({(x0, r) for x0, r, _ in seen}) == 17 * n_radii
        for x0, r, h in seen:
            assert h == height(beta, x0, r).item()

    @pytest.mark.parametrize("case, A_fun", [
        # the config coefficient; the lattice runs to the mask's ends, so
        # the balls there are clipped
        ("clipped", config_coefficient()),
        # constant in time: the four time centres of a ball tie exactly
        ("ties", lambda x, t: 1.0 + 0.3 * np.sin(5.0 * x) + 0.2 * x * x),
        # no oscillation at all: no worst cylinder
        ("zero", lambda x, t: 1.5),
    ])
    def test_matrix_row_matches_per_cylinder_loop(self, case, A_fun):
        # per cylinder, theta_A_ms of one cylinder (which the per-node loop
        # pins bit for bit in TestThetaAWholeArray)
        beta = Weight.power(0.2, 0.1, DOM)
        mask = (-0.5, 0.5, -1.0, 0.0)
        row = oscillation_supremum(A_fun, beta, 0.5, 1.0, mask).rows[0]
        centers = np.linspace(-0.5, 0.5, 17)
        radii = lattice_radii(0.5, 1.0)
        t_lo, t_hi = mask[2:]
        t_centers = np.linspace(t_lo + (t_hi - t_lo) * 0.25, t_hi, 4)
        best, worst, values = 0.0, None, []
        for x0 in centers:
            for r in radii:
                for tc in t_centers:
                    th = theta_A(A_fun, beta, x0, tc, r, mask)
                    values.append(th)
                    if th > best:
                        best, worst = th, (float(x0), float(tc), float(r))
        assert row.lhs == math.sqrt(best)
        assert row.extra["worst"] == worst
        # every cylinder meets the mask: its centre is inside it
        assert len(values) == centers.size * radii.size * t_centers.size
        if case == "ties":
            assert values.count(best) == t_centers.size
            assert worst[1] == t_centers[0]
        assert (worst is None) == (case == "zero")

    def test_batch_equals_scalar_calls(self):
        beta = Weight.power(0.2, 0.1, DOM)
        a_fun = config_coefficient()
        x0 = np.array([-1.4, -0.9, 0.0, 0.3, 1.2])
        tc = np.array([-0.5, -0.9, 0.0, -0.25, -0.1])
        r = np.array([0.2, 0.3, 0.5, 0.1, 0.3])
        h = height(beta, x0, r)
        got = theta_A_ms(a_fun, x0, tc, r, h, MASK)
        for i in range(x0.size):
            if x0[i] + r[i] <= -1.0 or x0[i] - r[i] >= 1.0:
                assert np.isnan(got[i])
                with pytest.raises(EmptyRegion):
                    theta_A_ms(a_fun, x0[i], tc[i], r[i], h[i], MASK)
            else:
                assert got[i] == theta_A_ms(a_fun, x0[i], tc[i], r[i], h[i], MASK)

    @pytest.mark.parametrize("beta", [
        Weight.power(0.3, 0.17, DOM),
        Weight.sampled(np.exp(np.sin(np.linspace(0.0, 9.0, 40))), DOM),
        Weight.constant(2.0, DOM)])
    def test_weight_lattice_matches_per_ball_loop(self, beta):
        # the lattice evaluated at once against the per-ball loop it
        # replaced: first maximal ball kept, no worst ball at zero
        row = oscillation_supremum(lambda x, t: 1.0, beta, 0.5, 1.0, MASK).rows[1]
        radii = lattice_radii(0.5, 2.0)
        best, worst = 0.0, None
        for x0 in np.linspace(-1.0, 1.0, 17):
            for r in radii:
                th = theta_beta_ms(beta, [x0], r)
                if th > best:
                    best, worst = th, (float(x0), float(r))
        assert row.lhs == pytest.approx(math.sqrt(best), rel=1e-13, abs=1e-15)
        assert row.extra["worst"] == worst
