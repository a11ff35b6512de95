import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab.errors import EmptyBall, GateFailed
from wparab.inequalities import (
    _GL16_NODES,
    _GL16_WEIGHTS,
    _SLAB,
    _graded_cells,
    interpolation_audit,
    weighted_embedding_audit,
    weighted_integral,
    weighted_lq_control_audit,
)
from wparab.weights import BallFamily, Weight

DOM = (-1.0, 1.0)
M0 = 10.0  # A_q budget of the lq-control gate


class Piecewise:
    """Piecewise polynomial test function: piece i (coefficients
    ``piece_coeffs[i]``, lowest degree first) holds from ``breaks[i]`` on."""

    def __init__(self, breaks, piece_coeffs):
        self.breaks = np.asarray(breaks, dtype=float)
        self.pieces = [np.asarray(c, dtype=float) for c in piece_coeffs]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1,
                      0, len(self.pieces) - 1)
        out = np.empty_like(x)
        for i, c in enumerate(self.pieces):
            m = idx == i
            out[m] = np.polynomial.polynomial.polyval(x[m], c)
        return out


def poly(coeffs):
    """x -> sum_k coeffs[k] x^k."""
    return lambda x: np.polynomial.polynomial.polyval(x, coeffs)


def sin_u(x, t):
    return np.sin(math.pi * x) * (1.0 + t)


def sin_u_x(x, t):
    return math.pi * np.cos(math.pi * x) * (1.0 + t)


class TestDescriptors:
    def test_piecewise(self):
        f = Piecewise([-1.0, 0.0], [[0.0, -1.0], [0.0, 1.0]])
        assert f(-0.5) == pytest.approx(0.5)
        assert f(0.5) == pytest.approx(0.5)


class TestQuadrature:
    def test_weighted_integral_closed_form(self):
        # int_{-1}^{1} x^2 |x|^{1/2} dx = 2 * int_0^1 x^{2.5} = 2/3.5
        w = Weight.power(0.5, 0.0, DOM)
        got = weighted_integral(lambda x: x ** 2, w, (-1.0, 1.0))
        assert got == pytest.approx(2.0 / 3.5, rel=1e-10)

    @pytest.mark.parametrize("weight, power, interval", [
        (Weight.power(0.5, 0.0, DOM), 1.0, (-0.6, 0.8)),    # singular inside
        (Weight.power(-0.4, 0.0, DOM), 1.0, (-0.3, 0.9)),
        (Weight.power(0.3, 0.2, DOM), 2.0, (-1.0, 1.0)),
        (Weight.power(-0.5, 0.0, DOM), 1.0, (0.0, 0.7)),    # at an endpoint
        (Weight.power(0.5, 0.0, DOM), 0.5, (-0.9, 0.0)),
        (Weight.power(0.2, -0.5, DOM), 1.0, (0.1, 0.95)),   # outside
        (None, 1.0, (-1.0, 1.0)),
        (None, 1.0, (0.25, 0.6)),
        (Weight.power(0.5, 0.0, DOM), 1.0, (0.4, 0.4)),     # degenerate
        (None, 1.0, (0.4, 0.4)),
    ])
    @pytest.mark.parametrize("fn", [
        poly([0.3, -1.0, 2.0, 0.7]),
        lambda x: 1.3 * np.sin(2.5 * math.pi * x),
        Piecewise([-1.0, -0.2, 0.5], [[1.0, 2.0], [0.6, 0.0, -1.0], [0.1, 0.3]]),
    ], ids=["polynomial", "trig", "piecewise"])
    def test_weighted_integral_matches_cell_loop(self, fn, weight, power, interval):
        # w^power of a power weight is the power weight of exponent
        # alpha * power and scale scale^power
        if weight is not None:
            weight = Weight.power(weight.alpha * power, weight.center, DOM,
                                  scale=weight.scale ** power)
        assert weighted_integral(fn, weight, interval) == \
            weighted_integral_cell_loop(fn, weight, interval)

    @pytest.mark.parametrize("interval, calls", [((-0.6, 0.8), 2), ((0.0, 0.7), 1)])
    def test_weighted_integral_one_call_per_integral(self, interval, calls):
        # one call on every cell's nodes, plus one at the singular point
        seen = []
        weighted_integral(lambda x: seen.append(np.shape(x)) or np.sin(math.pi * x),
                          Weight.power(0.5, 0.0, DOM), interval)
        assert len(seen) == calls
        assert len(seen[0]) == 2 and seen[0][1] == 16


def weighted_integral_cell_loop(fn, weight, interval):
    """weighted_integral with fn and the weight evaluated cell by cell, the
    cell terms summed by one np.sum and the slab term added last."""
    a, b = interval
    singular = None
    if weight is not None and a < weight.center[0] < b:
        singular = weight.center[0]
    edges = _graded_cells(a, b, singular)
    terms = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if singular is not None and lo < singular < hi:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if half <= 0.0:
            continue
        xq = mid + half * _GL16_NODES
        vals = np.asarray(fn(xq), dtype=float)
        if weight is not None:
            vals = vals * weight(xq)
        terms.append(half * float(np.sum(_GL16_WEIGHTS * vals)))
    total = float(np.sum(terms))
    if singular is not None:
        q = weight.alpha
        eps_l, eps_r = (singular - a) * _SLAB, (b - singular) * _SLAB
        f_c = float(np.asarray(fn(np.array([singular]))).ravel()[0])
        total += (f_c * weight.scale
                  * (eps_l ** (1.0 + q) + eps_r ** (1.0 + q))
                  / (1.0 + q))
    return total


class TestLqControl:
    def fam(self):
        return BallFamily.default(DOM, n_centers=9, n_radii=8)

    def test_identity_constant_one(self):
        g = poly([1.0])
        mu = Weight.constant(1.0, DOM)
        rep = weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, 0.9), 0.1,
                                        M0, self.fam(), math.inf)
        for row in rep.rows[:-1]:
            assert row.constant == pytest.approx(1.0, rel=1e-10)

    def test_linear_against_power_weight(self):
        # closed-form moments: g = x, mu = |x|^{1/2} on a centered ball
        g = poly([0.0, 1.0])
        mu = Weight.power(0.5, 0.0, DOM)
        r = 0.8
        rep = weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, r), 0.1,
                                        M0, self.fam(), math.inf)
        row = rep.rows[0]  # dilation 1
        exp_low = 2.0 / 1.9
        lhs_ref = ((2 * r ** (exp_low + 1) / (exp_low + 1)) / (2 * r)) ** (1.9 / 2)
        # rhs^2 = int x^2 |x|^0.5 / int |x|^0.5 = r^2 * (1.5/3.5)
        rhs_ref = math.sqrt(r ** 2 * 1.5 / 3.5)
        assert row.lhs == pytest.approx(lhs_ref, rel=1e-6)
        assert row.rhs == pytest.approx(rhs_ref, rel=1e-8)
        assert math.isfinite(row.constant)

    def test_gate_on_gamma(self):
        g = poly([1.0])
        mu = Weight.constant(1.0, DOM)
        with pytest.raises(GateFailed):
            weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, 0.5), 1.5,
                                      M0, self.fam(), math.inf)

    def test_gate_on_aq_budget(self):
        g = poly([1.0])
        mu = Weight.power(0.5, 0.0, DOM)
        with pytest.raises(GateFailed):
            weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, 0.5), 0.1,
                                      1.0, self.fam(), math.inf)  # 4/3 > 1

    def test_vanishing_on_weight_concentration(self):
        # g zero near the singular mass of mu: constants stay finite
        g = Piecewise([-1.0, -0.1, 0.1], [[0.45, 1.0], [0.0], [-0.05, 1.0]])
        mu = Weight.power(-0.5, 0.0, DOM)
        rep = weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, 0.8), 0.05,
                                        M0, BallFamily.centered(0.0, [0.4, 0.8]),
                                        math.inf)
        assert all(math.isfinite(r.constant) for r in rep.rows)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(min_value=0.1, max_value=10.0))
    def test_homogeneity(self, c):
        g = poly([0.3, 1.0])
        g_scaled = poly([0.3 * c, c])
        mu = Weight.power(0.2, 0.0, DOM)
        r1 = weighted_lq_control_audit(g, mu, 2.0, (0.0, 0.0, 0.7), 0.1,
                                       M0, self.fam(), math.inf)
        r2 = weighted_lq_control_audit(g_scaled, mu, 2.0, (0.0, 0.0, 0.7), 0.1,
                                       M0, self.fam(), math.inf)
        for row1, row2 in zip(r1.rows, r2.rows):
            assert row2.constant == pytest.approx(row1.constant, rel=1e-9)


class TestEmbedding:
    def test_constant_gives_one(self):
        g = poly([1.0])
        beta = Weight.constant(1.0, DOM)
        rep = weighted_embedding_audit(g, beta, 0.5, math.inf)
        assert rep.rows[0].constant == pytest.approx(1.0, rel=1e-9)

    def test_power_weight_low_case(self):
        g = poly([1.0, 1.0])  # 1 + x
        beta = Weight.power(0.2, 0.0, DOM)
        rep = weighted_embedding_audit(g, beta, 0.5, math.inf)  # on B_1(0) = DOM
        row = rep.rows[0]
        # lhs oracle from closed-form moments:
        # int (1+x)^2 |x|^0.2 = int (1 + 2x + x^2)|x|^0.2 over (-1,1)
        lhs_ref = (2 / 1.2 + 2 / 3.2) / (2 / 1.2)
        assert row.lhs == pytest.approx(lhs_ref, rel=1e-9)
        assert row.passed

    def test_oscillatory_persists(self):
        beta = Weight.power(0.2, 0.0, DOM)
        rep = weighted_embedding_audit(lambda x: np.sin(32.0 * math.pi * x), beta, 0.5,
                                       budget=100.0)
        assert rep.passed
        assert rep.rows[0].constant > 0.0

    def test_invalid_gamma_rejected(self):
        g = poly([1.0])
        beta = Weight.constant(1.0, DOM)
        with pytest.raises(GateFailed):
            weighted_embedding_audit(g, beta, -0.1, math.inf)

    def test_weight_scale_invariance(self):
        g = poly([1.0, 0.5])
        beta = Weight.power(0.3, 0.1, DOM)
        r1 = weighted_embedding_audit(g, beta, 0.4, math.inf)
        r2 = weighted_embedding_audit(g, Weight.power(0.3, 0.1, DOM, scale=13.0), 0.4,
                                      math.inf)
        assert r1.rows[0].constant == pytest.approx(r2.rows[0].constant, rel=1e-10)


class TestInterpolation:
    def test_constant_in_space(self):
        beta = Weight.constant(1.0, DOM)
        rep = interpolation_audit(lambda x, t: np.full_like(x, 2.0 * (1.0 + 0.5 * t)),
                                  lambda x, t: np.zeros_like(x),
                                  beta, 0.0, 0.8, (0.0, 1.0), math.inf)
        assert rep.rows[0].constant <= 1.0 + 1e-9

    def test_sin_with_power_weight_finite(self):
        beta = Weight.power(0.2, 0.0, DOM)
        rep = interpolation_audit(sin_u, sin_u_x, beta, 0.0, 1.0, (0.0, 1.0),
                                  budget=50.0)
        assert rep.passed
        assert 0.0 < rep.rows[0].extra["theta_min"] < 1.0

    def test_radius_scaling_exponent(self):
        # the r^{2 theta} factor should make constants comparable across r
        beta = Weight.power(0.2, 0.0, DOM)
        consts = []
        for r in (1.0, 0.5, 0.25):
            rep = interpolation_audit(sin_u, sin_u_x, beta, 0.0, r, (0.0, 1.0), math.inf)
            consts.append(rep.rows[0].constant)
        assert max(consts) / min(consts) < 5.0



@pytest.mark.parametrize("audit", [
    lambda w: weighted_lq_control_audit(poly([1.0]), w, 2.0,
                                        (5.0, 0.0, 0.5), 0.1, 10.0,
                                        BallFamily.default(DOM, 5, 4), math.inf),
    # the embedding audit's ball is B_1(0): a weight on (2, 3) misses it
    lambda w: weighted_embedding_audit(poly([1.0]),
                                       Weight.power(w.alpha, 2.5, (2.0, 3.0)), 0.5,
                                       math.inf),
    lambda w: interpolation_audit(sin_u, sin_u_x, w, 5.0, 0.5, (0.0, 1.0), math.inf),
], ids=["lq-control", "embedding", "interpolation"])
def test_ball_outside_domain_raises_empty_ball(audit):
    with pytest.raises(EmptyBall):
        audit(Weight.power(0.2, 0.0, DOM))
