import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import geometry
from wparab.config import ExperimentConfig
from wparab.errors import NoBracket
from wparab.geometry import (
    BISECT_BLOCK,
    MAX_BISECT,
    QT_MARGIN,
    TOL_BISECT,
    TRIPLE_BLOCK,
    QuasiMetricParams,
    WeightedCylinder,
    cylinder_relations_audit,
    estimate_quasi_params,
    height,
    height_inverse,
    height_inverse_vec,
    quasi_distance_batch,
    quasi_triangle_audit,
)
from wparab.weights import SAMPLE_FLOOR, BallFamily, Weight, ball_grid

DOM = (-1.0, 1.0)


def h_power_oracle(alpha, r):
    # antiderivative oracle: h(r) = r^2 * (|x|^alpha)_{B_r(0)} = r^(2+a)/(1+a)
    return r ** (2.0 + alpha) / (1.0 + alpha)


def quasi_distance(beta, x, t, x0, t0):
    """rho_beta((x, t), (x0, t0)) of two space-time points, as a one-point
    batch."""
    return quasi_distance_batch(beta, [x], [t], [x0], [t0]).item()


class TestHeights:
    def test_psi_identity_weight(self):
        # Psi = h / r^2
        w = Weight.constant(1.0, DOM)
        for r in (0.1, 0.5, 2.0):
            assert height(w, 0.3, r) / r ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_height_linear_weight(self):
        # |x|^1 average over (-r, r) is r/2, so h = r^3/2
        w = Weight.power(1.0, 0.0, (-4.0, 4.0))
        assert height(w, 0.0, 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_height_sqrt_weight(self):
        # |x|^{1/2}: h(r) = r^{5/2}/(3/2) = (2/3) r^{5/2}
        w = Weight.power(0.5, 0.0, DOM)
        for r in (0.2, 0.7, 1.0):
            assert height(w, 0.0, r) == pytest.approx(
                h_power_oracle(0.5, r), rel=1e-13)

    def test_one_dim_mass_identity(self):
        # h(r) = r * beta(B_r(x0)) / 2 in one dimension
        w = Weight.power(0.3, 0.1, DOM)
        r, x0 = 0.4, 0.25
        mass = float(w.mass_1d_vec(1.0, x0 - r, x0 + r))
        assert height(w, x0, r) == pytest.approx(0.5 * r * mass, rel=1e-13)

    def test_monotone_on_radius_grid(self):
        rng = np.random.default_rng(3)
        vals = 0.5 + rng.random(48)
        w = Weight.sampled(vals, DOM)
        radii = np.geomspace(0.02, 3.0, 40)
        hs = height(w, 0.2, radii)
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_broadcasts_and_zero_at_nonpositive_radius(self):
        # each element carries the bits of its own one-point call
        for w in (Weight.power(0.3, 0.1, DOM),
                  Weight.sampled(0.5 + np.random.default_rng(3).random(48), DOM)):
            x0 = np.array([[-0.4], [0.2], [0.9]])
            r = np.array([-0.1, 0.0, 0.05, 0.7])
            got = height(w, x0, r)
            assert got.shape == (3, 4)
            assert np.all(got[:, :2] == 0.0) and np.all(got[:, 2:] > 0.0)
            for i in range(3):
                for j in range(4):
                    one = height(w, x0[i, 0], r[j])
                    assert one.shape == ()
                    assert one.tobytes() == got[i, j].tobytes()

    def test_rejects_2d_weight(self):
        w = Weight.power(0.2, (0.0, 0.0), (DOM, DOM))
        with pytest.raises(ValueError, match="1D"):
            height(w, [0.0, 0.0], 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [
        Weight.power(0.2, 0.1, DOM), Weight.power(-0.7, 0.1, DOM),
        Weight.sampled(0.5 + np.random.default_rng(3).random(48), DOM)])
    def test_overflow_is_inf_without_a_warning(self, w):
        # r^2 overflows above about 1.3e154, and |t|^{1.2} of the mass at 1e300
        got = height(w, np.array([[0.2], [5.0]]), np.array([1e200, 1e300]))
        assert np.all(got == np.inf)


class TestHeightInverse:
    def test_identity_weight(self):
        w = Weight.constant(1.0, DOM)
        assert height_inverse(w, [0.0], 4.0) == pytest.approx(2.0, rel=1e-9)

    def test_zero_maps_to_zero(self):
        w = Weight.constant(1.0, DOM)
        assert height_inverse(w, [0.0], 0.0) == 0.0

    def test_linear_weight_closed_form(self):
        # h(r) = r^3/2 so r = (2 s)^(1/3)
        w = Weight.power(1.0, 0.0, (-8.0, 8.0))
        for s in (0.5, 4.0, 9.0):
            assert height_inverse(w, [0.0], s) == pytest.approx(
                (2.0 * s) ** (1.0 / 3.0), rel=1e-8)

    def test_sqrt_weight_closed_form(self):
        # h(r) = (2/3) r^{5/2} so r = (1.5 s)^{2/5}
        w = Weight.power(0.5, 0.0, DOM)
        for s in (0.1, 1.0, 2.5):
            assert height_inverse(w, [0.0], s) == pytest.approx(
                (1.5 * s) ** 0.4, rel=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(min_value=-0.5, max_value=0.9),
        r=st.floats(min_value=0.01, max_value=3.0),
    )
    def test_roundtrip(self, alpha, r):
        w = Weight.power(alpha, 0.0, DOM)
        s = height(w, 0.0, r)
        assert height_inverse(w, [0.0], s) == pytest.approx(r, rel=1e-8)



def height_inverse_reference(beta, x0, s, tol=TOL_BISECT):
    """Reference bisection: every step evaluates the heights of all points
    at once, for as many steps as the slowest point needs."""
    out = np.zeros_like(s)
    active = s > 0.0
    xa, sa = x0[active], s[active]
    hi = np.ones_like(sa)
    for _ in range(200):
        need = geometry.height(beta, xa, hi) < sa
        if not np.any(need):
            break
        if np.any(hi >= 2.0 ** 60):
            raise NoBracket("height never reaches a requested value")
        hi = np.where(need, 2.0 * hi, hi)
    else:
        raise NoBracket("height never reaches a requested value")
    lo = np.zeros_like(sa)
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        below = geometry.height(beta, xa, mid) < sa
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= tol * np.maximum(hi, 1e-300)):
            break
    out[active] = 0.5 * (lo + hi)
    return out


def counted_evaluations(monkeypatch):
    """The point counts of each ``Weight.ball_ends`` call (the Newton
    steps' heights) and of each ``geometry.height`` call (the screen's and
    the reference bisection's), as two lists that the calls fill."""
    ends_calls, height_calls = [], []
    ends = Weight.ball_ends

    def counted_ends(self, p, x0, r):
        ends_calls.append(np.size(r))
        return ends(self, p, x0, r)

    def counted_height(beta, x0, r):
        out = height(beta, x0, r)
        height_calls.append(out.size)
        return out

    monkeypatch.setattr(Weight, "ball_ends", counted_ends)
    monkeypatch.setattr(geometry, "height", counted_height)
    return ends_calls, height_calls


class TestBlockedBisection:
    """The blocked, per-point safeguarded Newton inversion against the
    reference bisection."""

    SINGULAR_CENTRE = 0.3
    WEIGHTS = {
        "power": Weight.power(0.4, 0.1, DOM),
        "constant": Weight.constant(2.5, DOM),
        "sampled": Weight.sampled(
            np.random.default_rng(3).lognormal(0.0, 0.5, 256), DOM),
        "singular": Weight.power(-0.5, SINGULAR_CENTRE, DOM),
        "alternating": Weight.sampled(np.tile([1e-6, 1e3], 32), DOM),
    }

    @classmethod
    def points(cls, n, kind=None):
        """More than three blocks plus a remainder, centres outside the
        sampled domain too; the tiny gaps sit in the last block only, so it
        needs more steps than the others. The singular weight is inverted
        at its centre."""
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-1.2, 1.2, n)
        if kind == "singular":
            x0[:] = cls.SINGULAR_CENTRE
        s = rng.uniform(0.0, 2.0, n) ** 2
        s[::97] = 0.0
        s[-50:] = rng.uniform(0.5e-9, 2e-9, 50)
        return x0, s

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_bracket_postcondition(self, kind):
        beta = self.WEIGHTS[kind]
        x0, s = self.points(3 * BISECT_BLOCK + 1234, kind)
        got = height_inverse_vec(beta, x0, s)
        ref = height_inverse_reference(beta, x0, s)
        tol = TOL_BISECT
        pos = s > 0.0
        assert np.array_equal(got == 0.0, ~pos)
        assert np.all(height(beta, x0, got * (1.0 - tol))[pos] < s[pos])
        assert np.all(s[pos] <= height(beta, x0, got * (1.0 + tol))[pos])
        assert np.all(np.abs(got - ref) <= tol * ref)

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_result_independent_of_batch(self, kind):
        beta = self.WEIGHTS[kind]
        x0, s = self.points(3 * BISECT_BLOCK + 1234, kind)
        got = height_inverse_vec(beta, x0, s)
        for i in (1, BISECT_BLOCK + 7, 2 * BISECT_BLOCK + 500, s.size - 1):
            alone = height_inverse_vec(beta, x0[i:i + 1], s[i:i + 1])
            assert alone.tobytes() == got[i:i + 1].tobytes()

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_no_more_height_evaluations_than_bisection(self, kind, monkeypatch):
        # the Newton steps evaluate through Weight.ball_ends, the reference
        # bisection through geometry.height
        beta = self.WEIGHTS[kind]
        x0, s = self.points(BISECT_BLOCK + 1234, kind)
        newton, bisection = counted_evaluations(monkeypatch)
        height_inverse_vec(beta, x0, s)
        assert bisection == []
        height_inverse_reference(beta, x0, s)
        assert 0 < sum(newton) <= sum(bisection)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3])
    def test_nan_or_negative_height_rejected(self, bad):
        x0, s = self.points(100)
        s[40] = bad
        with pytest.raises(ValueError, match="non-negative"):
            height_inverse_vec(self.WEIGHTS["power"], x0, s)

    def test_unreachable_height_raises(self):
        # the height of the zero-extended sampled weight outside its domain
        # stays 0 until the ball reaches the domain; beta(50) = 0, so that
        # point starts at r = 1, on the plateau, and searches upward
        x0, s = self.points(2 * BISECT_BLOCK + 10)
        x0[BISECT_BLOCK + 5] = 50.0
        s[BISECT_BLOCK + 5] = 1e30
        beta = self.WEIGHTS["sampled"]
        with pytest.raises(NoBracket):
            height_inverse_reference(beta, x0, s)
        with pytest.raises(NoBracket, match="height never reaches a requested value"):
            height_inverse_vec(beta, x0, s)


class TestModelStart:
    """Each point starts at r0 = sqrt(s / beta(x0)), the root of the
    small-ball model h(r) = beta(x0) r^2, or at 1 where r0 is not in (0, 1],
    and searches upward while no height has reached s."""

    S = np.geomspace(1e-9, 50.0, 41)  # roots far below and above 1

    @staticmethod
    def starts(beta, x0, s, monkeypatch):
        """The inverse heights and the radii of the first height evaluation,
        with the bracket postcondition and the reference checked."""
        first = []
        ends = Weight.ball_ends

        def recorded(self, p, x0, r):
            if not first:
                first.append(np.array(r, dtype=float))
            return ends(self, p, x0, r)

        monkeypatch.setattr(Weight, "ball_ends", recorded)
        got = height_inverse_vec(beta, x0, s)
        monkeypatch.undo()
        tol = TOL_BISECT
        assert np.all(height(beta, x0, got * (1.0 - tol)) < s)
        assert np.all(s <= height(beta, x0, got * (1.0 + tol)))
        ref = height_inverse_reference(beta, x0, s)
        assert np.all(np.abs(got - ref) <= tol * ref)
        return got, first[0]

    def test_model_root_where_it_lies_in_the_unit_interval(self, monkeypatch):
        beta = TestBlockedBisection.WEIGHTS["sampled"]
        x0 = np.linspace(-0.9, 0.9, self.S.size)
        _, r0 = self.starts(beta, x0, self.S, monkeypatch)
        model = np.sqrt(self.S / beta(x0))
        inside = model <= 1.0
        assert inside.any() and not inside.all()
        assert np.array_equal(r0, np.where(inside, model, 1.0))

    @pytest.mark.parametrize("alpha", [0.5, -0.5])
    def test_power_weight_at_its_centre(self, alpha, monkeypatch):
        # beta(x0) is 0 for alpha > 0 and infinite for alpha < 0, so the
        # model root is infinite or 0 and every point starts at 1
        beta = Weight.power(alpha, 0.1, DOM)
        with np.errstate(divide="ignore"):
            assert beta(0.1) == (0.0 if alpha > 0 else math.inf)
        got, r0 = self.starts(beta, np.full(self.S.size, 0.1), self.S, monkeypatch)
        assert np.all(r0 == 1.0)
        # h(r) = r^(2 + alpha) / (1 + alpha) at the centre
        assert np.allclose(got, ((1.0 + alpha) * self.S) ** (1.0 / (2.0 + alpha)),
                           rtol=1e-8, atol=0.0)

    def test_sampled_cell_at_the_floor(self, monkeypatch):
        # a cell at SAMPLE_FLOOR puts the model root far above 1
        vals = np.random.default_rng(5).lognormal(0.0, 0.5, 64)
        vals[20:24] = SAMPLE_FLOOR
        beta = Weight.sampled(vals, DOM)
        x0 = np.full(self.S.size, DOM[0] + 22.5 / 64 * (DOM[1] - DOM[0]))
        assert np.all(beta(x0) == SAMPLE_FLOOR)
        _, r0 = self.starts(beta, x0, self.S, monkeypatch)
        assert np.all(r0 == 1.0)

    def test_start_on_the_zero_height_plateau(self, monkeypatch):
        # outside the domain the zero-extended weight is 0, and B_1(3) does
        # not reach the domain, so h = 0 at the start and the point must
        # search upward
        beta = TestBlockedBisection.WEIGHTS["sampled"]
        x0 = np.full(self.S.size, 3.0)
        assert np.all(height(beta, x0, 1.0) == 0.0)
        got, r0 = self.starts(beta, x0, self.S, monkeypatch)
        assert np.all(r0 == 1.0) and np.all(got > 2.0)

    def test_start_where_the_height_underflows(self):
        # 0.1 from the profile centre the mass of a ball of radius r0 ~ 1e-155
        # cancels to 0, and so does every height up to r ~ 1e-17: the first
        # rejected search step goes to r = 1 instead of doubling ~450 times.
        # The computed h is not monotone there, so only the bracket is checked.
        beta = Weight.power(0.3, 0.1, DOM)
        s = np.array([5e-324, 2.2e-309, 1e-200, 1e-40])
        x0 = np.zeros(s.size)
        r0 = np.sqrt(s / beta(x0))
        assert np.all(r0 < 1e-15) and np.all(height(beta, x0, r0) == 0.0)
        got = height_inverse_vec(beta, x0, s)
        assert np.all(height(beta, x0, got * (1.0 - TOL_BISECT)) < s)
        assert np.all(s <= height(beta, x0, got * (1.0 + TOL_BISECT)))

    # Height point-evaluations of quasi_triangle_audit with 2,000 samples at
    # seed 7: the screen's (geometry.height) and the Newton steps'
    # (Weight.ball_ends), every unscreened pair inverted. With the leg bounds
    # that pruned most inversions they took 21,388, 17,792 and 29,018.
    AUDIT_EVALS = {"power": 31863, "constant": 20933, "sampled": 41258}

    @pytest.mark.parametrize("kind", sorted(AUDIT_EVALS))
    def test_audit_height_evaluations(self, kind, monkeypatch):
        beta = TestBlockedBisection.WEIGHTS[kind]
        newton, screen = counted_evaluations(monkeypatch)
        quasi_triangle_audit(beta, samples=2000, seed=7)
        assert sum(newton) > 0 and sum(screen) > 0
        assert sum(newton) + sum(screen) <= 1.05 * self.AUDIT_EVALS[kind]


class TestQuasiDistance:
    def test_classical_for_identity(self):
        w = Weight.constant(1.0, DOM)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, x0 = rng.uniform(-1, 1, 2)
            t, t0 = rng.uniform(-1, 0, 2)
            got = quasi_distance(w, x, t, x0, t0)
            ref = max(abs(x - x0), math.sqrt(abs(t - t0)))
            assert got == pytest.approx(ref, abs=1e-12, rel=1e-10)

    def test_linear_weight_time_gap(self):
        # base point 0, gap 4: rho = (2*4)^{1/3} = 2
        w = Weight.power(1.0, 0.0, (-8.0, 8.0))
        assert quasi_distance(w, 0.0, -4.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-8)

    def test_zero_iff_equal(self):
        w = Weight.power(0.3, 0.0, DOM)
        assert quasi_distance(w, 0.4, -0.2, 0.4, -0.2) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(min_value=-0.9, max_value=0.9),
        t=st.floats(min_value=-0.9, max_value=0.0),
        x0=st.floats(min_value=-0.9, max_value=0.9),
        t0=st.floats(min_value=-0.9, max_value=0.0),
    )
    def test_symmetry(self, x, t, x0, t0):
        w = Weight.power(0.3, 0.1, DOM)
        assert quasi_distance(w, x, t, x0, t0) == quasi_distance(w, x0, t0, x, t)

    def test_spatial_lower_bound(self):
        w = Weight.power(0.3, 0.0, DOM)
        rng = np.random.default_rng(5)
        X, X0 = rng.uniform(-1, 1, (2, 50))
        T, T0 = rng.uniform(-0.5, 0.0, (2, 50))
        d = quasi_distance_batch(w, X, T, X0, T0)
        assert np.all(d >= np.abs(X - X0) - 1e-12)

    def test_batch_matches_scalar(self):
        # each distance depends only on its own pair of points
        w = Weight.power(0.45, -0.25, DOM)
        rng = np.random.default_rng(17)
        X, X0 = rng.uniform(-1, 1, (2, 20))
        T, T0 = rng.uniform(-0.3, 0.0, (2, 20))
        batch = quasi_distance_batch(w, X, T, X0, T0)
        for i in range(20):
            one = slice(i, i + 1)
            ref = quasi_distance_batch(w, X[one], T[one], X0[one], T0[one])
            assert batch[one].tobytes() == ref.tobytes()


def quasi_distance_unscreened(beta, X, T, X0, T0):
    """Reference: every pair's height inverted, then the max with |X - X0|."""
    base = np.where(T <= T0, X0, X)
    inv = height_inverse_vec(beta, base, np.abs(T - T0))
    return np.maximum(np.abs(X - X0), inv)


@pytest.fixture
def inverted(monkeypatch):
    """The number of points of each height_inverse_vec call."""
    sizes = []

    def counted(beta, x0, s):
        sizes.append(np.size(s))
        return height_inverse_vec(beta, x0, s)

    monkeypatch.setattr(geometry, "height_inverse_vec", counted)
    return sizes


class TestHeightScreen:
    """Pairs whose spatial gap decides the quasi-distance skip the inversion
    and keep its bits."""

    @staticmethod
    def pairs(beta, kind):
        """Random pairs, then pairs on the edges of the screen: gaps at the
        height of the spatial gap and at the screened height, spatial gaps
        on either side of the floor and far below it, and zero gaps of
        either kind."""
        rng = np.random.default_rng(23)
        n = 3000
        X, X0 = rng.uniform(-1.0, 1.0, (2, n))
        T, T0 = rng.uniform(-1.0, 0.0, (2, n))
        if kind == "singular":
            X0[::3] = TestBlockedBisection.SINGULAR_CENTRE
        floor = geometry.SCREEN_FLOOR * (DOM[1] - DOM[0])
        X[:200] = X0[:200] + floor * rng.choice([-1.0, 1.0], 200) * np.repeat(
            [1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0], 50)
        X[200:250] = X0[200:250]
        X[250:300] = X0[250:300] + 10.0 ** rng.uniform(-13.0, -9.0, 50)
        T[300:400] = T0[300:400]
        edge = slice(0, 1200)
        dx = np.abs(X[edge] - X0[edge])
        base = np.where(T[edge] <= T0[edge], X0[edge], X[edge])
        at_dx = height(beta, base, dx)
        at_screen = height(beta, base, dx * (1.0 - geometry.SCREEN_MARGIN))
        gap = np.choose(np.arange(1200) % 6, [
            at_dx * (1.0 - 1e-9), at_dx * (1.0 + 1e-9), at_screen,
            at_screen * (1.0 - 1e-12), at_screen * (1.0 + 1e-12), at_dx])
        T[edge] = np.where(T[edge] <= T0[edge], T0[edge] - gap, T0[edge] + gap)
        return X, T, X0, T0

    @pytest.mark.parametrize("kind", sorted(TestBlockedBisection.WEIGHTS))
    def test_matches_unscreened_inversion(self, kind, inverted):
        beta = TestBlockedBisection.WEIGHTS[kind]
        X, T, X0, T0 = self.pairs(beta, kind)
        ref = quasi_distance_unscreened(beta, X, T, X0, T0)
        got = quasi_distance_batch(beta, X, T, X0, T0)
        assert np.array_equal(got, ref)
        assert len(inverted) == 1 and 0 < inverted[0] < X.size

    def test_most_audit_pairs_skip_the_inversion(self, inverted):
        w = Weight.power(0.3, 0.0, DOM)
        samples = 2000
        quasi_triangle_audit(w, samples=samples, seed=7)
        # three legs of every random and every adversarial triple
        pairs = 3 * (samples + 13 * 13 * 10)
        assert len(inverted) == 3
        assert sum(inverted) < 0.6 * pairs

    def test_nan_time_rejected(self):
        X, T, X0, T0 = np.zeros((4, 5))
        X[:] = 0.5
        T[2] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            quasi_distance_batch(Weight.power(0.3, 0.0, DOM), X, T, X0, T0)

    def test_unreachable_gap_raises(self):
        # the zero-extended sampled weight has zero height far outside its
        # domain, so the spatial gap cannot screen the pair
        beta = TestBlockedBisection.WEIGHTS["sampled"]
        X, T, X0, T0 = np.zeros((4, 5))
        X[3], X0[3], T[3] = 50.0, 49.0, -1e30
        with pytest.raises(NoBracket):
            quasi_distance_batch(beta, X, T, X0, T0)


class TestQuasiTriangle:
    def test_lambda_formula(self):
        p = QuasiMetricParams(zeta0=0.5, N2=1.5)
        expected = max(2.0 ** 1.0 * 1.5 ** 2.0, 2.0)
        assert p.Lambda == pytest.approx(expected)

    def test_identity_weight_ratio_at_most_one(self):
        w = Weight.constant(1.0, DOM)
        rep = quasi_triangle_audit(w, samples=2000, seed=42)
        assert rep.passed
        assert rep.rows[0].constant <= 1.0 + 1e-9

    def test_power_weight_passes_formula_lambda(self):
        w = Weight.power(0.3, 0.0, DOM)
        rep = quasi_triangle_audit(w, samples=20000, seed=7)
        assert rep.passed and rep.rows[0].budget == 1.0 + QT_MARGIN
        # the general constant only the level-set audit still reads
        assert estimate_quasi_params(w).Lambda >= 2.0

    @pytest.mark.parametrize("w", [
        Weight.power(0.3, 0.0, DOM), Weight.power(-0.4, 0.35, DOM),
        Weight.sampled(np.exp(np.cos(np.linspace(0.0, 7.0, 30))), DOM)])
    def test_quasi_fit_matches_per_ball_loop(self, w, monkeypatch):
        sizes = []
        kernel = Weight.mass_1d_vec

        def counted(self, p, a, b):
            sizes.append(np.size(a))
            return kernel(self, p, a, b)

        monkeypatch.setattr(Weight, "mass_1d_vec", counted)
        got = estimate_quasi_params(w)
        assert sizes == [40, 40 * 12]  # one call for the balls, one for S1
        monkeypatch.undo()
        ref = quasi_params_per_ball(w)
        assert got.zeta0 == ref.zeta0
        assert got.N2 == pytest.approx(ref.N2, rel=1e-13)

    def test_quasi_fit_rejects_2d_weight(self):
        w = Weight.power(0.2, (0.0, 0.0), (DOM, DOM))
        with pytest.raises(ValueError, match="1D"):
            estimate_quasi_params(w)

    def test_deterministic_given_seed(self):
        w = Weight.power(0.3, 0.0, DOM)
        r1 = quasi_triangle_audit(w, samples=500, seed=9)
        r2 = quasi_triangle_audit(w, samples=500, seed=9)
        assert r1.to_json() == r2.to_json()


@pytest.fixture
def forks(monkeypatch):
    """How many times ``os.fork`` is called (each call still forks)."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def triangle_ratios(beta, xs, ts):
    """rho(z0, zbar) / (rho(z0, z1) + rho(z1, zbar)) of every triple, each
    leg's every pair measured by quasi_distance_batch; 0 where the
    denominator is 0."""
    d_main = quasi_distance_batch(beta, xs[:, 2], ts[:, 2], xs[:, 0], ts[:, 0])
    d_leg1 = quasi_distance_batch(beta, xs[:, 1], ts[:, 1], xs[:, 0], ts[:, 0])
    d_leg2 = quasi_distance_batch(beta, xs[:, 2], ts[:, 2], xs[:, 1], ts[:, 1])
    denom = d_leg1 + d_leg2
    return np.where(denom > 0.0, d_main / np.where(denom > 0.0, denom, 1.0), 0.0)


def quasi_triangle_whole(beta, samples, seed):
    """Reference for the blocked audit: every triple drawn and measured at
    once, the first argmax of the whole ratio vector reported."""
    rng = np.random.default_rng(seed)
    (lo, hi), = beta.domain[:1]
    t_span = height(beta, 0.5 * (lo + hi), 0.5 * (hi - lo)).item()
    xs = rng.uniform(lo, hi, size=(samples, 3))
    ts = rng.uniform(-t_span, 0.0, size=(samples, 3))
    xs_adv, ts_adv = geometry._adversarial_triples(lo, hi, t_span)
    xs = np.vstack([xs, xs_adv])
    ts = np.vstack([ts, ts_adv])
    ratios = triangle_ratios(beta, xs, ts)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    return max_ratio, {
        "z0": [float(xs[worst, 0]), float(ts[worst, 0])],
        "z1": [float(xs[worst, 1]), float(ts[worst, 1])],
        "zbar": [float(xs[worst, 2]), float(ts[worst, 2])],
    }, t_span, np.flatnonzero(ratios == max_ratio)


class TestBlockedTriangleAudit:
    """The audit walks its triples in blocks of TRIPLE_BLOCK and reports what
    the whole-array audit reported."""

    N_ADV = 13 * 13 * 10
    WEIGHTS = {
        "power": Weight.power(0.4, 0.1, DOM),
        "sampled": TestBlockedBisection.WEIGHTS["sampled"],
        "power-0.7": Weight.power(-0.7, 0.1, DOM),
        "constant": TestBlockedBisection.WEIGHTS["constant"],
        "golden-sampled": ExperimentConfig.load(
            Path(__file__).resolve().parent / "configs" / "sampled.json").build_weight(),
    }
    # sample counts on either side of one block, and two counts for three more
    # weights
    CASES = [*itertools.product([1, TRIPLE_BLOCK - N_ADV - 1, TRIPLE_BLOCK - N_ADV,
                                 TRIPLE_BLOCK - N_ADV + 1], ["power", "sampled"], [5, 2026]),
             *itertools.product([1, 2000], ["constant", "golden-sampled", "power-0.7"], [5])]

    def check(self, beta, samples, seed):
        """The report against the reference, field by field; the indices of
        the triples at the worst ratio."""
        rep = quasi_triangle_audit(beta, samples, seed=seed)
        ratio, triple, t_span, ties = quasi_triangle_whole(beta, samples, seed)
        row, = rep.rows
        assert row.constant == row.lhs == ratio
        assert row.extra == {"worst_triple": triple}
        assert rep.params == {"samples": samples, "t_span": t_span}
        assert row.passed == (ratio <= 1.0 + QT_MARGIN)
        return ties

    @pytest.mark.parametrize("samples, kind, seed", CASES)
    def test_matches_whole_array_audit(self, samples, kind, seed):
        self.check(self.WEIGHTS[kind], samples, seed)

    @pytest.mark.parametrize("block", [TRIPLE_BLOCK, 16])
    def test_ties_report_the_first_worst_triple(self, block, monkeypatch):
        # the constant weight: every triple collinear in x reaches ratio 1;
        # with 16-triple blocks the first of them sits in a later block
        monkeypatch.setattr(geometry, "TRIPLE_BLOCK", block)
        samples = 300 if block == 16 else TRIPLE_BLOCK + 5
        assert len(self.check(Weight.constant(1.0, DOM), samples, seed=1)) > 10

    @pytest.mark.parametrize("samples", [1, 999, 1000, 2500])
    def test_block_draws_are_the_one_shot_draws(self, samples, monkeypatch):
        # the triples of each block, read off the first two legs each block
        # screens, for sample counts that cut blocks, the random triples and
        # the adversarial tail
        legs, screen = [], geometry._screen

        def recorded(beta, X, T, X0, T0):
            legs.append((X, T, X0, T0))
            return screen(beta, X, T, X0, T0)

        monkeypatch.setattr(geometry, "TRIPLE_BLOCK", 1000)
        monkeypatch.setattr(geometry, "_screen", recorded)
        beta = self.WEIGHTS["power"]
        (lo, hi), = beta.domain
        t_span = height(beta, 0.5 * (lo + hi), 0.5 * (hi - lo)).item()
        xs_adv, ts_adv = geometry._adversarial_triples(lo, hi, t_span)
        rng = np.random.default_rng(11)
        xs = np.vstack([rng.uniform(lo, hi, size=(samples, 3)), xs_adv])
        ts = np.vstack([rng.uniform(-t_span, 0.0, size=(samples, 3)), ts_adv])
        quasi_triangle_audit(beta, samples, 11)
        blocks = [(np.column_stack([x0, x1, x2]), np.column_stack([t0, t1, t2]))
                  for (x2, t2, x0, t0), (x1, t1, _, _) in zip(legs[0::3], legs[1::3])]
        assert len(legs) == 3 * len(blocks)
        assert [len(x) for x, _ in blocks[:-1]] == [1000] * (len(blocks) - 1)
        assert np.array_equal(np.vstack([x for x, _ in blocks]), xs)
        assert np.array_equal(np.vstack([t for _, t in blocks]), ts)

    @pytest.mark.parametrize("samples", [1000, 100])
    def test_range_errors_raised_as_inline(self, samples, forks, monkeypatch):
        # every block that holds adversarial triples (time 0 at z0) raises,
        # naming its first such pair: the first of those blocks raises, in
        # this process
        screen = geometry._screen

        def failing(beta, X, T, X0, T0):
            adversarial = np.flatnonzero(np.asarray(T0) == 0.0)
            if adversarial.size:
                k = adversarial[0]
                raise NoBracket(f"pair at {X[k]!r}, {T[k]!r}")
            return screen(beta, X, T, X0, T0)

        monkeypatch.setattr(geometry, "TRIPLE_BLOCK", 256)
        monkeypatch.setattr(geometry, "_screen", failing)
        beta = self.WEIGHTS["sampled"]
        (lo, hi), = beta.domain
        t_span = height(beta, 0.5 * (lo + hi), 0.5 * (hi - lo)).item()
        xs_adv, ts_adv = geometry._adversarial_triples(lo, hi, t_span)
        with pytest.raises(NoBracket) as raised:
            quasi_triangle_audit(beta, samples, seed=3)
        assert forks == []
        # the main leg (zbar, z0) of the first adversarial triple
        assert str(raised.value) == f"pair at {xs_adv[0, 2]!r}, {ts_adv[0, 2]!r}"


def small_ball_distance(beta, X, T, X0, T0):
    """A known-bad rho: the small-ball heights h_x(r) = beta(x) r^2, whose
    inverse is sqrt(s / beta(x)), anchored at the later point as rho is."""
    base = np.where(T <= T0, X0, X)
    return np.maximum(np.abs(X - X0), np.sqrt(np.abs(T - T0) / beta(base)))


def lighter_anchor_distance(beta, X, T, X0, T0):
    """A known-bad rho: the true heights, anchored at the point of smaller
    weight whatever the time order."""
    base = np.where(beta(X) <= beta(X0), X, X0)
    return np.maximum(np.abs(X - X0), height_inverse_vec(beta, base, np.abs(T - T0)))


class TestKnownBadDistances:
    """The quasi-triangle audit FAILs a distance that is not a metric, and
    passes the true rho on the same weight at the constant 1."""

    # contrast 1e3 across the middle of a 256-cell sampled weight
    TWO_LEVEL = Weight.sampled(np.where(np.arange(256) < 128, 1.0, 1e3), (0.0, 1.0))
    # |x - 1/2|^0.2 times a seeded log-normal factor, as in the benchmark's
    # sampled-geometry workload
    GOLDEN_SAMPLED = TestBlockedTriangleAudit.WEIGHTS["golden-sampled"]

    @pytest.mark.parametrize("control, weight, low", [
        (small_ball_distance, "TWO_LEVEL", 20.0),  # 25.6
        (small_ball_distance, "GOLDEN_SAMPLED", 1.5),  # 1.73
        (lighter_anchor_distance, "TWO_LEVEL", 1.05),  # 1.10
    ])
    def test_control_fails_and_true_distance_passes(self, control, weight, low,
                                                   monkeypatch):
        beta = getattr(self, weight)
        true = quasi_triangle_audit(beta, 2000, seed=7)
        assert true.passed and true.rows[0].constant == 1.0
        monkeypatch.setattr(geometry, "quasi_distance_batch", control)
        bad = quasi_triangle_audit(beta, 2000, seed=7)
        assert not bad.passed and bad.rows[0].constant > low


def quasi_params_per_ball(beta):
    """Reference for the quasi-parameter fit: the per-ball loop of scalar
    masses it replaced, on the default 5 x 8 family, for a 1D weight
    (n = 1, n0 = 2)."""
    fam = BallFamily.default(beta.domain, n_centers=5, n_radii=8)
    p = 1.0
    pairs = []
    for c, r in zip(*ball_grid(fam.centers, fam.radii)):
        m2 = float(beta.mass_1d_vec(p, c[0] - r, c[0] + r))
        if m2 <= 0.0:
            continue
        for f in (0.15, 0.3, 0.5, 0.75):
            r1 = f * r
            for sh in (0.0, r - r1, -(r - r1)):
                m1 = float(beta.mass_1d_vec(p, c[0] + sh - r1, c[0] + sh + r1))
                if m1 > 0.0:
                    pairs.append((f, m1 / m2))
    s_arr, m_arr = np.array(pairs).T
    best = None
    for zeta0 in np.linspace(0.05, 0.95, 19):
        n2 = max(float(np.max(m_arr / s_arr ** zeta0)), 1.0 + 1e-9)
        cand = QuasiMetricParams(zeta0=float(zeta0), N2=n2)
        if best is None or cand.Lambda < best.Lambda:
            best = cand
    return best


class TestCylinders:
    def test_backward_interval(self):
        w = Weight.constant(1.0, DOM)
        cyl = WeightedCylinder(0.0, 0.0, 0.5, w)
        assert cyl.t_interval == (pytest.approx(-0.25), 0.0)

    def test_height_recomputable(self):
        w = Weight.power(0.2, 0.0, DOM)
        cyl = WeightedCylinder(0.1, -0.1, 0.3, w)
        assert cyl.h == pytest.approx(height(w, 0.1, 0.3))

    def test_relations_identity(self):
        w = Weight.constant(1.0, DOM)
        rep = cylinder_relations_audit(w, 0.0, 0.0, 0.4)
        assert rep.passed

    def test_relations_power(self):
        w = Weight.power(0.5, 0.0, DOM)
        rep = cylinder_relations_audit(w, 0.5, 0.0, 0.25)
        assert rep.passed

    def test_boundary_point_counts_as_inside(self):
        w = Weight.constant(1.0, DOM)
        cyl = WeightedCylinder(0.0, 0.0, 0.5, w)
        assert cyl.contains(0.5, 0.0, 0.0)
        assert cyl.contains(0.0, -0.25, 0.0)
        # broadcast over the points, with a per-point tolerance
        got = cyl.contains(np.array([0.5, 0.5 + 1e-9, 0.0, 0.0]),
                           np.array([0.0, 0.0, -0.25 - 1e-9, 0.1]),
                           tol=np.array([0.0, 0.0, 2e-9, 0.0]))
        assert got.tolist() == [True, False, True, False]

    @pytest.mark.parametrize("w", [Weight.constant(1.0, DOM),
                                   Weight.power(0.5, 0.0, DOM)],
                             ids=["identity", "power"])
    def test_relations_fail_on_a_wrong_distance(self, w, monkeypatch):
        # a distance three times too large puts cylinder points outside
        # the ball; one three times too small puts ball points outside
        # C_{2r}: each row fails under one of them
        exact = geometry.quasi_distance_batch
        failed = set()
        for factor in (3.0, 1.0 / 3.0):
            monkeypatch.setattr(geometry, "quasi_distance_batch",
                                lambda *args, f=factor: f * exact(*args))
            rep = cylinder_relations_audit(w, 0.1, 0.0, 0.3)
            failed |= {row.label for row in rep.rows if not row.passed}
        assert failed == {"cylinder-in-ball", "ball-in-centered-cylinder",
                          "centered-cylinder-within-2r"}

