import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wparab import weights
from wparab.errors import EmptyBall, EmptyRegion, NonIntegrable
from wparab.weights import (
    COVERAGE_BLOCK,
    BallFamily,
    Weight,
    _coverage,
    _interp_uniform,
    a2_products,
    aq_characteristic,
    ball_grid,
    check_beta_condition,
    default_gamma_candidates,
    doubling_eta,
    doubling_report,
    first_sup,
    power_interval_integral,
    reverse_holder_gamma,
)

DOM = (-1.0, 1.0)


def brute_mean(profile, a, b, p, n_cells=40000):
    """Independent oracle: composite midpoint quadrature of profile^p."""
    x = np.linspace(a, b, n_cells + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    return float(np.mean(profile(mid) ** p))


class TestBallAverage:
    def test_identity_weight(self):
        w = Weight.constant(1.0, DOM)
        assert w.mean(1.0, 0.0, 0.7) == pytest.approx(1.0, abs=1e-14)

    def test_power_half_p1(self):
        # antiderivative oracle: mean of |x|^(1/2) over (-r, r) is r^a/(1+a)
        w = Weight.power(0.5, 0.0, DOM)
        assert w.mean(1.0, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_power_half_reciprocal(self):
        w = Weight.power(0.5, 0.0, DOM)
        assert w.mean(-1.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_offcenter_against_quadrature(self):
        w = Weight.power(0.3, 0.2, DOM)
        got = w.mean(1.7, 0.5, 0.4)
        ref = brute_mean(lambda x: np.abs(x - 0.2) ** 0.3, 0.1, 0.9, 1.7)
        assert got == pytest.approx(ref, rel=1e-4)

    def test_nonintegrable_exponent(self):
        w = Weight.power(0.5, 0.0, DOM)
        with pytest.raises(NonIntegrable):
            w.mean(-2.5, 0.0, 1.0)

    def test_empty_ball(self):
        w = Weight.power(0.5, 0.0, DOM)
        with pytest.raises(EmptyBall):
            w.mean(1.0, 5.0, 0.5)

    def test_sampled_midpoint_is_cell_exact(self):
        vals = np.array([1.0, 2.0, 4.0, 2.0])
        w = Weight.sampled(vals, DOM)  # cells of width 0.5
        # interval (-0.75, 0.25): half of cell0, cell1, half of cell2
        got = w.mean(1.0, -0.25, 0.5)
        ref = (0.25 * 1.0 + 0.5 * 2.0 + 0.25 * 4.0) / 1.0
        assert got == pytest.approx(ref, rel=1e-14)



def lookup_probes(edges: np.ndarray, rng) -> np.ndarray:
    """Random points, every edge, both float neighbours of every edge (so
    also just outside both domain ends) and the two ends themselves."""
    lo, hi = edges[0], edges[-1]
    return np.concatenate([rng.uniform(lo, hi, 500), edges,
                           np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           [lo, hi]])


# a 1D weight of each kind
ONE_D_WEIGHTS = pytest.mark.parametrize("w", [
    Weight.power(0.4, 0.1, DOM), Weight.sampled([1.0, 2.0, 4.0, 2.0], DOM)],
    ids=["power", "midpoint"])


class TestCumulativeLookup:
    """The arithmetic cell lookup of the midpoint-rule masses against
    ``np.interp``, which the masses used to call."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("nc", [1, 3, 256])
    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.0, 1.0), (-3.7, 12.2)])
    def test_same_bits_as_interp(self, p, nc, domain):
        rng = np.random.default_rng(nc)
        w = Weight.sampled(rng.lognormal(0.0, 1.0, nc), domain)
        edges, cum, slopes = w._cum_1d(p)
        x = lookup_probes(edges, rng)
        values, j = _interp_uniform(x, edges, cum, slopes)
        assert np.array_equal(values, np.interp(x, edges, cum))
        # the cell of each value: the last edge at or below the clipped point
        clipped = np.clip(x, edges[0], edges[-1])
        assert np.array_equal(j, np.searchsorted(edges, clipped, side="right") - 1)
        a = np.clip(x, *domain)
        b = np.clip(a + rng.uniform(0.0, 0.4 * (domain[1] - domain[0]), a.size),
                    *domain)
        ref = np.interp(b, edges, cum) - np.interp(a, edges, cum)
        assert np.array_equal(w.mass_1d_vec(p, a, b), ref)

    def test_point_values_read_the_table_cell(self):
        # the points on and one ulp beside each cell edge: the floored cell
        # index differed from the table's cell at 81 of these 769 points
        w = Weight.sampled(np.random.default_rng(1).uniform(0.5, 2.0, 256), (-0.3, 1.9))
        edges = w._cum_1d(1.0)[0]
        x = np.concatenate([np.nextafter(edges, -np.inf), edges,
                            np.nextafter(edges, np.inf)])
        inside = (x >= -0.3) & (x <= 1.9)
        assert np.count_nonzero(inside) == 769
        cell = np.minimum(np.searchsorted(edges, x[inside], side="right") - 1, 255)
        assert np.array_equal(w(x[inside]), w.samples[cell])
        assert np.all(w(x[~inside]) == 0.0)

    def test_whole_and_empty_intervals(self):
        w = Weight.sampled([1.0, 2.0, 4.0, 2.0], DOM)
        edges, cum, _ = w._cum_1d(1.0)
        a = np.array([-5.0, -1.0, 0.5, 1.0, 3.0, 0.25])
        b = np.array([5.0, 1.0, 0.5, 2.0, 4.0, -0.5])
        assert np.array_equal(w.mass_1d_vec(1.0, a, b), [cum[-1], cum[-1], 0, 0, 0, 0])

    @pytest.mark.parametrize("w", [
        Weight.power(0.4, 0.1, DOM), Weight.power(-0.5, 0.1, DOM, scale=2.5),
        Weight.sampled(np.random.default_rng(1).uniform(0.5, 2.0, 256), (-0.3, 1.9)),
        Weight.sampled([3.0], DOM)], ids=["power", "singular", "midpoint", "one-cell"])
    def test_ball_ends_are_mass_and_point_values(self, w):
        # centres on, beside and beyond every cell edge and both domain ends,
        # radii from 0 through ones that reach past the domain; the singular
        # power weight is infinite at an end on its centre
        (lo, hi), = w.domain
        edges = np.linspace(lo, hi, 257)
        rng = np.random.default_rng(4)
        x0 = np.concatenate([lookup_probes(edges, rng), [lo - 1.0, hi + 1.0, 0.1]])
        for r in (np.zeros_like(x0), rng.uniform(0.0, 0.02, x0.size),
                  rng.uniform(0.0, 4.0, x0.size), np.full_like(x0, 0.1)):
            with np.errstate(divide="ignore"):
                mass, left, right = w.ball_ends(1.0, x0, r)
                ref_left, ref_right = w(x0 - r), w(x0 + r)
            ref = w.mass_1d_vec(1.0, x0 - r, x0 + r, clip=False)
            assert mass.tobytes() == ref.tobytes()
            assert left.tobytes() == ref_left.tobytes()
            assert right.tobytes() == ref_right.tobytes()

    @ONE_D_WEIGHTS
    def test_nan_endpoint_gives_nan(self, w):
        # as np.interp did, rather than a bad index
        out = w.mass_1d_vec(1.0, np.array([-0.5, np.nan, 0.2]),
                            np.array([0.5, 0.6, np.nan]))
        assert out[0] > 0.0 and np.isnan(out[1:]).all()

    @ONE_D_WEIGHTS
    def test_scalar_endpoints_match_one_element_call(self, w):
        for a, b in ((-0.7, 0.3), (-3.0, 5.0), (0.2, 0.2), (0.9, -0.5)):
            for clip in (True, False):
                got = w.mass_1d_vec(1.0, a, b, clip=clip)
                ref = w.mass_1d_vec(1.0, np.array([a]), np.array([b]), clip=clip)
                assert np.shape(got) == ()
                assert np.asarray(got).tobytes() == ref.tobytes()
        # the result takes the broadcast shape of (a, b)
        assert w.mass_1d_vec(1.0, -0.5, np.array([[0.0], [0.5]])).shape == (2, 1)


class TestAqCharacteristic:
    def test_identity_is_one(self):
        w = Weight.constant(1.0, DOM)
        fam = BallFamily.default(DOM)
        for q in (2.0, 3.0):
            assert aq_characteristic(w, q, fam) == pytest.approx(1.0, abs=1e-12)
        # A_q takes q > 1: the essential-sup class A_1 has no branch
        for q in (1.0, 0.5):
            with pytest.raises(ValueError, match="q > 1"):
                aq_characteristic(w, q, fam)

    def test_power_half_centered_a2(self):
        # (r^a/(1+a)) * (r^-a/(1-a)) = 1/(1-a^2) = 4/3 for a = 1/2
        w = Weight.power(0.5, 0.0, DOM)
        fam = BallFamily.centered(0.0, np.geomspace(0.05, 1.0, 16))
        assert aq_characteristic(w, 2.0, fam) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_offcenter_family_at_least_centered_value(self):
        w = Weight.power(0.5, 0.0, DOM)
        fam = BallFamily.default(DOM, n_centers=17)
        val = aq_characteristic(w, 2.0, fam)
        assert val >= 4.0 / 3.0 - 1e-12
        assert math.isfinite(val)

    def test_family_monotonicity(self):
        w = Weight.power(0.5, 0.0, DOM)
        small = BallFamily.centered(0.0, np.geomspace(0.1, 0.8, 8))
        large = BallFamily(
            centers=np.array([[0.0], [0.3], [-0.4]]),
            radii=np.geomspace(0.1, 0.8, 8),
        )
        assert aq_characteristic(w, 2.0, large) >= aq_characteristic(w, 2.0, small)

    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=-0.6, max_value=0.6),
        q=st.floats(min_value=1.1, max_value=4.0),
    )
    def test_scale_invariance_and_lower_bound(self, scale, alpha, q):
        # the dual exponent -alpha/(q-1) must stay integrable
        assume(alpha < 0.95 * (q - 1.0))
        fam = BallFamily.default(DOM, n_centers=5, n_radii=6)
        w1 = Weight.power(alpha, 0.1, DOM)
        w2 = Weight.power(alpha, 0.1, DOM, scale=scale)
        v1 = aq_characteristic(w1, q, fam)
        v2 = aq_characteristic(w2, q, fam)
        assert v2 == pytest.approx(v1, rel=1e-11)
        assert v1 >= 1.0 - 1e-10

    def test_sampled_lower_bound(self):
        rng = np.random.default_rng(7)
        vals = 0.5 + rng.random(64)
        w = Weight.sampled(vals, DOM)
        fam = BallFamily.default(DOM, n_centers=7, n_radii=8)
        assert aq_characteristic(w, 2.0, fam) >= 1.0 - 1e-12



class TestBetaCondition:
    def test_identity_passes(self):
        w = Weight.constant(1.0, DOM)
        fam = BallFamily.default(DOM)
        rep = check_beta_condition(w, 1.0, fam, 1e-6)
        assert rep.passed
        assert rep.rows[0].lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rows[1].lhs == pytest.approx(1.0, abs=1e-12)

    def test_small_power_passes(self):
        w = Weight.power(0.1, 0.0, DOM)
        fam = BallFamily.default(DOM, n_centers=17)
        rep = check_beta_condition(w, 10.0, fam, 1e-6)
        assert rep.passed
        # brute-force oracle for the centered A_2 value of |x|^{-0.1}
        # (mu)_B (mu^{-1})_B = 1/(1-0.01) for centered balls
        assert rep.rows[0].lhs >= 1.0 / (1.0 - 0.01) - 1e-9
        assert rep.rows[0].lhs < 10.0

    def test_duality_identity_for_three_powers(self):
        fam = BallFamily.default(DOM, n_centers=9)
        for alpha in (0.1, 0.35, -0.25):
            w = Weight.power(alpha, 0.0, DOM)
            rep = check_beta_condition(w, 50.0, fam, 1e-6)
            dual = next(r for r in rep.rows if r.label == "duality-identity")
            assert dual.passed, f"alpha={alpha}: gap {dual.constant}"

    def test_steep_power_rejected(self):
        with pytest.raises(NonIntegrable):
            w = Weight.power(-3.0, 0.0, DOM)
            check_beta_condition(w, 10.0, BallFamily.default(DOM), 1e-6)

    @pytest.mark.parametrize("w", [
        Weight.power(0.3, 0.2, DOM), Weight.power(-0.4, -0.1, DOM),
        Weight.sampled([1.0, 2.0, 4.0, 2.0], DOM)])
    def test_one_pass_matches_three_characteristics(self, w, monkeypatch):
        # one means pass over two exponents; with n0 = 2 every row reads the
        # sup of the A_2 products: beta^-1 in A_{1+2/n0}, beta^{n0/2} in
        # A_{1+n0/2} and beta in A_2 are one characteristic
        fam = BallFamily.default(DOM)
        calls = count_kernel_calls(monkeypatch)
        rows = check_beta_condition(w, 50.0, fam, 1e-6).rows
        assert calls == [288] * 2
        est = first_sup(a2_products(w, fam))[0]
        assert [r.lhs for r in rows] == [est] * 3
        assert est == aq_characteristic(w, 2.0, fam)


class TestA2Products:
    """One A_2 product per ball: its sup is the heat-capacity condition's
    characteristic and aq_characteristic at q = 2, bit for bit."""

    @pytest.mark.parametrize("w", [
        Weight.power(0.3, 0.2, DOM), Weight.constant(2.5, DOM),
        Weight.sampled(np.exp(np.sin(np.linspace(0.0, 9.0, 40))), DOM),
        Weight.sampled(np.exp(np.cos(np.arange(576.0)).reshape(24, 24)), (DOM, DOM))],
        ids=["power", "constant", "sampled", "2d"])
    def test_sup_is_the_a2_characteristic(self, w):
        fam = BallFamily.default(w.domain, n_centers=5, n_radii=8)
        products = a2_products(w, fam)
        b, b_inv = w.means((1.0, -1.0), fam)
        assert np.array_equal(products, b * b_inv)
        est = first_sup(products)[0]
        rows = check_beta_condition(w, 50.0, fam, 1e-6).rows
        assert next(r for r in rows if r.label == "inverse-weight-class").lhs == est
        assert aq_characteristic(w, 2.0, fam) == est
        assert est >= 1.0 - 1e-12

    @pytest.mark.parametrize("alpha", [0.2, -0.7, 0.6])
    def test_power_weight_below_the_exact_sup(self, alpha):
        # The A_2 product of |x - c|^alpha over an interval that holds c and
        # has a share s of its length left of c depends on s alone, and
        # intervals that miss c give less; the maximum over s in [0, 1/2] is
        # the sup over all intervals (1.0603266149, 2.5179485199 and
        # 1.8624580296 here).
        import mpmath

        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)

            def product(s):
                return ((s ** (1 + a) + (1 - s) ** (1 + a)) / (1 + a)
                        * (s ** (1 - a) + (1 - s) ** (1 - a)) / (1 - a))

            start = max((mpmath.mpf(i) / 200 for i in range(101)), key=product)
            exact = float(product(mpmath.findroot(lambda s: mpmath.diff(product, s), start)))
        w = Weight.power(alpha, 0.5, (0.0, 1.0))
        est = first_sup(a2_products(w, BallFamily.default(w.domain)))[0]
        assert est <= exact * (1.0 + 1e-12)
        assert (exact - est) / exact <= 1e-3


class TestReverseHolder:
    def test_identity_takes_largest_candidate(self):
        w = Weight.constant(1.0, DOM)
        fam = BallFamily.default(DOM, n_centers=5, n_radii=8)
        assert default_gamma_candidates(w).max() == 2.0
        assert reverse_holder_gamma(w, fam, 1.0) == 2.0

    def test_power_half_against_antiderivative(self):
        # lhs(g) = ((1+a)/(1+a(1+g)))^{1/(1+g)} r^a vs budget * r^a/(1+a);
        # every candidate passes for budget 2 and a = 1/2 while integrable.
        w = Weight.power(0.5, 0.0, DOM)
        fam = BallFamily.centered(0.0, np.geomspace(0.1, 1.0, 8))
        cands = default_gamma_candidates(w)
        got = reverse_holder_gamma(w, fam, 2.0)
        a = 0.5

        def holds(g):
            lhs = (1.0 / (1.0 + a * (1.0 + g))) ** (1.0 / (1.0 + g))
            return lhs <= 2.0 / (1.0 + a)

        expected = max(g for g in cands if holds(g))
        assert got == pytest.approx(expected)

    def test_spike_weight_small_gamma(self):
        vals = np.full(64, 1.0)
        vals[30:34] = 2000.0
        w = Weight.sampled(vals, DOM)
        fam = BallFamily.default(DOM, n_centers=9, n_radii=8)
        g_tight = reverse_holder_gamma(w, fam, 1.5)
        g_loose = reverse_holder_gamma(w, fam, 50.0)
        assert g_tight <= g_loose
        assert g_tight < 0.5

    @pytest.mark.parametrize("alpha", [-0.999, -0.9, -0.5, -0.1])
    def test_every_candidate_is_integrable(self, alpha):
        # reverse_holder_gamma takes every candidate's mean without a filter:
        # w^{1+g} must stay integrable, (1 + g) alpha > -n
        w = Weight.power(alpha, 0.0, DOM)
        gammas = default_gamma_candidates(w)
        assert np.all((1.0 + gammas) * alpha > -w.n)
        reverse_holder_gamma(w, BallFamily.default(DOM, n_centers=5, n_radii=4), 2.0)


class TestDoubling:
    def test_identity_doubles_exactly(self):
        w = Weight.constant(1.0, DOM)
        fam = BallFamily.default(DOM, n_centers=9, n_radii=8)
        rep = doubling_report(w, 1.0, fam, theta=0.5, M0=1.0, n1_budget=math.inf)
        n1 = next(r for r in rep.rows if r.label == "doubling-constant")
        assert n1.constant == pytest.approx(2.0, abs=1e-12)

    def test_eta_formula(self):
        # n0 = 2
        assert doubling_eta(0.5, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_power_centered_ratio(self):
        # w = |x|^{1/2}: mass(B_2r)/mass(B_r) = 2^{3/2} for centered balls
        w = Weight.power(0.5, 0.0, DOM)
        fam = BallFamily.centered(0.0, np.geomspace(0.05, 0.4, 8))
        rep = doubling_report(w, 1.0, fam, theta=0.5, M0=10.0, n1_budget=math.inf)
        n1 = next(r for r in rep.rows if r.label == "doubling-constant")
        assert n1.constant == pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_shrink_factor_identity_weight(self):
        w = Weight.constant(1.0, DOM)
        fam = BallFamily.default(DOM, n_centers=5, n_radii=6)
        rep = doubling_report(w, 1.0, fam, theta=0.5, M0=1.0, n1_budget=math.inf)
        shrink = next(r for r in rep.rows if r.label == "measure-shrink-factor")
        assert shrink.passed
        assert shrink.constant == pytest.approx(0.5, abs=1e-12)


class TestWeightValidation:
    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            Weight.sampled(np.array([1.0, -0.5, 2.0]), DOM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        # NaN compares False against the floor, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            Weight.sampled(np.array([1.0, bad, 2.0, 1.0]), DOM)
        with pytest.raises(ValueError, match="finite"):
            Weight.sampled(np.array([[1.0, 2.0], [bad, 1.0]]), (DOM, DOM))

    def test_tiny_samples_rejected(self):
        with pytest.raises(ValueError):
            Weight.sampled(np.array([1.0, 1e-310, 2.0]), DOM)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            Weight.sampled(np.array([]), DOM)
        with pytest.raises(ValueError, match="at least one cell"):
            Weight.sampled(np.empty((0, 3)), (DOM, DOM))
        Weight.sampled(np.array([1.0]), DOM)

    def test_alpha_bound(self):
        with pytest.raises(NonIntegrable):
            Weight.power(-1.5, 0.0, DOM)

    def test_at_most_two_axes(self):
        # n0 = max{n, 2} is the constant weights.N0 = 2 only while n <= 2
        box3 = (DOM, DOM, DOM)
        with pytest.raises(ValueError, match="two axes"):
            Weight.power(0.2, (0.0, 0.0, 0.0), box3)
        with pytest.raises(ValueError, match="two axes"):
            Weight.sampled(np.ones((2, 2, 2)), box3)

    def test_reciprocal_gate_is_per_operation(self):
        # |x|^{1.5} is locally integrable, but its reciprocal is not
        w = Weight.power(1.5, 0.0, DOM)
        fam = BallFamily.centered(0.0, np.array([0.5]))
        with pytest.raises(NonIntegrable):
            aq_characteristic(w, 2.0, fam)

    def test_radii_must_increase(self):
        with pytest.raises(ValueError):
            BallFamily(centers=np.array([[0.0]]), radii=np.array([0.5, 0.5]))

    def test_empty_family_rejected(self):
        # an empty family would report every characteristic as 0 and pass
        with pytest.raises(EmptyRegion):
            BallFamily.default(DOM, n_centers=0)
        with pytest.raises(EmptyRegion):
            BallFamily.default(DOM, n_radii=0)


def recursive_cell_mean(fn, x0, x1, y0, y1, depth):
    """Reference for Weight.from_function_2d: one fn call per leaf cell."""
    if depth <= 1:
        xs = x0 + (x1 - x0) * (np.arange(4) + 0.5) / 4
        ys = y0 + (y1 - y0) * (np.arange(4) + 0.5) / 4
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return float(np.mean(fn(pts)))
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return 0.25 * (recursive_cell_mean(fn, x0, xm, y0, ym, depth - 1)
                   + recursive_cell_mean(fn, xm, x1, y0, ym, depth - 1)
                   + recursive_cell_mean(fn, x0, xm, ym, y1, depth - 1)
                   + recursive_cell_mean(fn, xm, x1, ym, y1, depth - 1))


def recursive_samples(fn, domain, shape, singular, depth=6):
    (x0, x1), (y0, y1) = domain
    ny, nx = shape
    xe = np.linspace(x0, x1, nx + 1)
    ye = np.linspace(y0, y1, ny + 1)
    vals = np.empty((ny, nx))
    for j in range(ny):
        for i in range(nx):
            near = (abs(singular[0] - 0.5 * (xe[i] + xe[i + 1])) < 2 * (xe[1] - xe[0])
                    and abs(singular[1] - 0.5 * (ye[j] + ye[j + 1])) < 2 * (ye[1] - ye[0]))
            d = depth if near else 1
            vals[j, i] = recursive_cell_mean(fn, xe[i], xe[i + 1], ye[j], ye[j + 1], d)
    return vals


class TestCellSampling2D:
    DOM2 = ((-1.0, 0.5), (-0.75, 1.0))
    SING = (-0.8, -0.5)  # in the corner cell; 3 x 3 cells lie near it
    FAR = (10.0, 10.0)  # no cell within two cells of it: nothing is refined
    W = Weight.power(0.3, SING, DOM2)

    @staticmethod
    def fn(pts):
        # singular at SING and not symmetric in x and y
        w = TestCellSampling2D.W
        return w(pts) * (1.0 + 0.5 * pts[:, 0]) + 0.25 * pts[:, 1]

    @pytest.mark.parametrize("singular", [FAR, SING], ids=["far", "near"])
    def test_batched_matches_recursive_bitwise(self, singular):
        # the refined cells average their 16,384 nodes in another order
        # than the quadrant recursion, so they match to rounding only
        shape = (5, 7)  # ny != nx catches a transposed index
        w = Weight.from_function_2d(self.fn, self.DOM2, shape, singular)
        ref = recursive_samples(self.fn, self.DOM2, shape, singular)
        assert w.samples.shape == shape
        refined = np.zeros(shape, dtype=bool)
        if singular == self.SING:
            refined[:3, :3] = True
        assert np.array_equal(w.samples[~refined], ref[~refined])
        np.testing.assert_allclose(w.samples[refined], ref[refined], rtol=1e-13, atol=0.0)

    def test_refinement_changes_near_cells_only(self):
        shape = (5, 7)
        plain = Weight.from_function_2d(self.fn, self.DOM2, shape, self.FAR)
        refined = Weight.from_function_2d(self.fn, self.DOM2, shape, self.SING)
        changed = plain.samples != refined.samples
        assert changed.any() and not changed.all()


class TestPowerProfile2D:
    CENTER = (0.3, -0.2)

    @pytest.mark.parametrize("alpha", [-1.5, -0.3, 0.2, 1.7])
    def test_matches_norm_bitwise(self, alpha):
        w = Weight.power(alpha, self.CENTER, ((-1.0, 1.0), (-0.5, 1.5)), scale=1.3)
        c = np.array(self.CENTER)
        rng = np.random.default_rng(5)
        pts = np.concatenate([
            rng.uniform(-1.0, 1.5, (4000, 2)),         # in and around the box
            rng.normal(0.0, 1e3, (500, 2)),            # far away
            c + rng.normal(0.0, 1e-160, (200, 2)),     # squares that underflow
            np.array([self.CENTER, self.CENTER]),      # at the centre
        ])
        with np.errstate(divide="ignore"):
            ref = 1.3 * np.linalg.norm(pts - c, axis=-1) ** alpha
            got = w(pts)
            grid = w(pts[:12].reshape(3, 4, 2))
        assert np.array_equal(got, ref)
        assert got[-1] == (math.inf if alpha < 0 else 0.0)
        assert np.array_equal(grid, ref[:12].reshape(3, 4))


def coverage_reference(c, r, x0, x1, y0, y1, nx, ny, sub=4):
    """Reference for the coverage of one ball: the mean of the boolean
    subcell test."""
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    off = (np.arange(sub) + 0.5) / sub
    sub_x = x0 + (np.arange(nx)[:, None] + off[None, :]) * dx
    sub_y = y0 + (np.arange(ny)[:, None] + off[None, :]) * dy
    DX = (sub_x.reshape(1, 1, nx, sub) - c[0]) ** 2
    DY = (sub_y.reshape(ny, sub, 1, 1) - c[1]) ** 2
    inside = (DX + DY) <= r * r
    return inside.mean(axis=(1, 3))


def cover_one(c, r, x0, x1, y0, y1, nx, ny):
    """The kernel's coverage of a family of one ball, as an (ny, nx) grid."""
    frac, meas = _coverage(np.asarray(c)[None, :], np.array([r]), x0, x1, y0, y1, nx, ny)
    assert meas[0] == frac[0].sum()
    return frac[0].reshape(ny, nx)


class TestCellCoverage:
    BOX = (-1.0, 0.5, -0.75, 1.0)  # not square, not centred

    def probes(self, n):
        """Centres and radii: random, at the corners, on the edges, outside."""
        x0, x1, y0, y1 = self.BOX
        rng = np.random.default_rng(n)
        balls = [(rng.uniform(-1.5, 1.0, 2), float(np.exp(rng.uniform(-5.0, 0.5))))
                 for _ in range(40)]
        corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]
        edges = [(x0, 0.1), (x1, 0.1), (-0.3, y0), (-0.3, y1)]
        outside = [(x0 - 0.2, 0.1), (-0.3, y1 + 0.1), (x1 + 0.1, y0 - 0.1)]
        for c in corners + edges + outside:
            for r in (0.05, 0.3, 2.0):
                balls.append((np.array(c), r))
        return balls

    @pytest.mark.parametrize("n", [32, 40, 48, 64])
    def test_matches_boolean_mean_bitwise(self, n):
        x0, x1, y0, y1 = self.BOX
        balls = self.probes(n)
        assert len(balls) % COVERAGE_BLOCK != 0  # a short last block
        c = np.array([b[0] for b in balls])
        r = np.array([b[1] for b in balls])
        for ny, nx in ((n, n), (n, n // 2 + 3)):  # ny != nx catches a transpose
            frac, meas = _coverage(c, r, x0, x1, y0, y1, nx, ny)
            assert frac.shape == (len(balls), ny * nx) and meas.shape == (len(balls),)
            for k, (ck, rk) in enumerate(balls):
                ref = coverage_reference(ck, rk, x0, x1, y0, y1, nx, ny)
                assert np.array_equal(frac[k].reshape(ny, nx), ref), (ck, rk, nx, ny)
                assert meas[k] == ref.sum()

    def test_radius_below_subcell_spacing(self):
        # a 4x4 grid on [0, 4]^2 has subcell centres at odd multiples of 1/8
        c = np.array([1.125, 2.375])
        got = cover_one(c, 0.1, 0.0, 4.0, 0.0, 4.0, 4, 4)
        assert np.array_equal(got, coverage_reference(c, 0.1, 0.0, 4.0, 0.0, 4.0, 4, 4))
        assert got[2, 1] == 1.0 / 16.0 and got.sum() == 1.0 / 16.0
        # between subcell centres the same radius covers none
        off = cover_one(c + 0.125, 0.1, 0.0, 4.0, 0.0, 4.0, 4, 4)
        assert not off.any()
        # the four subcell centres at distance exactly 0.25 count as inside
        edge = cover_one(c, 0.25, 0.0, 4.0, 0.0, 4.0, 4, 4)
        assert edge[2, 1] == 4.0 / 16.0 and edge[2, 0] == 1.0 / 16.0
        assert edge.sum() == 5.0 / 16.0

    def test_ball_missing_the_box(self):
        x0, x1, y0, y1 = self.BOX
        c = np.array([x1 + 1.0, y1 + 1.0])
        got = cover_one(c, 0.5, x0, x1, y0, y1, 48, 48)
        assert got.shape == (48, 48) and not got.any()

    def test_family_coverage_once_per_grid(self, monkeypatch):
        x0, x1, y0, y1 = self.BOX
        dom = ((x0, x1), (y0, y1))
        fam = BallFamily.default(dom, n_centers=3, n_radii=5)
        passes = []
        kernel = weights._coverage

        def counted(*args):
            passes.append(args[-2:])
            return kernel(*args)

        monkeypatch.setattr(weights, "_coverage", counted)
        frac, meas = fam.coverage(dom, (12, 16))
        assert fam.coverage(dom, (12, 16))[0] is frac
        fam.coverage(dom, (16, 12))
        assert passes == [(16, 12), (12, 16)]  # (nx, ny) of each grid, once
        c, r = ball_grid(fam.centers, fam.radii)
        assert np.array_equal(frac, kernel(c, r, x0, x1, y0, y1, 16, 12)[0])
        # the stored coverage and the balls it was computed for are read-only
        for arr in (frac, meas, fam.centers, fam.radii):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_family_copies_its_balls(self):
        centers, radii = np.zeros((2, 2)), np.array([0.1, 0.2])
        fam = BallFamily(centers, radii)
        centers[0, 0] = radii[0] = 5.0  # the caller's arrays stay writable
        assert fam.centers[0, 0] == 0.0 and fam.radii[0] == 0.1

    def test_block_bounds_kernel_memory(self):
        # 400 balls on a 64 x 64 grid: the (balls, cells) result is 13 MB,
        # the inside test of all 400 balls at once would be 210 MB more
        x0, x1, y0, y1 = self.BOX
        fam = BallFamily.default(((x0, x1), (y0, y1)), n_centers=5, n_radii=16)
        c, r = ball_grid(fam.centers, fam.radii)
        assert r.size == 400
        tracemalloc.start()
        try:
            frac, meas = _coverage(c, r, x0, x1, y0, y1, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = peak - frac.nbytes - meas.nbytes
        assert work < 6e6, f"{work / 1e6:.1f} MB beyond the result"


class TestMeans:
    PS = (1.0, -1.0, 0.5, -0.5, 2.0)

    @staticmethod
    def weights():
        rng = np.random.default_rng(21)
        dom2 = ((-1.0, 1.0), (-0.5, 1.5))
        return [
            Weight.power(0.3, 0.2, DOM),
            Weight.sampled(rng.lognormal(0.0, 0.5, 33), DOM),
            Weight.sampled(rng.lognormal(0.0, 0.5, (12, 16)), dom2),
        ]

    @pytest.mark.parametrize("k", range(3))
    def test_matches_one_mean_per_exponent(self, k):
        w = self.weights()[k]
        balls = [(np.full(w.n, 0.1), 0.3), (np.full(w.n, -0.9), 0.6),
                 (np.full(w.n, 0.95), 1.2)]
        ps = self.PS
        for c, r in balls:
            got = w.means(ps, BallFamily.centered(c, [r]))
            assert got.shape == (len(ps), 1)
            assert got[:, 0].tolist() == [w.mean(p, c, r) for p in ps]
            assert all(isinstance(w.mean(p, c, r), float) for p in ps)

    def test_sampled_2d_against_reference_coverage(self):
        w = self.weights()[2]
        (x0, x1), (y0, y1) = w.domain
        ny, nx = w.samples.shape
        for c, r in ((np.array([0.2, 0.4]), 0.3), (np.array([-1.0, 1.5]), 0.7)):
            frac = coverage_reference(c, r, x0, x1, y0, y1, nx, ny)
            ref = [float(np.sum(w.samples ** p * frac)) / float(frac.sum())
                   for p in self.PS]
            assert w.means(self.PS, BallFamily.centered(c, [r]))[:, 0].tolist() == ref

    def test_empty_ball_raises(self):
        w = self.weights()[2]
        with pytest.raises(EmptyBall):
            w.means((1.0, -1.0), BallFamily.centered((5.0, 5.0), [0.5]))
        # a 1D ball far outside the domain, alone or inside a family
        w = Weight.power(0.3, 0.0, DOM)
        with pytest.raises(EmptyBall):
            w.means((1.0,), BallFamily.centered(9.0, [0.5]))
        with pytest.raises(EmptyBall, match="9.0"):
            w.means((1.0,), BallFamily(np.array([[0.0], [9.0]]), np.array([0.25, 0.5])))

    def test_2d_weight_paths_refused(self):
        # a 2D weight is sampled before any mean, and a sampled one has no
        # point values; doubling takes 1D
        dom2 = ((-1.0, 1.0), (-0.5, 1.5))
        power = Weight.power(0.2, (0.1, 0.3), dom2)
        sampled = self.weights()[2]
        with pytest.raises(ValueError, match="sample it first"):
            power.means((1.0,), BallFamily.centered((0.1, 0.3), [0.5]))
        with pytest.raises(ValueError, match="2D sampled weight"):
            sampled(np.array([[0.1, 0.3]]))
        fam = BallFamily.default(dom2, n_centers=2, n_radii=2)
        for w in (power, sampled):
            with pytest.raises(ValueError, match="1D weight"):
                doubling_report(w, 1.0, fam, 0.5, 10.0, math.inf)

    @staticmethod
    def family(w):
        if w.n == 1:
            return np.linspace(-1.0, 1.0, 7)[:, None], np.geomspace(0.01, 1.5, 9)
        return (np.array([[x, y] for x in (-1.0, 0.1, 0.9) for y in (-0.5, 0.4, 1.5)]),
                np.array([0.05, 0.3, 1.2]))

    @pytest.mark.parametrize("k", range(3))
    def test_family_matches_per_ball_loop(self, k):
        w = self.weights()[k]
        centers, radii = self.family(w)
        ps = self.PS
        got = w.means(ps, BallFamily(centers, radii))
        ref, tol = means_per_ball(w, ps, centers, radii)
        assert got.shape == (len(ps), len(centers) * len(radii))
        exact = tol == 0.0
        assert np.array_equal(got[exact], ref[exact])
        assert np.all(np.abs(got - ref) <= tol)


def means_per_ball(w: Weight, ps, centers, radii) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the family means: one ball at a time, centre-major,
    with scalar masses (``np.interp`` on the cumulative table for a 1D
    sampled weight, the closed form for a 1D power weight, the reference
    coverage for a 2D sampled one).

    Also returns each mean's allowed gap; zero means the same bits. Only a
    1D power weight has a gap: numpy's array pow and the scalar pow may
    differ in the last bit, which the closed form's difference F(b) - F(a)
    amplifies by its condition (|F(a)| + |F(b)|) / |F(b) - F(a)|.
    """
    rows, tols = [], []
    for c in np.asarray(centers, dtype=float).reshape(-1, w.n):
        for r in radii:
            r, gaps = float(r), [0.0] * len(ps)
            if w.n == 1:
                (lo, hi), = w.domain
                a, b = max(c[0] - r, lo), min(c[0] + r, hi)
                meas = b - a
                if w.kind == "power":
                    cx, masses, gaps = w.center[0], [], []
                    for p in ps:
                        q = p * w.alpha
                        masses.append(w.scale ** p * float(
                            power_interval_integral(a, b, cx, q)))
                        ends = (abs(a - cx) ** (q + 1) + abs(b - cx) ** (q + 1)) / (q + 1)
                        gaps.append(1e-14 * w.scale ** p * ends / meas)
                else:
                    masses = []
                    for p in ps:
                        edges, cum, _ = w._cum_1d(p)
                        masses.append(float(np.interp(b, edges, cum)
                                            - np.interp(a, edges, cum)))
            else:
                (x0, x1), (y0, y1) = w.domain
                ny, nx = w.samples.shape
                frac = coverage_reference(c, r, x0, x1, y0, y1, nx, ny)
                meas = float(frac.sum())
                masses = [float(np.sum(w.samples ** p * frac)) for p in ps]
            rows.append([m / meas for m in masses])
            tols.append(gaps)
    return np.array(rows).T, np.array(tols).T


def count_kernel_calls(monkeypatch) -> list[int]:
    """Record the size of every ``Weight.mass_1d_vec`` call from now on."""
    calls = []
    kernel = Weight.mass_1d_vec

    def counted(self, p, a, b, clip=True):
        calls.append(int(np.size(a)))
        return kernel(self, p, a, b, clip)

    monkeypatch.setattr(Weight, "mass_1d_vec", counted)
    return calls


class TestFirstSup:
    """The supremum over a family keeps the loop's rules: the first ball
    that reaches the maximum wins, NaN never wins, and nothing above zero
    gives (0.0, None)."""

    def test_first_of_ties(self):
        assert first_sup([0.5, 2.0, 1.0, 2.0]) == (2.0, 1)

    def test_nan_and_nonpositive_ignored(self):
        assert first_sup([np.nan, 0.3, np.nan]) == (0.3, 1)
        assert first_sup([0.0, -1.0, np.nan]) == (0.0, None)
        assert first_sup([]) == (0.0, None)

    def test_infinity_wins_first(self):
        assert first_sup([1.0, np.inf, np.inf]) == (math.inf, 1)


class TestFamilyKernelCalls:
    """The family audits hand a whole 1D ball family to the mass kernel:
    the number of kernel calls does not grow with the family."""

    W = Weight.power(0.3, 0.2, DOM)

    @pytest.mark.parametrize("w", [W, Weight.sampled([1.0, 2.0, 4.0, 2.0], DOM)])
    def test_aq_characteristic_two_calls(self, w, monkeypatch):
        fam = BallFamily.default(DOM)
        calls = count_kernel_calls(monkeypatch)
        aq_characteristic(w, 2.0, fam)
        assert calls == [288, 288]

    def test_reverse_holder_one_call_per_exponent(self, monkeypatch):
        fam = BallFamily.default(DOM)
        cands = default_gamma_candidates(self.W)
        calls = count_kernel_calls(monkeypatch)
        reverse_holder_gamma(self.W, fam, 2.0)
        assert len(calls) <= 1 + cands.size
        assert set(calls) == {288}

    def test_doubling_calls_independent_of_family_size(self, monkeypatch):
        counts = []
        for n_centers, n_radii in ((3, 4), (9, 32)):
            fam = BallFamily.default(DOM, n_centers=n_centers, n_radii=n_radii)
            calls = count_kernel_calls(monkeypatch)
            doubling_report(self.W, 1.0, fam, 0.5, 10.0, math.inf)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_doubling_matches_per_ball_loop(self):
        # the lifted N1 and pair ratios against the scalar loop they replace
        # on the one ball [-1, 1], S1 centred on the singularity decides
        fams = (BallFamily.default(DOM, n_centers=5, n_radii=6),
                BallFamily.centered(0.0, np.array([1.0])))
        for w in (self.W, Weight.power(-0.9, 0.35, DOM),
                  Weight.sampled([1.0, 2.0, 4.0, 2.0], DOM)):
            for fam in fams:
                rows = doubling_report(w, 1.0, fam, 0.5, 10.0, math.inf).rows
                n1, worst, pair = doubling_per_ball(w, 1.0, fam, 0.5)
                assert rows[0].lhs == pytest.approx(n1, rel=1e-14)
                assert rows[0].extra["worst_ball"] == worst
                assert rows[1].lhs == pytest.approx(pair, rel=1e-14)


def doubling_per_ball(w: Weight, p: float, fam: BallFamily, theta: float):
    """Reference for the 1D doubling rows: the per-ball loop with scalar
    masses, first maximal ball kept."""
    def mass(a, b):
        return float(w.mass_1d_vec(p, np.array([a]), np.array([b]))[0])

    (lo, hi), = w.domain
    n1, worst, pair = 0.0, None, 0.0
    for c, r in zip(*ball_grid(fam.centers, fam.radii)):
        x = float(c[0])
        m1 = mass(x - r, x + r)
        if m1 <= 0.0:
            continue
        ratio = mass(x - 2.0 * r, x + 2.0 * r) / m1
        if ratio > n1:
            n1, worst = ratio, ((x,), r)
        a2, b2 = max(x - r, lo), min(x + r, hi)
        L1 = theta * (b2 - a2)
        starts = [a2, 0.5 * (a2 + b2) - 0.5 * L1, b2 - L1]
        if w.kind == "power" and a2 <= w.center[0] <= b2:
            starts.append(min(max(w.center[0] - 0.5 * L1, a2), b2 - L1))
        for s in starts:
            pair = max(pair, mass(s, s + L1) / m1)
    return n1, worst, pair
