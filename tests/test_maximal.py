import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import maximal
from wparab.errors import EmptyRegion
from wparab.geometry import WeightedCylinder, estimate_quasi_params, height
from wparab.maximal import (
    SpaceTimeField,
    default_radius_grid,
    five_rho_cover_audit,
    levelset_decay_audit,
    maximal_function_batch,
    summed_area,
    vitali_select,
    weak_1_1_audit,
)
from wparab.weights import Weight


def make_field(values, x_span=(-1.0, 1.0), t_span=(-1.0, 0.0)):
    values = np.asarray(values, dtype=float)
    nt, nx = values.shape
    return SpaceTimeField(np.linspace(*x_span, nx + 1),
                          np.linspace(*t_span, nt + 1), values)


def brute_rect_integral(f, a, b, s, e):
    """Oracle: direct cell-overlap sum for a piecewise-constant field."""
    total = 0.0
    for j in range(f.values.shape[0]):
        tlo, thi = f.t_edges[j], f.t_edges[j + 1]
        ov_t = max(0.0, min(e, thi) - max(s, tlo))
        if ov_t == 0.0:
            continue
        for i in range(f.values.shape[1]):
            xlo, xhi = f.x_edges[i], f.x_edges[i + 1]
            ov_x = max(0.0, min(b, xhi) - max(a, xlo))
            total += f.values[j, i] * ov_x * ov_t
    return total


def sat_at_reference(f, x, t):
    """The cumulative integral of |f| at points (x, t): clip, search and
    interpolate at every corner of every point."""
    sat = summed_area(f)
    x = np.clip(x, f.x_edges[0], f.x_edges[-1])
    t = np.clip(t, f.t_edges[0], f.t_edges[-1])
    ix = np.clip(np.searchsorted(f.x_edges, x, side="right") - 1,
                 0, len(f.x_edges) - 2)
    it = np.clip(np.searchsorted(f.t_edges, t, side="right") - 1,
                 0, len(f.t_edges) - 2)
    fx = (x - f.x_edges[ix]) / (f.x_edges[ix + 1] - f.x_edges[ix])
    ft = (t - f.t_edges[it]) / (f.t_edges[it + 1] - f.t_edges[it])
    s00 = sat[it, ix]
    s01 = sat[it, ix + 1]
    s10 = sat[it + 1, ix]
    s11 = sat[it + 1, ix + 1]
    return ((1 - ft) * ((1 - fx) * s00 + fx * s01)
            + ft * ((1 - fx) * s10 + fx * s11))


def integral_reference(f, a, b, s, e):
    """Integral of |f| over the rectangles [a, b] x [s, e]."""
    return (sat_at_reference(f, b, e) - sat_at_reference(f, a, e)
            - sat_at_reference(f, b, s) + sat_at_reference(f, a, s))


def windowed_average(f, beta, rect, big_r=50.0):
    """The batch at one point and one radius so large that the window is
    the whole cylinder: the average of |f| over ``rect`` with the cylinder
    measure 2 R h as denominator."""
    a, b, s, e = rect
    got = maximal_function_batch([f], beta, [0.5 * (a + b)], [0.5 * (s + e)],
                                 [big_r], window=rect)
    return got.item(), 2.0 * big_r * height(beta, 0.5 * (a + b), big_r).item()


def abs_of(f):
    return SpaceTimeField(f.x_edges, f.t_edges, np.abs(f.values))


class TestFieldIntegrator:
    def test_summed_area_matches_brute_force(self):
        # every node's table value is the integral of |f| below and left of it
        f = make_field(np.random.default_rng(23).standard_normal((5, 7)),
                       x_span=(-0.3, 0.8), t_span=(0.1, 0.45))
        sat = summed_area(f)
        assert sat.shape == (6, 8)
        for j, t in enumerate(f.t_edges):
            for i, x in enumerate(f.x_edges):
                ref = brute_rect_integral(abs_of(f), f.x_edges[0], x, f.t_edges[0], t)
                assert sat[j, i] == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_equals_per_corner_lookup(self):
        rng = np.random.default_rng(5)
        f = make_field(rng.random((7, 11)), x_span=(-0.3, 0.8), t_span=(0.1, 0.45))
        beta = Weight.constant(1.0, (-1.0, 1.0))
        n = 400
        a = rng.uniform(-0.5, 1.0, n)            # inside and outside the grid
        b = a + rng.uniform(0.0, 0.7, n)
        s = rng.uniform(0.0, 0.5, n)
        e = s + rng.uniform(0.0, 0.3, n)
        # exactly on cell edges, on the grid ends, and beyond both ends
        a[:11], b[:11] = f.x_edges[:11], f.x_edges[1:12]
        s[11:19], e[11:19] = f.t_edges[:8], f.t_edges[:8] + 0.05
        a[19:22], b[19:22] = (-1.0, -0.3, 0.8), (-0.5, 0.8, 2.0)
        s[19:22], e[19:22] = (0.0, 0.1, 0.45), (0.05, 0.45, 1.0)
        for rect in zip(a, b, s, e):
            got, measure = windowed_average(f, beta, rect)
            ref = integral_reference(f, *rect) / measure
            assert got == max(ref, 0.0), rect

    @settings(max_examples=30, deadline=None)
    @given(
        x0=st.floats(min_value=-1.4, max_value=1.4),
        t0=st.floats(min_value=-1.4, max_value=0.4),
        rho=st.floats(min_value=0.01, max_value=1.5),
    )
    def test_matches_brute_force(self, x0, t0, rho):
        # one radius, no window: the average of |f| over the centered cylinder
        rng = np.random.default_rng(19)
        f = make_field(rng.standard_normal((6, 9)))
        beta = Weight.power(0.3, 0.2, (-1.0, 1.0))
        got = maximal_function_batch([f], beta, [x0], [t0], [rho]).item()
        h = height(beta, x0, rho).item()
        ref = brute_rect_integral(abs_of(f), x0 - rho, x0 + rho,
                                  t0 - 0.5 * h, t0 + 0.5 * h)
        assert got * (2.0 * rho * h) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_l1_norm(self):
        f = make_field(np.full((4, 4), 2.0))
        assert f.l1_norm() == pytest.approx(2.0 * 2.0)

    @pytest.mark.parametrize("x_edges", [
        [0.0, 0.5, 0.25, 1.0],                 # not increasing
        [0.0, 0.25, 0.25, 1.0],                # a zero-width cell
        [0.0, 0.2, 0.5, 1.0],                  # increasing, not uniform
        [0.0, 1.0 / 3.0 * (1 + 1e-8), 2.0 / 3.0, 1.0],  # uniform only to 1e-8
        [0.0, np.nan, 2.0 / 3.0, 1.0],         # not a number
    ])
    def test_bad_edges_rejected(self, x_edges):
        with pytest.raises(ValueError):
            SpaceTimeField(x_edges, np.linspace(0.0, 1.0, 3), np.ones((2, 3)))
        with pytest.raises(ValueError):
            SpaceTimeField(np.linspace(0.0, 1.0, 3), x_edges, np.ones((3, 2)))

    def test_uniform_edges_accepted(self):
        # linspace rounding and a rounding-level perturbation stay uniform
        x = np.linspace(-0.3, 0.8, 12)
        x[5] *= 1 + 1e-12
        SpaceTimeField(x, np.linspace(0.1, 0.45, 1025), np.ones((1024, 11)))


def maximal_batch_reference(g, beta, X, T, radii, window=None):
    """Reference for maximal_function_batch: a height and a per-corner
    integral per point, even where points share their x."""
    best = np.zeros_like(X)
    for rho in radii:
        h = height(beta, X, rho)
        a, b = X - rho, X + rho
        s, e = T - 0.5 * h, T + 0.5 * h
        if window is not None:
            w_a, w_b, w_s, w_e = window
            a, b = np.maximum(a, w_a), np.minimum(b, w_b)
            s, e = np.maximum(s, w_s), np.minimum(e, w_e)
            b, e = np.maximum(a, b), np.maximum(s, e)
        best = np.maximum(best, integral_reference(g, a, b, s, e) / (2.0 * rho * h))
    return best


def maximal_function(g, beta, x, t, radii):
    """The maximal function at one space-time point, as a one-point batch."""
    return maximal_function_batch([g], beta, [x], [t], radii).item()


class TestMaximalFunction:
    def test_constant_field(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        f = make_field(np.full((16, 16), 3.0))
        radii = default_radius_grid(f)
        # interior small cylinders average to exactly 3
        assert maximal_function(f, beta, 0.0, -0.5, radii) == pytest.approx(3.0, rel=1e-12)

    def test_single_cell_indicator(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        vals = np.zeros((16, 16))
        vals[8, 8] = 1.0
        f = make_field(vals)
        radii = default_radius_grid(f)
        x_c = 0.5 * (f.x_edges[8] + f.x_edges[9])
        t_c = 0.5 * (f.t_edges[8] + f.t_edges[9])
        near = maximal_function(f, beta, x_c, t_c, radii)
        far = maximal_function(f, beta, -0.9, -0.95, radii)
        assert near > far > 0.0
        # far away the value is at most cell mass over the smallest
        # enclosing cylinder, so bounded by cell_area / |C|
        assert far <= f.cell_area / min(2 * r * r * r for r in radii) + 1e-12

    def test_huge_radius_gives_global_average(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(3)
        f = make_field(rng.random((8, 8)))
        # one huge radius: cylinder swallows the grid
        R = 50.0
        got = maximal_function(f, beta, 0.0, -0.5, np.array([R]))
        ref = f.l1_norm() / (2 * R * R * R)
        assert got == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(min_value=0.1, max_value=10.0))
    def test_positive_homogeneity(self, c):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(5)
        f = make_field(rng.random((8, 8)))
        radii = default_radius_grid(f)
        X, T = f.cell_centers()
        m1, m2 = maximal_function_batch([f, make_field(c * f.values)], beta, X, T,
                                        radii)
        assert np.allclose(m2, c * m1, rtol=1e-12)

    def test_subadditivity(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(7)
        f = make_field(rng.standard_normal((8, 8)))
        g = make_field(rng.standard_normal((8, 8)))
        fg = make_field(f.values + g.values)
        radii = default_radius_grid(f)
        X, T = f.cell_centers()
        ms, m1, m2 = maximal_function_batch([fg, f, g], beta, X, T, radii)
        assert np.all(ms <= m1 + m2 + 1e-12)

    @pytest.mark.parametrize("beta", [
        Weight.power(0.3, 0.2, (-1.0, 1.0)),
        Weight.sampled(np.random.default_rng(4).lognormal(0.0, 0.5, 32), (-1.0, 1.0))])
    @pytest.mark.parametrize("window", [None, (-0.6, 0.7, -0.8, -0.1)])
    def test_distinct_x_heights_match_per_point(self, beta, window):
        rng = np.random.default_rng(9)
        f = make_field(rng.standard_normal((40, 24)))
        radii = default_radius_grid(f)
        X, T = f.cell_centers()
        (got,) = maximal_function_batch([f], beta, X, T, radii, window=window)
        assert np.array_equal(
            got, maximal_batch_reference(f, beta, X, T, radii, window))

    @pytest.mark.parametrize("window", [None, (-0.6, 0.7, -0.8, -0.1)])
    def test_scattered_points_match_per_point_integral(self, window):
        # repeated x in random order, some outside the grid, odd time rows
        rng = np.random.default_rng(12)
        beta = Weight.power(0.3, 0.2, (-1.0, 1.0))  # heights beyond the grid too
        f = make_field(rng.standard_normal((20, 16)))
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 9), [-1.0, 1.0, -1.3, 1.2]])
        X = rng.choice(xs, 100)
        T = rng.uniform(-1.2, 0.1, 100)
        radii = default_radius_grid(f)
        (got,) = maximal_function_batch([f], beta, X, T, radii, window=window)
        assert np.array_equal(
            got, maximal_batch_reference(f, beta, X, T, radii, window))

    @pytest.mark.parametrize("window", [None, (-0.6, 0.7, -0.8, -0.1)])
    def test_fields_share_one_pass(self, window):
        # a batch of fields gives each field's own batch, bit for bit
        rng = np.random.default_rng(17)
        beta = Weight.power(0.3, 0.2, (-1.0, 1.0))
        f = make_field(rng.standard_normal((40, 24)))
        g = make_field(rng.random((40, 24)) ** 4)
        radii = default_radius_grid(f)
        X, T = f.cell_centers()
        both = maximal_function_batch([f, g], beta, X, T, radii, window=window)
        assert both.shape == (2,) + X.shape
        for got, field in zip(both, (f, g)):
            (alone,) = maximal_function_batch([field], beta, X, T, radii,
                                              window=window)
            assert np.array_equal(got, alone)
        grid = np.stack([X, T]).reshape(2, 40, 24)
        assert maximal_function_batch([f, g], beta, grid[0], grid[1],
                                      radii).shape == (2, 40, 24)

    @pytest.mark.parametrize("other", [
        dict(x_span=(-1.0, 0.9)), dict(t_span=(-1.0, 0.1)), dict(shape=(40, 23))])
    def test_fields_on_different_grids_rejected(self, other):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        f = make_field(np.ones((40, 24)))
        shape = other.pop("shape", (40, 24))
        g = make_field(np.ones(shape), **other)
        X, T = f.cell_centers()
        with pytest.raises(ValueError):
            maximal_function_batch([f, g], beta, X, T, [0.1])
        with pytest.raises(ValueError):
            maximal_function_batch([], beta, X, T, [0.1])

    def test_dominates_pointwise_values(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        f = make_field(np.full((12, 12), 1.7))
        radii = default_radius_grid(f)
        X, T = f.cell_centers()
        (m,) = maximal_function_batch([f], beta, X, T, radii)
        # for a constant field the smallest-radius average equals the value
        interior = (np.abs(X) < 0.5) & (T > -0.75) & (T < -0.25)
        assert np.all(m[interior] >= 1.7 - 1e-12)


class TestWeakOneOne:
    def test_zero_field(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        f = make_field(np.full((8, 8), 1e-299))
        rep, = weak_1_1_audit([f], beta, [0.5, 1.0], math.inf)
        for row in rep.rows[:-1]:
            assert row.extra["levelset_measure"] == 0.0

    def test_levelsets_shrink(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(11)
        f = make_field(rng.random((16, 16)))
        rep, = weak_1_1_audit([f], beta, [0.25, 0.5, 1.0, 2.0, 1e6], math.inf)
        measures = [r.extra["levelset_measure"] for r in rep.rows[:-1]]
        assert all(b <= a for a, b in zip(measures, measures[1:]))
        assert measures[-1] == 0.0

    def test_seeded_fields_constant_recorded(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = make_field(rng.random((16, 16)))
            rep, = weak_1_1_audit([f], beta, [0.25, 0.5, 1.0], budget=100.0)
            assert rep.passed
            assert np.isfinite(rep.rows[-1].constant)

    def test_zero_radius_rejected(self):
        # a zero radius made 0/0 = NaN, and NaN > lambda let the audit pass
        beta = Weight.constant(1.0, (-1.0, 1.0))
        f = make_field(np.random.default_rng(3).random((8, 8)))
        X, T = f.cell_centers()
        with pytest.raises(ValueError):
            maximal_function_batch([f], beta, X, T, np.array([0.0]))

    def test_zero_height_rejected(self):
        # the sampled weight has no mass left of x = 0, so the cylinders of
        # the smallest radius (two cells, 0.5) centered at x = -0.875 have
        # zero height
        beta = Weight.sampled(np.ones(4), (0.0, 1.0))
        f = make_field(np.random.default_rng(3).random((8, 8)))
        assert default_radius_grid(f)[0] == 0.5
        with pytest.raises(EmptyRegion):
            weak_1_1_audit([f], beta, [0.25, 1.0], budget=1e-9)


class TestVitali:
    def cyl(self, x, t, r, beta):
        return WeightedCylinder(x, t, r, beta, variant="C")

    def test_single_cylinder_selected(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        assert vitali_select([self.cyl(0.0, -0.5, 0.2, beta)]) == [0]

    def test_identical_pair_keeps_first(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        c = self.cyl(0.0, -0.5, 0.2, beta)
        assert vitali_select([c, self.cyl(0.0, -0.5, 0.2, beta)]) == [0]

    def test_indices_in_selection_order(self):
        # decreasing radius, ties by input order; disjoint cylinders all stay
        beta = Weight.constant(1.0, (-1.0, 1.0))
        cyls = [self.cyl(x, -0.5, r, beta)
                for x, r in ((-0.8, 0.05), (-0.4, 0.1), (0.0, 0.05), (0.5, 0.15))]
        assert vitali_select(cyls) == [3, 1, 0, 2]

    def test_random_family_invariants(self):
        from wparab.maximal import _rect_intersect

        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(13)
        cyls = [self.cyl(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, -0.2),
                         rng.uniform(0.02, 0.3), beta) for _ in range(100)]
        selected = vitali_select(cyls)
        rep = five_rho_cover_audit(cyls, selected, beta)
        assert rep.passed, rep.to_json()
        # every discarded member intersects a selected one of radius >= its own
        sel = set(selected)
        for i, c in enumerate(cyls):
            if i in sel:
                continue
            assert any(cyls[j].r >= c.r - 1e-15
                       and _rect_intersect(c.region(), cyls[j].region())
                       for j in selected), f"cylinder {i} uncovered"

    @staticmethod
    def uncovered_per_point(cyls, selected, beta) -> int:
        """Reference count: each point of a 7 x 7 lattice on each cylinder
        against each selected cylinder dilated to five times its radius, one
        at a time."""
        dilated = [WeightedCylinder(cyls[i].x0, cyls[i].t0, 5.0 * cyls[i].r,
                                    beta, variant="C").region()
                   for i in selected]
        count = 0
        for cyl in cyls:
            a, b, s, e = cyl.region()
            for xx in np.linspace(a, b, 7):
                for tt in np.linspace(s, e, 7):
                    count += not any(da <= xx <= db and ds <= tt <= de
                                     for da, db, ds, de in dilated)
        return count

    def test_uncovered_cylinder_fails(self):
        # only the first cylinder is selected; its 5x dilation covers part
        # of the second cylinder in x and none of the third
        beta = Weight.power(0.3, 0.0, (-1.0, 1.0))
        cyls = [self.cyl(-0.5, -0.5, 0.05, beta), self.cyl(-0.27, -0.5, 0.05, beta),
                self.cyl(0.5, -0.5, 0.05, beta)]
        rep = five_rho_cover_audit(cyls, [0], beta)
        row = {r.label: r for r in rep.rows}["five-rho-cover"]
        expected = self.uncovered_per_point(cyls, [0], beta)
        assert 49 < expected < 98  # all of the third, part of the second
        assert not row.passed and row.lhs == expected
        # nothing selected: every lattice point is uncovered
        rep = five_rho_cover_audit(cyls, [], beta)
        assert rep.rows[1].lhs == 3 * 49 == self.uncovered_per_point(cyls, [], beta)

    def test_cover_count_matches_per_point_loop(self):
        beta = Weight.power(-0.4, 0.1, (-1.0, 1.0))
        rng = np.random.default_rng(31)
        cyls = [self.cyl(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, -0.2),
                         rng.uniform(0.02, 0.1), beta) for _ in range(30)]
        selected = vitali_select(cyls)
        counts = []
        for sel in (selected, selected[::2], selected[:1]):
            rep = five_rho_cover_audit(cyls, sel, beta)
            counts.append(self.uncovered_per_point(cyls, sel, beta))
            assert rep.rows[1].lhs == counts[-1]
        assert counts[0] == 0 < counts[1] < counts[2]

    def test_permutation_invariance_up_to_radius_ties(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(29)
        cyls = [self.cyl(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, -0.2),
                         float(rng.uniform(0.02, 0.3)), beta) for _ in range(40)]
        perm = list(rng.permutation(len(cyls)))
        sel1 = sorted((cyls[i].x0, cyls[i].r) for i in vitali_select(cyls))
        sel2 = sorted((cyls[perm[i]].x0, cyls[perm[i]].r)
                      for i in vitali_select([cyls[i] for i in perm]))
        assert sel1 == pytest.approx(sel2)


class TestLevelsetDecay:
    def test_zero_fields_trivial(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        g = make_field(np.full((16, 16), 1e-290))
        rep = levelset_decay_audit(g, g, beta, K=4.0, q0=0.1, m_max=4,
                                   quasi=estimate_quasi_params(beta),
                                   center=0.0, t_top=0.0, r_unit=0.2, delta_hat=0.05)
        assert rep.passed

    def test_smooth_field_monotone_table(self):
        beta = Weight.constant(1.0, (-1.0, 1.0))
        x, t = make_field(np.zeros((32, 32))).cell_centers()
        g = make_field((4.0 * np.exp(-8 * (x ** 2)) * (1.1 + t)).reshape(32, 32))
        f = make_field(np.full((32, 32), 0.2))
        rep = levelset_decay_audit(g, f, beta, K=2.0, q0=0.5, m_max=4,
                                   quasi=estimate_quasi_params(beta),
                                   center=0.0, t_top=0.0, r_unit=0.2, delta_hat=0.05)
        assert rep.passed
        table = rep.params["table"]
        lhs = [row[1] for row in table]
        assert all(b <= a for a, b in zip(lhs, lhs[1:]))
        assert np.isfinite(table[0][3])

    def q1_case(self):
        # 70 of the 4,096 cells lie in Q_1; the report is normalized (by 8)
        # and has a nonzero level set
        beta = Weight.power(0.3, 0.1, (-1.0, 1.0))
        shape, t_span = (128, 32), (-0.25, 0.0)
        x, t = make_field(np.zeros(shape), t_span=t_span).cell_centers()
        g = make_field((20.0 * np.exp(-50 * (x - 0.1) ** 2) * (1.1 + t)).reshape(shape),
                       t_span=t_span)
        f = make_field((0.2 + 0.1 * np.cos(3 * x)).reshape(shape), t_span=t_span)
        kw = dict(K=1.5, q0=0.5, m_max=4,
                  quasi=estimate_quasi_params(beta),
                  center=0.1, t_top=-0.01, r_unit=0.2, delta_hat=0.05)
        h_unit = height(beta, 0.1, 0.2).item()
        in_q1 = (np.abs(x - 0.1) <= 0.2) & (t <= -0.01) & (t > -0.01 - h_unit)
        assert in_q1.sum() == 70
        return g, f, beta, kw, in_q1

    def test_batch_gets_the_q1_cells_only(self, monkeypatch):
        g, f, beta, kw, in_q1 = self.q1_case()
        batch, calls = maximal.maximal_function_batch, []

        def recorded(fields, beta, X, T, *args, **kwargs):
            calls.append((X, T))
            return batch(fields, beta, X, T, *args, **kwargs)

        monkeypatch.setattr(maximal, "maximal_function_batch", recorded)
        levelset_decay_audit(g, f, beta, **kw)
        (X, T), = calls
        x, t = g.cell_centers()
        assert np.array_equal(X, x[in_q1]) and np.array_equal(T, t[in_q1])

    def test_same_report_as_every_cell_then_mask(self, monkeypatch):
        g, f, beta, kw, in_q1 = self.q1_case()
        got = levelset_decay_audit(g, f, beta, **kw).to_json()
        batch = maximal.maximal_function_batch

        def every_cell_then_mask(fields, beta, X, T, *args, **kwargs):
            full = batch(fields, beta, *fields[0].cell_centers(), *args, **kwargs)
            return full[:, in_q1]

        monkeypatch.setattr(maximal, "maximal_function_batch", every_cell_then_mask)
        assert levelset_decay_audit(g, f, beta, **kw).to_json() == got
