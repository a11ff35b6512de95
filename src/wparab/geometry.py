"""Weighted parabolic cylinders and the quasi-distance they induce.

For a weight b and center x0 the time-height profile is

    Psi_{b,x0}(r) = ((b^{n0/2})_{B_r(x0)})^{2/n0},    n0 = max{n, 2},

and the cylinder of radius r at z0 = (x0, t0) occupies B_r(x0) times the
backward interval of length h_{x0}(r) = r^2 Psi_{b,x0}(r). In one dimension
h_{x0}(r) = r * b(B_r(x0)) / 2. The map h_{x0} is strictly increasing, and
its inverse converts time gaps into spatial radii:

    rho_b(z, z0) = max{ |x - x0|, h^{-1}(|t - t0|) },

with the inverse-height anchored at the spatial coordinate of whichever
point has the later time. The paper proves a triangle inequality up to

    Lambda = max{ 2^{1/(2 zeta0)} * N2^{1/(n zeta0)}, 2 },

where (zeta0, N2) quantify how the measure b^{n0/2} shrinks on nested sets.
Every weight here is 1D, and there rho_b is a metric (the README's geometry
section has the proof), so the quasi-triangle audit checks the constant 1;
Lambda sizes the level-set audit's enlarged cylinder.

Heights and their inverse take 1D weights only; a 2D weight raises
ValueError. The inverse height is a safeguarded Newton iteration per point,
in log-log variables (h' = h/r + r (b(x0 + r) + b(x0 - r))/2). It starts at
the root sqrt(s / b(x0)) of the small-ball model h(r) = b(x0) r^2, searches
upward (Newton steps, doubling to 1 at least where a step is rejected) until
a height reaches s, and then keeps to the bracket it has found, falling back
to bisection. Every radius it returns is the midpoint of a bracket [lo, hi]
with h(lo) < s <= h(hi) and hi - lo <= tol * hi, and depends only on its
own (x0, s), not on the other points of the call.

A pair whose time gap lies within the height of a slightly shorter spatial
gap, |t - t0| <= h(|x - x0| (1 - SCREEN_MARGIN)), gets rho_b = |x - x0|
without an inversion, provided |x - x0| is at least SCREEN_FLOOR of the
domain width: h is increasing, so the bracket's midpoint lies below
|x - x0| (1 - SCREEN_MARGIN) / (1 - TOL_BISECT) < |x - x0|, and the max
would discard it. Only the other pairs are inverted, with the same bits.

Analytic (power) weights extend beyond their stated domain; sampled weights
are extended by zero, so their height map can plateau and the inversion
reports NoBracket past the reachable range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import draws
from .errors import NoBracket
from .report import AuditReport, AuditRow
from .weights import N0, BallFamily, Weight, ball_grid

TOL_BISECT = 1e-10
MAX_BISECT = 80
# Iteration cap of the safeguarded Newton inversion: room for a bisection
# on every other step of a full-length bisection.
MAX_NEWTON = 2 * MAX_BISECT
# Largest radius the inversion tries: a height the weight does not reach by
# then raises NoBracket.
MAX_RADIUS = 2.0 ** 60
# Points per block of the vectorized inversion: small enough that one
# block's height evaluation stays in cache.
BISECT_BLOCK = 8192
# Triples per block of the quasi-triangle audit: a few MB whatever the sample
# count, and a multiple of the screen blocks of quasi_distance_batch.
TRIPLE_BLOCK = 4 * BISECT_BLOCK
# Relative shrink of the spatial gap before the screen in
# quasi_distance_batch compares heights: far above TOL_BISECT, so a screened
# pair's inverse height lies strictly below its spatial gap.
SCREEN_MARGIN = 1e-6
# Smallest screened spatial gap, as a fraction of the domain width: heights of
# smaller radii lose digits to cancellation in the mass (about 1e-10 relative
# at r = 1e-6), which must stay far below SCREEN_MARGIN.
SCREEN_FLOOR = 1e-6
# Budget of the quasi-triangle ratio above its proven value 1. An inverted
# distance is the midpoint of a bracket [lo, hi] with hi - lo <= TOL_BISECT hi,
# so it lies within about TOL_BISECT / 2 of its root, relative. The main leg
# can read that much high and each side leg that much low, so a computed
# ratio reads at most about 1 + TOL_BISECT; the rest of the margin covers the
# rounding of the masses at the radii the audit inverts.
QT_MARGIN = 10 * TOL_BISECT


def height(beta: Weight, x0, r) -> np.ndarray:
    """Cylinder heights h_{x0}(r) = r^2 Psi_{beta,x0}(r) of a 1D weight,
    broadcast over ``x0`` and ``r``; h = 0 where r <= 0, and h = inf where
    the mass or r^2 overflows (r above about 1e154). Every call in the
    package keeps r at or below ``MAX_RADIUS``."""
    _check_1d(beta)
    x0 = np.asarray(x0, dtype=float)
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        return _height_of_mass(r, beta.mass_1d_vec(N0 / 2.0, x0 - r, x0 + r))


def _check_1d(beta: Weight) -> None:
    if beta.n != 1:
        raise ValueError("cylinder heights take a 1D weight")


def _height_of_mass(r: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """h = r^2 (mass / 2r)^{2/n0} from the mass of beta^{n0/2} over B_r."""
    # r <= 0 maps to 0, and an overflow to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = r ** 2 * (mass / (2.0 * r)) ** (2.0 / N0)
    return np.where(r > 0.0, h, 0.0)


def _height_and_ends(beta: Weight, x0: np.ndarray, r: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The bits of ``height(beta, x0, r)`` and of ``beta(x0 + r) +
    beta(x0 - r)`` for arrays ``x0`` and ``r > 0`` of one shape, from one
    :meth:`Weight.ball_ends` call."""
    mass, left, right = beta.ball_ends(N0 / 2.0, x0, r)
    return _height_of_mass(r, mass), right + left


def height_inverse(beta: Weight, x0, s: float, tol: float = TOL_BISECT) -> float:
    """The r with h_{x0}(r) = s: a one-point call of :func:`height_inverse_vec`."""
    return float(height_inverse_vec(beta, np.atleast_1d(np.asarray(x0, float))[:1],
                                    np.array([s], dtype=float), tol)[0])


def height_inverse_vec(beta: Weight, x0: np.ndarray, s: np.ndarray,
                       tol: float = TOL_BISECT) -> np.ndarray:
    """Vectorized inverse heights for 1D weights: the r with h_{x0}(r) = s.

    Each point starts at r0 = sqrt(s / beta(x0)), the root of the
    small-ball model h(r) = beta(x0) r^2, or at 1 where r0 is not in (0, 1]
    (beta(x0) = 0 or infinite, say). If h(r0) >= s, r0 is the top of its
    bracket [0, r0]; otherwise the bracket [r0, inf) has no top yet, and the
    point searches upward with the same Newton steps, doubling r (to 1 at
    least: a tiny start can sit where the computed h is 0) where a step is
    rejected, until a height reaches s. Inside the bracket it runs
    Newton's method on log h(r) = log s in log r, safeguarded as in
    Numerical Recipes' ``rtsafe``: an iterate that leaves the open bracket,
    or a step that fails to halve the step from two iterations earlier,
    becomes a bisection. Once the Newton step falls below tol * r / 4, the
    next evaluation probes the far side of the root (first at the Newton
    step's distance, at least tol * r / 256, then 4 times further after
    each probe that does not cross, up to tol * r / 4), so the bracket
    closes. Each result is the midpoint of a bracket [lo, hi] with
    h(lo) < s <= h(hi) and hi - lo <= tol * hi, and 0 where s == 0.

    Points stop on their own and run in blocks of ``BISECT_BLOCK`` (the
    heights stay cache-sized), so a result depends only on that point's
    (x0, s), never on the other points of the call. NaN or negative ``s``
    raise ``ValueError``; a height the weight does not reach by the radius
    ``MAX_RADIUS`` raises ``NoBracket``.
    """
    _check_1d(beta)
    x0 = np.asarray(x0, dtype=float)
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError("height values must be non-negative numbers")
    out = np.zeros(s.shape)
    active = np.flatnonzero(s > 0.0)
    for k in range(0, active.size, BISECT_BLOCK):
        b = active[k:k + BISECT_BLOCK]
        out.reshape(-1)[b] = _newton_block(beta, x0.take(b), s.take(b), tol)
    return out


def _newton_block(beta: Weight, x0: np.ndarray, s: np.ndarray,
                  tol: float) -> np.ndarray:
    """Inverse heights of one block of points with s > 0, as described in
    :func:`height_inverse_vec`. Each evaluation takes the height and the two
    end values of the Newton slope from one :func:`_height_and_ends` call."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.sqrt(s / beta(x0))  # the root of the model h(r) = beta(x0) r^2
        r[~((r > 0.0) & (r <= 1.0))] = 1.0  # NaN and infinite starts included
        h, ends = _height_and_ends(beta, x0, r)
        below = h < s
        lo, hi = np.where(below, r, 0.0), np.where(below, np.inf, r)  # inf: no bracket
        searching = bool(below.any())
        out = np.empty_like(s)
        pos = np.arange(s.size)  # where each remaining point goes in ``out``
        log_s = np.log(s)
        step = step_old = np.full_like(s, np.inf)  # the last two steps taken
        reach = 0.0  # distance of the last step where it was a probe
        for _ in range(MAX_NEWTON):
            done = hi - lo <= tol * hi
            if searching:
                done &= hi < np.inf
            if done.any():
                fin, keep = np.flatnonzero(done), np.flatnonzero(~done)
                out[pos.take(fin)] = 0.5 * (lo.take(fin) + hi.take(fin))
                if not keep.size:
                    return out
                pos, x0, s, log_s, lo, hi, r, h, ends, step, step_old = (
                    a.take(keep)
                    for a in (pos, x0, s, log_s, lo, hi, r, h, ends, step, step_old))
                reach = reach.take(keep) if np.ndim(reach) else reach
            # d log h / d log r = r h'(r) / h(r) with n0 = 2 in 1D, where
            # ends = beta(x0 + r) + beta(x0 - r); a zero height gives NaN
            # here and so a bisection or a doubling below
            slope = 1.0 + r * r * ends / (2.0 * h)
            nxt = r * np.exp((log_s - np.log(h)) / slope)
            dr = np.abs(nxt - r)
            cap = 0.25 * tol * r
            probe = dr < cap
            if probe.any():
                reach = np.where(probe, np.minimum(np.maximum(np.maximum(dr, cap / 64.0),
                                                              4.0 * reach), cap), 0.0)
                nxt = np.where(probe, nxt + np.where(h < s, reach, -reach), nxt)
            else:
                reach = 0.0
            newton = (nxt > lo) & (nxt < hi) & (2.0 * dr <= np.abs(step_old))
            if not newton.all():  # bisect, or double r (to 1 at least) while it has no bracket
                nxt = np.where(newton, nxt, np.where(hi < np.inf, 0.5 * (lo + hi),
                                                     np.maximum(2.0 * lo, 1.0)))
                reach = np.where(newton, reach, 0.0)
            if searching:
                np.minimum(nxt, MAX_RADIUS, out=nxt)
            step_old, step = step, nxt - r
            r = nxt
            h, ends = _height_and_ends(beta, x0, r)
            below = h < s
            lo, hi = np.where(below, r, lo), np.where(below, hi, r)
            if searching and np.any(lo >= MAX_RADIUS):
                break
            searching = searching and bool(np.any(hi == np.inf))
    if searching:
        raise NoBracket("height never reaches a requested value")
    out[pos] = 0.5 * (lo + hi)
    return out


def _screen(beta: Weight, X: np.ndarray, T: np.ndarray, X0: np.ndarray,
            T0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The screen of :func:`quasi_distance_batch` on flat arrays: (|X - X0|,
    need, base, gap), with the anchors and time gaps of the pairs ``need``
    marks, those whose inverse height may exceed |X - X0|."""
    base, gap, dx = np.where(T <= T0, X0, X), np.abs(T - T0), np.abs(X - X0)
    (lo, hi), = beta.domain[:1]
    need = np.empty(dx.shape, dtype=bool)
    for k in range(0, dx.size, BISECT_BLOCK):
        b = slice(k, k + BISECT_BLOCK)
        reach = height(beta, base[b], dx[b] * (1.0 - SCREEN_MARGIN))
        # written as a negation so that a NaN gap is inverted, and raises there
        need[b] = ~((dx[b] >= SCREEN_FLOOR * (hi - lo)) & (gap[b] <= reach))
    return dx, need, base[need], gap[need]


def quasi_distance_batch(beta: Weight, X: np.ndarray, T: np.ndarray,
                         X0: np.ndarray, T0: np.ndarray) -> np.ndarray:
    """Vectorized quasi-distances for 1D weights, with the bits of
    ``max(|x - x0|, height_inverse_vec(...))`` for every pair. A pair that
    :func:`_screen` settles (see the module docstring) gets |x - x0|; every
    other pair, NaN gaps included, goes to one :func:`height_inverse_vec` call.
    """
    X, T, X0, T0 = np.broadcast_arrays(*(np.asarray(a, float)
                                         for a in (X, T, X0, T0)))
    dx, need, base, gap = _screen(beta, *(a.ravel() for a in (X, T, X0, T0)))
    dx[need] = np.maximum(dx[need], height_inverse_vec(beta, base, gap))
    return dx.reshape(X.shape)


@dataclass
class WeightedCylinder:
    """A weighted parabolic cylinder of a 1D weight at the centre
    z0 = (x0, t0): backward Q, centered C, or half Q+.

    The backward variant occupies B_r(x0) x (t0 - h, t0], the centered one
    B_r(x0) x (t0 - h/2, t0 + h/2), with h = r^2 Psi_{beta,x0}(r). The half
    variant intersects the space slice with {x_n > 0}.
    """

    x0: float
    t0: float
    r: float
    beta: Weight
    variant: str = "Q"

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError("cylinder radius must be positive")
        if self.variant not in ("Q", "C", "Q+"):
            raise ValueError(f"unknown cylinder variant {self.variant!r}")
        self.h = height(self.beta, self.x0, self.r).item()

    @property
    def t_interval(self) -> tuple[float, float]:
        t0 = self.t0
        if self.variant == "C":
            return (t0 - 0.5 * self.h, t0 + 0.5 * self.h)
        return (t0 - self.h, t0)

    @property
    def x_interval(self) -> tuple[float, float]:
        lo, hi = self.x0 - self.r, self.x0 + self.r
        if self.variant == "Q+":
            lo = max(lo, 0.0)
        return (lo, hi)

    def region(self) -> tuple[float, float, float, float]:
        """(a, b, s, e): the spatial interval and the time interval."""
        return (*self.x_interval, *self.t_interval)

    def contains(self, x, t, tol) -> np.ndarray:
        """Membership of the points (x, t) with closed comparisons on the
        boundary, widened by ``tol``; broadcast over ``x``, ``t`` and
        ``tol``."""
        x, t, tol = (np.asarray(v, dtype=float) for v in (x, t, tol))
        lo, hi = self.x_interval
        t_lo, t_hi = self.t_interval
        return ((lo - tol <= x) & (x <= hi + tol)
                & (t_lo - tol <= t) & (t <= t_hi + tol))


@dataclass(frozen=True)
class QuasiMetricParams:
    """Quasi-triangle constants of a 1D weight: zeta0 in (0, 1), N2 > 1."""

    zeta0: float
    N2: float

    @property
    def Lambda(self) -> float:
        return max(2.0 ** (1.0 / (2.0 * self.zeta0))
                   * self.N2 ** (1.0 / self.zeta0), 2.0)


def estimate_quasi_params(beta: Weight) -> QuasiMetricParams:
    """Fit (zeta0, N2) from measured nested-ball mass ratios of a 1D weight.

    For nested balls S1 in S2 (S2 from a 5-centre, 8-radius default
    family on the weight's domain) collects m = w(S1)/w(S2) against
    s = |S1|/|S2| with w = beta^{n0/2}, then picks the zeta0 on a grid
    whose implied N2 = max(m / s^zeta0) minimizes the resulting Lambda.
    S1 is centred in S2 or touches either end; each set of masses is one call.
    """
    if beta.n != 1:
        raise ValueError("the quasi-parameter fit takes a 1D weight")
    fam = BallFamily.default(beta.domain, n_centers=5, n_radii=8)
    p = N0 / 2.0
    c, r = ball_grid(fam.centers, fam.radii)
    x = c[:, 0]
    m2 = beta.mass_1d_vec(p, x - r, x + r)
    fractions = np.array([0.15, 0.3, 0.5, 0.75])
    r1 = fractions * r[:, None]  # (balls, fractions)
    gap = r[:, None] - r1
    x1 = x[:, None, None] + np.stack([np.zeros_like(gap), gap, -gap], axis=-1)
    r1 = np.broadcast_to(r1[..., None], x1.shape)
    m1 = beta.mass_1d_vec(p, x1 - r1, x1 + r1)
    keep = ~(m2[:, None, None] <= 0.0) & (m1 > 0.0)
    if not keep.any():
        raise ValueError("no usable nested-ball pairs in the family")
    s_arr = np.broadcast_to(fractions[:, None], x1.shape)[keep]
    m_arr = m1[keep] / np.broadcast_to(m2[:, None, None], x1.shape)[keep]
    fits = [QuasiMetricParams(float(z), max(float(np.max(m_arr / s_arr ** z)), 1.0 + 1e-9))
            for z in np.linspace(0.05, 0.95, 19)]
    return min(fits, key=lambda q: q.Lambda)  # the first of the smallest Lambda


def _adversarial_triples(lo: float, hi: float,
                         t_span: float) -> tuple[np.ndarray, np.ndarray]:
    """Structured triples probing the bottom-of-cylinder regime.

    The direct leg runs straight down in time from z0 while the
    intermediate point sits just below the top at a different spatial
    location, so the two legs are measured with mixed height bases. These
    configurations drive the quasi-triangle constant; uniform sampling
    almost never lands on them.
    """
    x_grid = np.linspace(lo, hi, 13)
    t_grid = np.geomspace(1e-4 * t_span, t_span, 10)
    x0, x1, tg = (a.ravel() for a in np.meshgrid(x_grid, x_grid, t_grid, indexing="ij"))
    return (np.column_stack([x0, x1, x0]),
            np.column_stack([np.zeros_like(tg), -(1e-6 * tg), -tg]))


def quasi_triangle_audit(beta: Weight, samples: int, seed: int) -> AuditReport:
    """Empirical triangle check of the quasi-distance on seeded triples.

    Draws random triples (z0, z1, zbar), with times down to minus the
    height of the half-domain ball at the domain's centre, plus a
    deterministic adversarial batch, computes the worst ratio
    rho(z0, zbar) / (rho(z0, z1) + rho(z1, zbar)), and passes iff it does
    not exceed 1 + ``QT_MARGIN``: in 1D rho is a metric. Degenerate triples
    contribute ratio 0; the first worst triple is reported. The x and the t
    of the random triples come from two keyed streams of the seed
    (:mod:`.draws`), triple j from counters 3j to 3j + 2 of each. The
    triples are walked in blocks of ``TRIPLE_BLOCK``, each leg measured by
    :func:`quasi_distance_batch`, so memory does not grow with ``samples``.
    """
    (lo, hi), = beta.domain[:1]
    t_span = height(beta, 0.5 * (lo + hi), 0.5 * (hi - lo)).item()
    xs_adv, ts_adv = _adversarial_triples(lo, hi, t_span)
    total = samples + len(xs_adv)
    key_x, key_t = (draws.key(seed, label) for label in ("triangle-x", "triangle-t"))
    best = []
    for a in range(0, total, TRIPLE_BLOCK):
        b = min(a + TRIPLE_BLOCK, total)
        n_rand = max(min(b, samples) - a, 0)
        adv = slice(max(a - samples, 0), max(b - samples, 0))
        xs = np.vstack([draws.uniform(key_x, lo, hi, (n_rand, 3), start=3 * a),
                        xs_adv[adv]])
        ts = np.vstack([draws.uniform(key_t, -t_span, 0.0, (n_rand, 3), start=3 * a),
                        ts_adv[adv]])
        # the main leg (z0, zbar), then the side legs (z0, z1) and (z1, zbar)
        main, side1, side2 = (quasi_distance_batch(beta, xs[:, i], ts[:, i],
                                                   xs[:, j], ts[:, j])
                              for i, j in ((2, 0), (1, 0), (2, 1)))
        denom = side1 + side2
        ratios = np.where(denom > 0.0, main / np.where(denom > 0.0, denom, 1.0), 0.0)
        i = int(np.argmax(ratios))
        best.append((float(ratios[i]), xs[i].tolist(), ts[i].tolist()))
    # the first block to reach the largest maximum holds the first worst triple
    max_ratio, x, t = best[int(np.argmax([b[0] for b in best]))]
    row = AuditRow.at_most(
        "quasi-triangle-ratio", max_ratio, 1.0 + QT_MARGIN,
        extra={"worst_triple": {k: [x[j], t[j]]
                                for j, k in enumerate(("z0", "z1", "zbar"))}})
    return AuditReport.from_rows(
        "quasi-triangle-inequality", [row],
        params={"samples": samples, "t_span": t_span}, seed=seed)


def cylinder_relations_audit(beta: Weight, x0: float, t0: float, r: float) -> AuditReport:
    """Containment relations between cylinders and quasi-distance balls.

    Checks on a deterministic 25 x 25 lattice, to a relative tolerance of
    1e-9: Q_r(z0) sits inside {rho <= r}, {rho <= r} sits inside the closure
    of C_{2r}(z0), and every point of C_r(z0) is within quasi-distance 2r
    of z0.
    """
    nx, nt, tol = 25, 25, 1e-9
    failures: list[dict] = []

    def lattice_rho(xlo, xhi, tlo, thi):
        """The nx x nt lattice of a box and its quasi-distances to z0."""
        mx, mt = np.meshgrid(np.linspace(xlo, xhi, nx), np.linspace(tlo, thi, nt))
        px, pt = mx.ravel(), mt.ravel()
        return px, pt, quasi_distance_batch(beta, px, pt, np.full_like(px, x0),
                                            np.full_like(pt, t0))

    def n_farther(cyl: WeightedCylinder, bound: float, relation: str) -> int:
        """Lattice points of ``cyl`` farther than ``bound`` from z0; the
        farthest one goes to ``failures``."""
        px, pt, d = lattice_rho(*cyl.region())
        n_bad = int(np.sum(d > bound * (1.0 + tol)))
        if n_bad:
            i = int(np.argmax(d))
            failures.append({"relation": relation, "x": float(px[i]),
                             "t": float(pt[i]), "rho": float(d[i])})
        return n_bad

    # Q_r(z0) subset {rho <= r}
    n_bad_1 = n_farther(WeightedCylinder(x0, t0, r, beta, variant="Q"), r,
                        "cylinder-in-ball")
    # {rho <= r} subset closure(C_{2r}(z0)): lattice B_r(x0) over twice the
    # time span of C_{2r}, so that points outside C_{2r} are tested too
    c2 = WeightedCylinder(x0, t0, 2.0 * r, beta, variant="C")
    px, pt, d = lattice_rho(x0 - r, x0 + r, t0 - c2.h, t0 + c2.h)
    out = (d <= r * (1.0 + tol)) & ~c2.contains(
        px, pt, tol=tol * np.maximum(1.0, np.abs(pt)))
    n_bad_2 = int(np.count_nonzero(out))
    failures += [{"relation": "ball-in-centered", "x": float(xx), "t": float(tt)}
                 for xx, tt in zip(px[out], pt[out])]
    # C_r(z0): all points within quasi-distance 2r
    n_bad_3 = n_farther(WeightedCylinder(x0, t0, r, beta, variant="C"), 2.0 * r,
                        "centered-within-2r")

    rows = [AuditRow.count(label, n)
            for label, n in (("cylinder-in-ball", n_bad_1),
                             ("ball-in-centered-cylinder", n_bad_2),
                             ("centered-cylinder-within-2r", n_bad_3))]
    return AuditReport.from_rows(
        "cylinder-ball-relations", rows,
        params={"r": r, "z0": [[x0], t0], "lattice": [nx, nt],
                "failures": failures[:5]})

