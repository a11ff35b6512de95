"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s` to see them all.
"""
import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest
from golden_reports import CONFIGS as GOLDEN_CONFIGS, compare_to_golden, config_path

from wparab.cli import run_experiment
from wparab.experiments import (
    ManufacturedCase,
    convergence_study,
    default_nt,
    fit_loglog_slope,
    freeze_compare_sweep,
    smooth_random_forcing,
    solve_driven,
)
from wparab.flattening import (
    b_matrix,
    b_norm_delta_sweep,
    oscillation_delta_sweep,
    pushforward_weight_audit,
    shear,
)
from wparab.geometry import (
    QT_MARGIN,
    WeightedCylinder,
    estimate_quasi_params,
    height_inverse,
    quasi_distance_batch,
    quasi_triangle_audit,
)
from wparab.maximal import (
    SpaceTimeField,
    five_rho_cover_audit,
    levelset_decay_audit,
    vitali_select,
    weak_1_1_audit,
)
from wparab.oscillation import oscillation_supremum
from wparab.solver import apriori_ratio, energy_audit
from wparab.weights import (
    BallFamily,
    Weight,
    aq_characteristic,
    check_beta_condition,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "wparab" / "configs"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    assert passed, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_weight_characteristics(self):
        start = time.time()
        one = Weight.constant(1.0, (-1.0, 1.0))
        fam = BallFamily.default((-1.0, 1.0))
        ok = all(abs(aq_characteristic(one, q, fam) - 1.0) <= 1e-12
                 for q in (2.0, 3.0))
        sqrt_w = Weight.power(0.5, 0.0, (-1.0, 1.0))
        centered = BallFamily.centered(0.0, np.geomspace(0.05, 1.0, 16))
        a2 = aq_characteristic(sqrt_w, 2.0, centered)
        ok = ok and abs(a2 - 4.0 / 3.0) <= 1e-6
        elapsed = time.time() - start
        report("1-weight-characteristics", ok and elapsed < 1.0,
               f"A2={a2:.12f} elapsed={elapsed:.2f}s")

    def test_02_duality_identity(self):
        start = time.time()
        fam = BallFamily.default((-1.0, 1.0), n_centers=9)
        ok = True
        gaps = []
        for alpha in (0.1, 0.35, -0.25):
            w = Weight.power(alpha, 0.0, (-1.0, 1.0))
            rep = check_beta_condition(w, 50.0, fam, tol_quad=1e-6)
            dual = next(r for r in rep.rows if r.label == "duality-identity")
            gaps.append(dual.constant)
            ok = ok and dual.constant <= 1e-6
        elapsed = time.time() - start
        report("2-duality-identity", ok and elapsed < 1.0,
               f"gaps={[f'{g:.2e}' for g in gaps]} elapsed={elapsed:.2f}s")

    def test_03_geometry(self):
        start = time.time()
        # classical quasi-distance for the unit weight, 10^4 seeded pairs
        one = Weight.constant(1.0, (-1.0, 1.0))
        rng = np.random.default_rng(314159)
        X, X0 = rng.uniform(-1.0, 1.0, (2, 10000))
        T, T0 = rng.uniform(-1.0, 0.0, (2, 10000))
        got = quasi_distance_batch(one, X, T, X0, T0)
        ref = np.maximum(np.abs(X - X0), np.sqrt(np.abs(T - T0)))
        ok = bool(np.max(np.abs(got - ref)) <= 1e-12)

        # inverse height against the antiderivative closed form
        # r = ((1+a) s)^{1/(2+a)}; for a = 1 this is the (2s)^{1/3} form
        for alpha in (1.0, 0.5):
            w = Weight.power(alpha, 0.0, (-8.0, 8.0))
            for s in (0.5, 2.0, 4.0):
                r_ref = ((1.0 + alpha) * s) ** (1.0 / (2.0 + alpha))
                r_got = height_inverse(w, [0.0], s)
                ok = ok and abs(r_got - r_ref) <= 1e-8 * max(1.0, r_ref)

        # quasi-triangle at the proven constant 1 (plus QT_MARGIN), 1e5
        # triples, 3 weights
        for wspec in (Weight.constant(1.0, (-1.0, 1.0)),
                      Weight.power(0.3, 0.0, (-1.0, 1.0)),
                      Weight.power(0.45, -0.25, (-1.0, 1.0))):
            rep = quasi_triangle_audit(wspec, samples=100000, seed=271828)
            ok = ok and rep.passed and rep.rows[0].budget == 1.0 + QT_MARGIN
        elapsed = time.time() - start
        report("3-geometry", ok and elapsed < 10.0, f"elapsed={elapsed:.2f}s")

    def test_04_solver_convergence(self):
        start = time.time()
        rows1 = convergence_study(Weight.constant(1.0, (0.0, 1.0)),
                                  [32, 64, 128], 0.2,
                                  use=lambda *_: None)
        orders1 = [r["order"] for r in rows1[1:]]
        rows2 = convergence_study(Weight.power(0.2, 0.5, (0.0, 1.0)),
                                  [32, 64, 128], 0.2,
                                  use=lambda *_: None)
        orders2 = [r["order"] for r in rows2[1:]]
        ok = min(orders1) >= 1.9 and min(orders2) >= 1.0
        elapsed = time.time() - start
        report("4-solver-convergence", ok and elapsed < 60.0,
               f"unit-orders={[f'{o:.2f}' for o in orders1]} "
               f"power-orders={[f'{o:.2f}' for o in orders2]} "
               f"elapsed={elapsed:.1f}s")

    def test_05_energy_audit(self):
        start = time.time()
        beta = Weight.constant(1.0, (0.0, 1.0))
        case = ManufacturedCase(beta)
        inner = WeightedCylinder(0.5, 0.25, 0.1875, beta, variant="Q")
        outer = WeightedCylinder(0.5, 0.25, 0.25, beta, variant="Q")
        consts = []
        u_mid = None
        for nx in (32, 64, 128):
            u, _ = case.solve(nx, nx * nx // 4, 0.25)
            consts.append(energy_audit(u, inner, outer, math.inf).rows[0].constant)
            if nx == 64:
                u_mid = u
        spread = (max(consts) - min(consts)) / min(consts)
        n_plain = energy_audit(u_mid, inner, outer, math.inf).rows[0].constant
        n_scaled = energy_audit(u_mid.scaled(7.25), inner, outer, math.inf).rows[0].constant
        scale_gap = abs(n_plain - n_scaled) / n_plain
        ok = spread < 0.10 and scale_gap <= 1e-10
        elapsed = time.time() - start
        report("5-energy-audit", ok and elapsed < 60.0,
               f"spread={spread:.3f} scale_gap={scale_gap:.2e} "
               f"elapsed={elapsed:.1f}s")

    def test_06_apriori_ratio(self):
        start = time.time()
        forcing = smooth_random_forcing(11)
        ok = True
        details = []
        for beta in (Weight.constant(1.0, (0.0, 1.0)),
                     Weight.power(0.2, 0.5, (0.0, 1.0))):
            sols = {}
            for nx in (32, 64, 128):
                sols[nx] = solve_driven(beta, forcing, nx=nx, nt=default_nt(nx, 0.25),
                                        t_final=0.25, a_fun=lambda x, t: 1.0)
            for p in (2.0, 4.0):
                ratios = [apriori_ratio(sols[nx], p) for nx in (32, 64, 128)]
                spread = (max(ratios) - min(ratios)) / min(ratios)
                bounded = max(ratios) < 50.0
                if p == 2.0:
                    ok = ok and spread < 0.10 and bounded
                else:
                    # the p = 4 row binds only when the smallness gate holds
                    # for the unit conductivity of the solves
                    gate = oscillation_supremum(
                        lambda x, t: 1.0, beta, 0.5, 0.25, (0.0, 1.0, 0.0, 0.25))
                    if gate.passed:
                        ok = ok and spread < 0.10 and bounded
                details.append(f"p{p:g}:{spread:.3f}")
        elapsed = time.time() - start
        report("6-apriori-ratio", ok and elapsed < 300.0,
               f"spreads={details} elapsed={elapsed:.1f}s")

    def test_07_freeze_compare_sweep(self):
        start = time.time()
        beta = Weight.constant(1.0, (0.0, 1.0))
        amplitudes = [0.4, 0.2, 0.1, 0.05, 0.0]
        rows = freeze_compare_sweep(beta, amplitudes)
        eps = [r["eps_emp"] for r in rows]
        nonzero, baseline = eps[:-1], eps[-1]
        decreasing = all(b < a for a, b in zip(nonzero, nonzero[1:]))
        near_floor = nonzero[-1] <= 2.0 * baseline
        elapsed = time.time() - start
        report("7-freeze-compare-sweep",
               decreasing and near_floor and elapsed < 300.0,
               f"eps={[f'{e:.4f}' for e in eps]} "
               f"ratio={nonzero[-1] / baseline:.2f} elapsed={elapsed:.1f}s")

    def test_08_maximal_levelset(self):
        start = time.time()
        beta = Weight.constant(1.0, (0.0, 1.0))
        ok = True
        for seed in range(5):
            rng = np.random.default_rng(seed)
            field = SpaceTimeField(np.linspace(0.0, 1.0, 17),
                                   np.linspace(-1.0, 0.0, 17),
                                   rng.random((16, 16)))
            rep, = weak_1_1_audit([field], beta, [0.25, 0.5, 1.0, 2.0],
                                  budget=100.0)
            ok = ok and rep.passed
        for fam_seed in (97, 98):
            rng = np.random.default_rng(fam_seed)
            cyls = [WeightedCylinder(rng.uniform(0.1, 0.9), rng.uniform(-0.8, -0.2),
                                     float(rng.uniform(0.02, 0.15)), beta, variant="C")
                    for _ in range(100)]
            cover = five_rho_cover_audit(cyls, vitali_select(cyls), beta)
            ok = ok and cover.passed

        case = ManufacturedCase(beta)
        u, _ = case.solve(64, 1024, 0.25)
        decay = levelset_decay_audit(
            u.gradient_squared_field(), u.forcing_squared_field(), beta,
            K=4.0, q0=0.5, m_max=5,
            quasi=estimate_quasi_params(beta), center=0.5, t_top=0.25,
            r_unit=0.1, delta_hat=0.05)
        table = decay.params["table"]
        lhs = [row[1] for row in table]
        monotone = all(b <= a for a, b in zip(lhs, lhs[1:]))
        gamma1 = table[0][3] if table else math.inf
        ok = ok and decay.passed and monotone and math.isfinite(gamma1)
        elapsed = time.time() - start
        report("8-maximal-levelset", ok and elapsed < 60.0,
               f"gamma1={gamma1:.3g} elapsed={elapsed:.1f}s")

    def test_09_flattening(self):
        start = time.time()
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, (200, 2))
        ok = True
        for delta in (0.05, 0.2, 0.9):
            back = shear(delta, shear(-delta, pts))
            ok = ok and bool(np.max(np.abs(back - pts)) <= 1e-15 * 4.0)
        delta = 0.3
        B = b_matrix(delta, np.eye(2))
        ok = ok and np.allclose(B, [[0.0, -delta], [-delta, delta ** 2]],
                                atol=1e-15)
        b_rows = b_norm_delta_sweep([0.05, 0.1, 0.2])
        slope_b = fit_loglog_slope([r["delta"] for r in b_rows],
                                   [r["b_norm"] for r in b_rows])
        ok = ok and slope_b >= 0.9
        beta2 = Weight.power(0.1, (0.0, 0.0), ((-1.0, 1.0), (-1.0, 1.0)))
        fam2 = BallFamily.default(((-1.0, 1.0), (-1.0, 1.0)),
                                  n_centers=5, n_radii=8)
        wrep = pushforward_weight_audit(0.2, beta2, 10.0, fam2, shape=(32, 32))
        ok = ok and wrep.rows[0].passed
        osc_rows = oscillation_delta_sweep([0.05, 0.1, 0.2])
        slope_o = fit_loglog_slope([r["delta"] for r in osc_rows],
                                   [r["oscillation_sq"] for r in osc_rows])
        ok = ok and slope_o >= 1.8
        elapsed = time.time() - start
        report("9-flattening", ok and elapsed < 30.0,
               f"b-exponent={slope_b:.2f} osc-exponent={slope_o:.2f} "
               f"elapsed={elapsed:.1f}s")

    def test_10_determinism(self, traced_golden_runs, tmp_path):
        # run a against the committed goldens, run b byte-for-byte against a;
        # run a is the traced, fork-free run that the reachability test reads
        traced, record = traced_golden_runs
        start = time.time()
        ok = True
        drift: list[str] = []
        for config in GOLDEN_CONFIGS:
            outs = [traced / config, tmp_path / config]
            ok = ok and record["exit"][config] == 0
            code = run_experiment(str(config_path(config)), str(outs[1]))
            ok = ok and code == 0
            drift += compare_to_golden(outs[0], config)
            files_a = sorted(p.name for p in outs[0].iterdir())
            files_b = sorted(p.name for p in outs[1].iterdir())
            ok = ok and files_a == files_b
            for name in files_a:
                same = filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
                ok = ok and same
        elapsed = time.time() - start
        report("10-determinism", ok and not drift,
               f"golden-drift={drift[:3]} elapsed={elapsed:.1f}s")
