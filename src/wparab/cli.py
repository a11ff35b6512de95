"""Batch experiment runner.

Subcommands select audit groups (weights, geometry, solve, audit, levelset,
flatten, all); each takes --config, --out, and --seed. Every audit writes
one JSON report; sweeps additionally write CSV tables and static SVG plots.
Exit codes: 0 all selected audits passed, 1 an audit failed (reports are
still written), 2 configuration error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import KNOWN_GROUPS, ExperimentConfig
from .errors import ConfigError, ToolkitError
from .experiments import (
    ManufacturedCase,
    convergence_study,
    fit_loglog_slope,
    freeze_compare_sweep,
    smooth_random_forcing,
    solve_driven,
)
from .flattening import (
    BoundaryChart,
    admissible_radius_search,
    b_norm_delta_sweep,
    inclusion_audit,
    oscillation_delta_sweep,
    pushforward_coefficients,
    pushforward_weight_audit,
)
from .geometry import (
    SpaceTimePoint,
    WeightedCylinder,
    cylinder_relations_audit,
    estimate_quasi_params,
    quasi_triangle_audit,
)
from .inequalities import (
    SpaceTimeTestFunction,
    TestFunction,
    interpolation_audit,
    weighted_embedding_audit,
    weighted_lq_control_audit,
)
from .maximal import (
    SpaceTimeField,
    five_rho_cover_audit,
    levelset_decay_audit,
    vitali_select,
    weak_1_1_audit,
)
from .oscillation import OscillationConfig, oscillation_supremum
from .report import AuditReport, AuditRow, write_csv, write_json, write_svg_curves
from .solver import (
    FrozenProblem,
    apriori_ratio,
    energy_audit,
    lipschitz_audit,
    poincare_audit,
    solve_frozen,
    time_shift_audit,
    write_solution_binary,
    write_solution_csv,
)
from .weights import (
    BallFamily,
    Weight,
    WeightContext,
    check_beta_condition,
    doubling_report,
    reverse_holder_gamma,
)


def _ctx_for(cfg: ExperimentConfig) -> WeightContext:
    m0 = float(cfg.audit_params("weights").get("M0", 10.0))
    return WeightContext(n=1, M0=m0)


def run_weights(cfg: ExperimentConfig, seed: int) -> list[AuditReport]:
    w = cfg.build_weight()
    ctx = _ctx_for(cfg)
    params = cfg.audit_params("weights")
    fam = BallFamily.default(w.domain, n_centers=int(params.get("n_centers", 9)))
    reports = [check_beta_condition(w, ctx, fam,
                                    tol_quad=float(params.get("tol_quad", 1e-6)))]
    theta = float(params.get("theta", 0.5))
    reports.append(doubling_report(w, 1.0, fam, theta, ctx,
                                   n1_budget=float(params.get("n1_budget",
                                                              math.inf))))
    budget = float(params.get("rh_budget", 2.0))
    gamma = reverse_holder_gamma(w, fam, budget)
    reports.append(AuditReport.from_rows(
        "reverse-holder-exponent",
        [AuditRow(label="largest-passing-gamma", lhs=gamma, rhs=budget,
                  constant=gamma, budget=budget, passed=gamma >= 0.0)],
        params={"budget": budget}))
    return reports


def run_geometry(cfg: ExperimentConfig, seed: int) -> list[AuditReport]:
    w = cfg.build_weight()
    ctx = _ctx_for(cfg)
    params = cfg.audit_params("geometry")
    qp = estimate_quasi_params(w, ctx)
    samples = int(params.get("samples", 100000))
    reports = [quasi_triangle_audit(w, qp, samples, ctx, seed=seed)]
    lo, hi = w.domain[0]
    x0 = float(params.get("relations_x0", 0.5 * (lo + hi)))
    r = float(params.get("relations_r", 0.25 * (hi - lo)))
    reports.append(cylinder_relations_audit(
        w, SpaceTimePoint([x0], 0.0), r, ctx))
    return reports


def run_solve(cfg: ExperimentConfig, seed: int, out: Path) -> list[AuditReport]:
    w = cfg.build_weight()
    params = cfg.audit_params("solve")
    levels = [int(v) for v in params.get("levels", [32, 64, 128])]
    _, _, t_final = cfg.manufactured_grid()
    is_constant = w.kind == "power" and w.alpha == 0.0
    order_budget = float(params.get("order_min", 1.9 if is_constant else 1.0))
    rows, finest = convergence_study(w, levels, t_final=t_final)
    write_solution_csv(out / "solution.csv", finest)
    write_solution_binary(out / "solution.bin", finest)
    del finest  # not kept alive through the a-priori sweep
    write_csv(out / "convergence.csv", ["nx", "nt", "error", "order"],
              [[r["nx"], r["nt"], r["error"], r["order"]] for r in rows])
    write_svg_curves(out / "convergence.svg",
                     [("l2-error", [float(r["nx"]) for r in rows],
                       [r["error"] for r in rows])],
                     title="manufactured-solution convergence",
                     logx=True, logy=True)
    audit_rows = [AuditRow(
        label=f"order-{a['nx']}-to-{b['nx']}", lhs=b["order"], rhs=order_budget,
        constant=b["order"], budget=order_budget,
        passed=bool(b["order"] >= order_budget))
        for a, b in zip(rows, rows[1:])]
    reports = [AuditReport.from_rows(
        "manufactured-convergence", audit_rows,
        params={"levels": levels, "t_final": t_final,
                "errors": [r["error"] for r in rows]})]

    # a-priori ratio stability across refinements (one solve per level)
    p_values = [float(p) for p in params.get("p_values", [2.0, 4.0])]
    stability_budget = float(params.get("stability", 0.10))
    ratio_budget = float(params.get("ratio_budget", 50.0))
    forcing = smooth_random_forcing(seed)
    ratio_table: dict[float, list[float]] = {p: [] for p in p_values}
    for row in rows:  # the grids of the convergence study
        u = solve_driven(w, forcing, nx=row["nx"], nt=row["nt"], t_final=t_final,
                         a_fun=cfg.coefficient_fn())
        for p in p_values:
            ratio_table[p].append(apriori_ratio(u, p).ratio)
    for p in p_values:
        ratios = ratio_table[p]
        spread = (max(ratios) - min(ratios)) / min(ratios) if min(ratios) > 0 else 0.0
        rows_p = [
            AuditRow(label="ratio-bounded", lhs=max(ratios), rhs=ratio_budget,
                     constant=max(ratios), budget=ratio_budget,
                     passed=bool(max(ratios) <= ratio_budget)),
            AuditRow(label="refinement-stability", lhs=spread,
                     rhs=stability_budget, constant=spread,
                     budget=stability_budget,
                     passed=bool(spread <= stability_budget),
                     extra={"ratios": ratios}),
        ]
        reports.append(AuditReport.from_rows(
            f"apriori-ratio-p{p:g}", rows_p, params={"p": p, "levels": levels},
            seed=seed))
    return reports


def _manufactured_solution(cfg: ExperimentConfig):
    w = cfg.build_weight()
    nx, nt, t_final = cfg.manufactured_grid()
    u, _ = ManufacturedCase(w).solve(nx, nt, t_final)
    return w, u, t_final


def run_audit(cfg: ExperimentConfig, seed: int, out: Path) -> list[AuditReport]:
    ctx = _ctx_for(cfg)
    params = cfg.audit_params("audit")
    w, u, t_final = _manufactured_solution(cfg)
    lo, hi = w.domain[0]
    mask = (lo, hi, 0.0, t_final)

    osc_cfg = OscillationConfig(R0=float(params.get("R0", 0.5)),
                                delta=float(params.get("delta", 0.5)))
    reports = [oscillation_supremum(cfg.coefficient_fn(), w, osc_cfg, mask, ctx)]

    center = 0.5 * (lo + hi)
    z0 = SpaceTimePoint([center], t_final)
    r_base = float(params.get("cylinder_r", 0.125 * (hi - lo)))
    inner = WeightedCylinder(z0, 1.5 * r_base, w, ctx, variant="Q")
    outer = WeightedCylinder(z0, 2.0 * r_base, w, ctx, variant="Q")
    reports.append(energy_audit(u, inner, outer,
                                budget=float(params.get("energy_budget", 100.0))))

    cyl = WeightedCylinder(z0, 2.0 * r_base, w, ctx, variant="Q")
    reports.append(poincare_audit(u, cyl, variant="interior",
                                  budget=float(params.get("poincare_budget", 10.0))))
    bcyl = WeightedCylinder(SpaceTimePoint([lo], t_final), 2.0 * r_base, w, ctx,
                            variant="Q+")
    reports.append(poincare_audit(u, bcyl, variant="boundary",
                                  budget=float(params.get("poincare_budget", 10.0))))

    # frozen-solution Lipschitz audit on a caloric profile
    beta_bar = w.mean_global(1.0, [center], 2.0 * r_base)
    f_outer = WeightedCylinder(SpaceTimePoint([0.0], 0.0), 0.5,
                               Weight.constant(beta_bar, (-1.0, 1.0)), ctx)
    f_inner = WeightedCylinder(SpaceTimePoint([0.0], 0.0), 0.25,
                               Weight.constant(beta_bar, (-1.0, 1.0)), ctx)
    prob = FrozenProblem(beta_bar=beta_bar, a_bar=1.0,
                         x_span=f_outer.x_interval(0), t_span=f_outer.t_interval,
                         nx=48, nt=48)
    v = solve_frozen(prob, lambda x, t: np.asarray(x) ** 2 + 2.0 * t)
    reports.append(lipschitz_audit(v, f_inner, f_outer, beta_bar,
                                   budget=float(params.get("lipschitz_budget",
                                                           100.0))))

    amplitudes = [float(a) for a in params.get("freeze_amplitudes",
                                               [0.4, 0.2, 0.1, 0.05, 0.0])]
    sweep = freeze_compare_sweep(w, amplitudes)
    write_csv(out / "freeze_sweep.csv", ["amplitude", "eps_emp", "delta_emp"],
              [[r["amplitude"], r["eps_emp"], r["delta_emp"]] for r in sweep])
    write_svg_curves(out / "freeze_sweep.svg",
                     [("eps", [r["amplitude"] for r in sweep],
                       [r["eps_emp"] for r in sweep])],
                     title="gradient gap vs oscillation amplitude")
    eps = [r["eps_emp"] for r in sweep]
    nonzero = [e for a, e in zip(amplitudes, eps) if a > 0.0]
    baseline = next((e for a, e in zip(amplitudes, eps) if a == 0.0), None)
    rows = [AuditRow(label="strictly-decreasing",
                     lhs=0.0 if all(b < a for a, b in zip(nonzero, nonzero[1:]))
                     else 1.0, rhs=0.0, constant=0.0, budget=0.0,
                     passed=all(b < a for a, b in zip(nonzero, nonzero[1:])))]
    if baseline is not None and nonzero:
        ratio = nonzero[-1] / baseline if baseline > 0 else math.inf
        rows.append(AuditRow(label="smallest-amplitude-near-baseline",
                             lhs=nonzero[-1], rhs=2.0 * baseline, constant=ratio,
                             budget=2.0, passed=bool(ratio <= 2.0)))
    reports.append(AuditReport.from_rows(
        "frozen-comparison-sweep", rows,
        params={"amplitudes": amplitudes, "eps": eps}))

    phi = np.clip(1.0 - ((u.grid.x - center) / (0.35 * (hi - lo))) ** 2,
                  0.0, None) ** 2
    reports.append(time_shift_audit(
        u, phi, 2, budget=float(params.get("timeshift_budget", 10.0))))

    # weighted-inequality lab on synthetic descriptors
    lab_dom = (-1.0, 1.0)
    fam = BallFamily.default(lab_dom)
    mu = Weight.power(0.2, 0.0, lab_dom)
    g = TestFunction.polynomial([0.3, 1.0])
    g.validate_gradient(lab_dom, seed=seed)
    reports.append(weighted_lq_control_audit(
        g, mu, 2.0, (0.0, 0.0, 0.8), 0.1, ctx, fam,
        budget=float(params.get("lab_budget", 100.0))))
    reports.append(weighted_embedding_audit(
        g, mu, "low", 0.5, budget=float(params.get("lab_budget", 100.0))))
    u_fn = SpaceTimeTestFunction(TestFunction.trig(1.0, 1.0), [1.0, 1.0])
    reports.append(interpolation_audit(
        u_fn, mu, 0.0, 0.8, (0.0, 1.0),
        budget=float(params.get("lab_budget", 100.0))))
    return reports


def run_levelset(cfg: ExperimentConfig, seed: int, out: Path) -> list[AuditReport]:
    ctx = _ctx_for(cfg)
    params = cfg.audit_params("levelset")
    w, u, t_final = _manufactured_solution(cfg)
    lo, hi = w.domain[0]

    reports = []
    lambdas = [float(v) for v in params.get("lambdas", [0.25, 0.5, 1.0, 2.0])]
    budget = float(params.get("weak11_budget", 100.0))
    n_fields = int(params.get("n_fields", 5))
    for i in range(n_fields):
        rng = np.random.default_rng(seed + i)
        vals = rng.random((16, 16))
        field = SpaceTimeField(np.linspace(lo, hi, 17),
                               np.linspace(-1.0, 0.0, 17), vals)
        rep = weak_1_1_audit(field, w, lambdas, ctx, budget=budget)
        rep.check = f"maximal-weak-1-1-field{i}"
        rep.seed = seed + i
        reports.append(rep)

    rng = np.random.default_rng(seed + 100)
    n_cyl = int(params.get("n_cylinders", 100))
    cyls = [WeightedCylinder(
        SpaceTimePoint([rng.uniform(lo + 0.1, hi - 0.1)],
                       rng.uniform(-0.8, -0.2)),
        float(rng.uniform(0.02, 0.15)), w, ctx, variant="C")
        for _ in range(n_cyl)]
    fam = vitali_select(cyls, w)
    cover = five_rho_cover_audit(fam, w, ctx)
    cover.seed = seed + 100
    reports.append(cover)

    grad_sq = u.gradient_squared_field()
    force_sq = u.forcing_squared_field()
    decay = levelset_decay_audit(
        grad_sq, force_sq, w, K=float(params.get("K", 4.0)),
        q0=float(params.get("q0", 0.5)), m_max=int(params.get("m_max", 5)),
        ctx=ctx, center=0.5 * (lo + hi), t_top=t_final,
        r_unit=float(params.get("r_unit", 0.1)),
        delta_hat=float(params.get("delta_hat", 0.05)))
    table = decay.params.get("table", [])
    write_csv(out / "levelset_decay.csv", ["m", "lhs", "rhs", "gamma1_fit"],
              table)
    if table:
        write_svg_curves(out / "levelset_decay.svg",
                         [("lhs", [r[0] for r in table], [r[1] for r in table]),
                          ("rhs", [r[0] for r in table], [r[2] for r in table])],
                         title="level-set decay")
    reports.append(decay)
    return reports


def run_flatten(cfg: ExperimentConfig, seed: int, out: Path) -> list[AuditReport]:
    params = cfg.audit_params("flatten")
    deltas = [float(d) for d in params.get("deltas", [0.05, 0.1, 0.2])]
    alpha = float(params.get("alpha", 0.1))
    m0 = float(params.get("M0", 10.0))
    ctx2 = WeightContext(n=2, M0=m0)
    dom2 = ((-1.0, 1.0), (-1.0, 1.0))

    chart = BoundaryChart(kind="affine", delta=deltas[-1])
    reports = [inclusion_audit(chart, [0.2, 0.1], 0.5)]
    _, _, coef_rep = pushforward_coefficients(chart, lambda x, t: np.eye(2), 0.5)
    reports.append(coef_rep)

    b_rows = b_norm_delta_sweep(deltas)
    slope_b = fit_loglog_slope([r["delta"] for r in b_rows],
                               [r["b_norm"] for r in b_rows])
    osc_rows = oscillation_delta_sweep(deltas, ctx2)
    slope_o = fit_loglog_slope([r["delta"] for r in osc_rows],
                               [r["oscillation_sq"] for r in osc_rows])
    write_csv(out / "flatten_sweeps.csv",
              ["delta", "b_norm", "oscillation_sq"],
              [[b["delta"], b["b_norm"], o["oscillation_sq"]]
               for b, o in zip(b_rows, osc_rows)])
    write_svg_curves(out / "flatten_sweeps.svg",
                     [("b-norm", [r["delta"] for r in b_rows],
                       [r["b_norm"] for r in b_rows]),
                      ("oscillation", [r["delta"] for r in osc_rows],
                       [r["oscillation_sq"] for r in osc_rows])],
                     title="pushforward inflation vs chart slope",
                     logx=True, logy=True)
    reports.append(AuditReport.from_rows(
        "pushforward-delta-scaling",
        [AuditRow(label="correction-norm-exponent", lhs=slope_b, rhs=0.9,
                  constant=slope_b, budget=0.9, passed=bool(slope_b >= 0.9)),
         AuditRow(label="oscillation-exponent", lhs=slope_o, rhs=1.8,
                  constant=slope_o, budget=1.8, passed=bool(slope_o >= 1.8))],
        params={"deltas": deltas}))

    beta2 = Weight.power(alpha, (0.0, 0.0), dom2)
    fam2 = BallFamily.default(dom2, n_centers=5, n_radii=8)
    reports.append(pushforward_weight_audit(
        BoundaryChart(kind="affine", delta=float(params.get("delta", 0.2))),
        beta2, ctx2, fam2, shape=(32, 32)))
    reports.append(admissible_radius_search(
        BoundaryChart(kind="affine", delta=float(params.get("delta", 0.2))),
        beta2, ctx2, R=float(params.get("R", 0.8)),
        t0=float(params.get("t0", 0.5)),
        Lambda=float(params.get("Lambda", 2.0))))
    return reports


RUNNERS = {
    "weights": lambda cfg, seed, out: run_weights(cfg, seed),
    "geometry": lambda cfg, seed, out: run_geometry(cfg, seed),
    "solve": run_solve,
    "audit": run_audit,
    "levelset": run_levelset,
    "flatten": run_flatten,
}


def run_experiment(config_path: str, out_dir: str, seed: int | None = None,
                   groups: list[str] | None = None) -> int:
    """Run the selected audit groups; returns the process exit code."""
    try:
        cfg = ExperimentConfig.load(config_path)
        selected = groups if groups else cfg.selection
        cfg.check_groups(selected)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    use_seed = int(seed) if seed is not None else cfg.seed
    all_passed = True
    try:
        for group in selected:
            reports = RUNNERS[group](cfg, use_seed, out)
            for rep in reports:
                write_json(out / f"{group}__{rep.check}.json", rep)
                status = "pass" if rep.passed else "FAIL"
                print(f"[{group}] {rep.check}: {status}")
                all_passed = all_passed and rep.passed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"audit error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wparab",
        description="Audit harness for weighted degenerate parabolic estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "weights": "weight class, doubling, and reverse Hölder audits",
        "geometry": "quasi-distance and cylinder containment audits",
        "solve": "manufactured convergence and a-priori ratio sweeps",
        "audit": "energy, Poincaré, Lipschitz, frozen-comparison, "
                 "time-shift, and inequality-lab audits",
        "levelset": "maximal-function, covering, and decay audits",
        "flatten": "boundary-chart pushforward audits",
        "all": "run every audit group",
    }
    for name in KNOWN_GROUPS + ("all",):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)
    groups = None if args.command == "all" else [args.command]
    return run_experiment(args.config, args.out, seed=args.seed, groups=groups)


if __name__ == "__main__":
    sys.exit(main())
