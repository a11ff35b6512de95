"""Batch experiment runner.

Subcommands select audit groups (weights, geometry, solve, audit, levelset,
flatten, all); each takes --config, --out, and --seed. Every audit writes
one JSON report; sweeps additionally write CSV tables and static SVG plots.
Exit codes: 0 all selected audits passed, 1 an audit failed (reports are
still written) or the solution dump failed, 2 configuration error (an
unusable --out included).

Work forked into a child (``Forked``) computes and returns values, and the
run writes the files: ``flatten``, when a group precedes it, is computed in
a niced child (:func:`flatten_audits`) while the groups before it run, and
written at its turn, so outputs, print order, exit codes and messages match
an inline run. The one exception is solve's ``solution.csv``, whose child
writes the file itself. The gain is wall time and needs a free core;
``run_experiment`` returns after every child has finished.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import draws
from .config import KNOWN_GROUPS, SEED, ExperimentConfig
from .errors import ConfigError, ToolkitError
from .experiments import (ManufacturedCase, convergence_study, default_nt,
                          fit_loglog_slope, freeze_compare_sweep,
                          smooth_random_forcing)
from .flattening import (admissible_radius_search, b_norm_delta_sweep,
                         inclusion_audit, oscillation_delta_sweep,
                         pushforward_weight_audit)
from .forked import Forked
from .geometry import (WeightedCylinder, cylinder_relations_audit, estimate_quasi_params,
                       quasi_triangle_audit)
from .inequalities import (interpolation_audit, weighted_embedding_audit,
                           weighted_lq_control_audit)
from .maximal import (SpaceTimeField, five_rho_cover_audit, levelset_decay_audit,
                      vitali_select, weak_1_1_audit)
from .oscillation import oscillation_supremum
from .report import (AuditReport, AuditRow, ratio, write_csv, write_json,
                     write_svg_curves)
from .solver import (Grid, driven_apriori_ratios, energy_audit, lipschitz_audit,
                     poincare_audit, solve_frozen, time_shift_audit,
                     write_solution_binary, write_solution_csv)
from .weights import (BallFamily, Weight, check_beta_condition, doubling_report,
                      reverse_holder_gamma)


class RunContext:
    """What the audit groups of one run share.

    Holds the config (whose ``audits[group]`` are the typed parameters),
    the seed, the output directory, the weight and the coefficient
    function, each built once per run. The manufactured solution at the
    config grid is solved on first use, so ``audit`` and ``levelset``
    share one solve and a run without them makes none; when ``solve`` has
    already run a convergence level on that grid, its solution is used
    instead (:meth:`keep_manufactured`); its forcing becomes a table when
    ``audit`` or ``levelset`` first reads it. A grid without ``nt`` takes
    :func:`default_nt` steps, as the convergence levels do. ``dump`` is
    the child that writes solution.csv, and ``flatten`` the child that
    computes that group's values, when the run forks one.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int, out: Path):
        self.cfg, self.seed, self.out = cfg, seed, out
        self.weight = cfg.build_weight()
        self.a_fun = cfg.coefficient_fn()
        self.dump: Forked | None = None
        self.flatten: Forked | None = None
        g = cfg.grid
        self.manufactured_grid = (
            g.nx, g.nt if g.nt is not None else default_nt(g.nx, g.t_final), g.t_final)

    @functools.cached_property
    def manufactured(self):
        u, _ = ManufacturedCase(self.weight).solve(*self.manufactured_grid)
        return u

    def keep_manufactured(self, grid: tuple, u) -> None:
        """Keep ``u``, the manufactured solution on ``grid`` = (nx, nt,
        t_final), if that is the config grid and none is at hand yet."""
        if grid == self.manufactured_grid:  # into the cached property's slot
            self.__dict__.setdefault("manufactured", u)


def run_weights(run: RunContext) -> list[AuditReport]:
    w, p = run.weight, run.cfg.audits["weights"]
    fam = BallFamily.default(w.domain, n_centers=p.n_centers)
    reports = [check_beta_condition(w, p.M0, fam, tol_quad=p.tol_quad)]
    reports.append(doubling_report(w, 1.0, fam, p.theta, p.M0,
                                   n1_budget=p.n1_budget))
    budget = p.rh_budget
    gamma = reverse_holder_gamma(w, fam, budget)
    reports.append(AuditReport.from_rows(
        "reverse-holder-exponent",
        [AuditRow(label="largest-passing-gamma", lhs=gamma, rhs=budget,
                  constant=gamma, budget=budget, passed=gamma > 0.0)],
        params={"budget": budget}))
    return reports


def run_geometry(run: RunContext) -> list[AuditReport]:
    w, p = run.weight, run.cfg.audits["geometry"]
    reports = [quasi_triangle_audit(w, p.samples, seed=run.seed)]
    lo, hi = w.domain[0]
    x0 = p.relations_x0 if p.relations_x0 is not None else 0.5 * (lo + hi)
    r = p.relations_r if p.relations_r is not None else 0.25 * (hi - lo)
    reports.append(cylinder_relations_audit(w, x0, 0.0, r))
    return reports


def run_solve(run: RunContext) -> list[AuditReport]:
    w, out, p = run.weight, run.out, run.cfg.audits["solve"]
    levels, t_final = p.levels, run.cfg.grid.t_final
    order_budget = p.order_min if p.order_min is not None else (
        1.9 if w.kind == "power" and w.alpha == 0.0 else 1.0)

    def use(nx: int, nt: int, u) -> None:
        run.keep_manufactured((nx, nt, t_final), u)
        if nx == levels[-1]:  # solved first: dumped, then dropped
            run.dump = Forked(functools.partial(write_solution_csv,
                                                out / "solution.csv", u))
            write_solution_binary(out / "solution.bin", u)

    rows = convergence_study(w, levels, t_final, use)
    # the a-priori ratios on the study's grids, marched without tables
    forcing = smooth_random_forcing(run.seed)
    by_level = [driven_apriori_ratios(
        w, run.a_fun, forcing, Grid(x0=0.0, x1=1.0, nx=nx, t_final=t_final,
                                    nt=default_nt(nx, t_final)), p.p_values)
        for nx in levels]
    write_csv(out / "convergence.csv", ["nx", "nt", "error", "order"],
              [[r["nx"], r["nt"], r["error"], r["order"]] for r in rows])
    write_svg_curves(out / "convergence.svg",
                     [("l2-error", [float(r["nx"]) for r in rows],
                       [r["error"] for r in rows])],
                     title="manufactured-solution convergence",
                     logx=True, logy=True)
    audit_rows = [AuditRow.at_least(f"order-{a['nx']}-to-{b['nx']}", b["order"],
                                    order_budget)
                  for a, b in zip(rows, rows[1:])]
    reports = [AuditReport.from_rows(
        "manufactured-convergence", audit_rows,
        params={"levels": levels, "t_final": t_final,
                "errors": [r["error"] for r in rows]})]

    for q, ratios in zip(p.p_values, map(list, zip(*by_level))):
        top, low = float(np.max(ratios)), float(np.min(ratios))  # a NaN level stays NaN
        rows_p = [
            AuditRow.at_most("ratio-bounded", top, p.ratio_budget),
            AuditRow.at_most("refinement-stability", ratio(top - low, low), p.stability,
                             extra={"ratios": ratios}),
        ]
        reports.append(AuditReport.from_rows(
            f"apriori-ratio-p{q:g}", rows_p, params={"p": q, "levels": levels},
            seed=run.seed))
    return reports


def run_audit(run: RunContext) -> list[AuditReport]:
    w, out, p = run.weight, run.out, run.cfg.audits["audit"]
    u, t_final = run.manufactured, run.cfg.grid.t_final
    lo, hi = w.domain[0]
    mask = (lo, hi, 0.0, t_final)

    reports = [oscillation_supremum(run.a_fun, w, p.R0, p.delta, mask)]

    center = 0.5 * (lo + hi)
    r_base = p.cylinder_r if p.cylinder_r is not None else 0.125 * (hi - lo)
    inner = WeightedCylinder(center, t_final, 1.5 * r_base, w, variant="Q")
    outer = WeightedCylinder(center, t_final, 2.0 * r_base, w, variant="Q")
    reports.append(energy_audit(u, inner, outer, budget=p.energy_budget))
    reports.append(poincare_audit(u, outer, variant="interior",
                                  budget=p.poincare_budget))
    bcyl = WeightedCylinder(lo, t_final, 2.0 * r_base, w, variant="Q+")
    reports.append(poincare_audit(u, bcyl, variant="boundary",
                                  budget=p.poincare_budget))

    # frozen-solution Lipschitz audit on a caloric profile
    # mean over the whole ball B_R, not its part inside the domain
    R = 2.0 * r_base
    beta_bar = float(w.mass_1d_vec(1.0, center - R, center + R)) / (2.0 * R)
    frozen = Weight.constant(beta_bar, (-1.0, 1.0))
    f_outer = WeightedCylinder(0.0, 0.0, 0.5, frozen)
    f_inner = WeightedCylinder(0.0, 0.0, 0.25, frozen)
    v = solve_frozen(beta_bar, 1.0, f_outer.x_interval, f_outer.t_interval, 48, 48,
                     lambda x, t: x ** 2 + 2.0 * t)
    reports.append(lipschitz_audit(v, f_inner, beta_bar, budget=p.lipschitz_budget))

    amplitudes = p.freeze_amplitudes
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
    decreasing = all(b < a for a, b in zip(nonzero, nonzero[1:]))
    rows = [AuditRow.count("strictly-decreasing", 0 if decreasing else 1)]
    if baseline is not None and nonzero:
        gap = ratio(nonzero[-1], baseline)
        rows.append(AuditRow(label="smallest-amplitude-near-baseline",
                             lhs=nonzero[-1], rhs=2.0 * baseline, constant=gap,
                             budget=2.0, passed=bool(gap <= 2.0)))
    reports.append(AuditReport.from_rows(
        "frozen-comparison-sweep", rows,
        params={"amplitudes": amplitudes, "eps": eps}))

    phi = np.clip(1.0 - ((u.grid.x - center) / (0.35 * (hi - lo))) ** 2,
                  0.0, None) ** 2
    reports.append(time_shift_audit(u, phi, 2, budget=p.timeshift_budget))

    # weighted-inequality lab on closed-form test functions
    lab_dom = (-1.0, 1.0)
    fam = BallFamily.default(lab_dom)
    mu = Weight.power(0.2, 0.0, lab_dom)

    def g(x):
        return 0.3 + x

    reports.append(weighted_lq_control_audit(
        g, mu, 2.0, (0.0, 0.0, 0.8), 0.1, run.cfg.audits["weights"].M0, fam,
        budget=p.lab_budget))
    reports.append(weighted_embedding_audit(g, mu, 0.5, budget=p.lab_budget))
    reports.append(interpolation_audit(
        lambda x, t: np.sin(math.pi * x) * (1.0 + t),
        lambda x, t: math.pi * np.cos(math.pi * x) * (1.0 + t),
        mu, 0.0, 0.8, (0.0, 1.0), budget=p.lab_budget))
    return reports


def run_levelset(run: RunContext) -> list[AuditReport]:
    w, seed, p = run.weight, run.seed, run.cfg.audits["levelset"]
    lo, hi = w.domain[0]

    # independent streams: field i keyed by i, and the Vitali draw's own,
    # whatever the number of fields
    fields = [SpaceTimeField(np.linspace(lo, hi, 17), np.linspace(-1.0, 0.0, 17),
                             draws.uniform(draws.key(seed, "field", i), 0.0, 1.0, (16, 16)))
              for i in range(p.n_fields)]
    reports = weak_1_1_audit(fields, w, p.lambdas, budget=p.weak11_budget)
    for i, rep in enumerate(reports):
        rep.check = f"maximal-weak-1-1-field{i}"
        rep.seed = seed

    # one cylinder (x0, t0, r) per row
    centers = draws.uniform(draws.key(seed, "vitali"), [lo + 0.1, -0.8, 0.02],
                            [hi - 0.1, -0.2, 0.15], (p.n_cylinders, 3))
    cyls = [WeightedCylinder(x0, t0, r, w, variant="C") for x0, t0, r in centers.tolist()]
    cover = five_rho_cover_audit(cyls, vitali_select(cyls), w)
    cover.seed = seed
    reports.append(cover)

    u = run.manufactured
    decay = levelset_decay_audit(
        u.gradient_squared_field(), u.forcing_squared_field(), w, K=p.K,
        q0=p.q0, m_max=p.m_max, quasi=estimate_quasi_params(w),
        center=0.5 * (lo + hi),
        t_top=run.cfg.grid.t_final, r_unit=p.r_unit, delta_hat=p.delta_hat)
    table = decay.params["table"]
    write_csv(run.out / "levelset_decay.csv", ["m", "lhs", "rhs", "gamma1_fit"],
              table)
    if table:
        write_svg_curves(run.out / "levelset_decay.svg",
                         [("lhs", [r[0] for r in table], [r[1] for r in table]),
                          ("rhs", [r[0] for r in table], [r[2] for r in table])],
                         title="level-set decay")
    reports.append(decay)
    return reports


def flatten_audits(p) -> tuple[list[AuditReport], list[list[float]]]:
    """The flatten group's reports for ``audits.flatten`` ``p``, and the rows
    (delta, b_norm, oscillation_sq) of its two slope sweeps. Writes no file,
    so a child may compute it."""
    dom2 = ((-1.0, 1.0), (-1.0, 1.0))

    delta = p.deltas[-1]  # the sweep's last slope: every single-chart check's chart
    reports = [inclusion_audit(delta, [0.2, 0.1], 0.5)]
    b_rows = b_norm_delta_sweep(p.deltas)
    reports.append(b_rows[-1]["report"])
    slope_b = fit_loglog_slope([r["delta"] for r in b_rows],
                               [r["b_norm"] for r in b_rows])
    osc_rows = oscillation_delta_sweep(p.deltas)
    slope_o = fit_loglog_slope([r["delta"] for r in osc_rows],
                               [r["oscillation_sq"] for r in osc_rows])
    reports.append(AuditReport.from_rows(
        "pushforward-delta-scaling",
        [AuditRow.at_least("correction-norm-exponent", slope_b, 0.9),
         AuditRow.at_least("oscillation-exponent", slope_o, 1.8)],
        params={"deltas": p.deltas}))

    beta2 = Weight.power(p.alpha, (0.0, 0.0), dom2)
    fam2 = BallFamily.default(dom2, n_centers=5, n_radii=8)
    reports.append(pushforward_weight_audit(delta, beta2, p.M0, fam2,
                                            shape=(32, 32)))
    reports.append(admissible_radius_search(delta, beta2, R=p.R, t0=p.t0,
                                            Lambda=p.Lambda))
    return reports, [[b["delta"], b["b_norm"], o["oscillation_sq"]]
                     for b, o in zip(b_rows, osc_rows)]


def run_flatten(run: RunContext) -> list[AuditReport]:
    """The values of :func:`flatten_audits`, from the run's ``flatten``
    child if it forked one; writes the sweep table and plot."""
    reports, rows = (run.flatten.result() if run.flatten is not None
                     else flatten_audits(run.cfg.audits["flatten"]))
    deltas = [r[0] for r in rows]
    write_csv(run.out / "flatten_sweeps.csv",
              ["delta", "b_norm", "oscillation_sq"], rows)
    write_svg_curves(run.out / "flatten_sweeps.svg",
                     [("b-norm", deltas, [r[1] for r in rows]),
                      ("oscillation", deltas, [r[2] for r in rows])],
                     title="pushforward inflation vs chart slope",
                     logx=True, logy=True)
    return reports


RUNNERS = {
    "weights": run_weights,
    "geometry": run_geometry,
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
        if seed is not None:
            seed = SEED.parse(seed, "--seed")
        selected = groups if groups else cfg.selection
        cfg.check_groups(selected)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output directory {out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    all_passed, code, run = True, None, None
    try:
        run = RunContext(cfg, seed if seed is not None else cfg.seed, out)
        if "flatten" in selected[1:]:  # overlaps only the groups before it
            # niced: the run's own process keeps its core, and flatten's
            # values are needed only at its turn
            run.flatten = Forked(
                functools.partial(flatten_audits, cfg.audits["flatten"]), nice=10)
        for group in selected:
            reports = RUNNERS[group](run)
            for rep in reports:
                write_json(out / f"{group}__{rep.check}.json", rep)
                status = "pass" if rep.passed else "FAIL"
                print(f"[{group}] {rep.check}: {status}")
                all_passed = all_passed and rep.passed
        code = 0 if all_passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except ToolkitError as exc:
        print(f"audit error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        if run is not None and run.flatten is not None:
            Forked.reap([run.flatten])  # its outcome matters at its turn only
        if run is not None and run.dump is not None:
            try:
                run.dump.result()
            except Exception as exc:
                print(f"dump error: writing {out / 'solution.csv'} failed: {exc}",
                      file=sys.stderr)
                code = code or 1
    return code


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
