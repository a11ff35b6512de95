"""Which wparab functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package. A wrapped function records a span
named ``<layer>.<part>``; the spans of one part add up to its ``_s`` metric,
and the self time of all spans of a layer gives ``<layer>.self_s``. Work
counts are read from the call arguments (or, for report bytes, the file
written). Functions that run once per grid point or per ball are not
wrapped, so the tracer stays at layer boundaries.
"""
from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

LAYERS = ("config", "cli", "experiments", "solver", "weights", "geometry",
          "oscillation", "maximal", "inequalities", "flattening", "report")

# metric -> span part whose inclusive seconds it reports
SPAN_METRICS = {
    "config.load_s": "config.load",
    "cli.weights_s": "cli.weights",
    "cli.geometry_s": "cli.geometry",
    "cli.solve_s": "cli.solve",
    "cli.audit_s": "cli.audit",
    "cli.levelset_s": "cli.levelset",
    "cli.flatten_s": "cli.flatten",
    "solver.assembly_s": "solver.assembly",
    "solver.solve_ivbp_s": "solver.solve_ivbp",
    "solver.solve_frozen_s": "solver.solve_frozen",
    "solver.norm_audits_s": "solver.norm_audits",
    "solver.dump_s": "solver.dump",
    "report.write_s": "report.write",
    "weights.cell_sampling_s": "weights.cell_sampling",
    "weights.class_audits_s": "weights.class_audits",
    "weights.mass_1d_vec_s": "weights.mass_1d_vec",
    "geometry.height_inverse_s": "geometry.height_inverse",
    "geometry.quasi_triangle_s": "geometry.quasi_triangle",
    "oscillation.supremum_s": "oscillation.supremum",
    "maximal.batch_s": "maximal.batch",
    "maximal.vitali_s": "maximal.vitali",
    "maximal.levelset_decay_s": "maximal.levelset_decay",
    "inequalities.audits_s": "inequalities.audits",
}

COUNT_METRICS = ("solver.assembly_points", "solver.steps",
                 "experiments.manufactured_solves", "report.bytes",
                 "weights.cells_2d", "weights.balls", "weights.mass_queries",
                 "geometry.height_inverse_queries", "geometry.triples",
                 "oscillation.theta_A_calls", "maximal.batch_evals")


def _grid_points(args, result):
    grid = args["grid"]
    return {"solver.assembly_points": (grid.nt + 1) * grid.nx}


def _size(key, arg):
    return lambda args, result: {key: int(np.size(args[arg]))}


def _one(key):
    return lambda args, result: {key: 1}


def install(tracer) -> None:
    """Wrap the layer-boundary functions of every wparab module."""
    from wparab import (cli, config, experiments, flattening, geometry,
                        inequalities, maximal, oscillation, report, solver,
                        weights)

    def wrap(owner, attr, name, count=None):
        tracer.wrap(owner, attr, name, count, rebind_prefix="wparab")

    wrap(cli, "run_experiment", "cli.run")
    for group in list(cli.RUNNERS):
        tracer.wrap(cli.RUNNERS, group, f"cli.{group}")

    wrap(config.ExperimentConfig, "load", "config.load")
    wrap(config.ExperimentConfig, "build_weight", "config.build")
    wrap(config.ExperimentConfig, "coefficient_fn", "config.build")

    wrap(experiments.ManufacturedCase, "solve", "experiments.manufactured",
         _one("experiments.manufactured_solves"))
    for fn in ("convergence_study", "solve_driven", "smooth_random_forcing",
               "freeze_compare_sweep", "fit_loglog_slope"):
        wrap(experiments, fn, "experiments.studies")

    wrap(solver, "forcing_from_callable", "solver.assembly", _grid_points)
    wrap(solver.CoefficientField, "from_callable", "solver.assembly",
         _grid_points)
    wrap(solver, "solve_ivbp", "solver.solve_ivbp",
         lambda args, result: {"solver.steps": args["grid"].nt})
    wrap(solver, "solve_frozen", "solver.solve_frozen")
    for fn in ("energy_audit", "poincare_audit", "lipschitz_audit",
               "freeze_compare", "apriori_ratio", "time_shift_audit"):
        wrap(solver, fn, "solver.norm_audits")
    for fn in ("write_solution_csv", "write_solution_binary"):
        wrap(solver, fn, "solver.dump")

    wrap(weights.Weight, "from_function_2d", "weights.cell_sampling",
         lambda args, result: {"weights.cells_2d":
                               args["shape"][0] * args["shape"][1]})
    wrap(weights, "aq_characteristic", "weights.class_audits",
         lambda args, result: {"weights.balls": len(args["fam"].centers)
                               * len(args["fam"].radii)})
    for fn in ("check_beta_condition", "doubling_report", "reverse_holder_gamma"):
        wrap(weights, fn, "weights.class_audits")
    wrap(weights.Weight, "mass_1d_vec", "weights.mass_1d_vec",
         _size("weights.mass_queries", "a"))

    wrap(geometry, "height_inverse", "geometry.height_inverse",
         _one("geometry.height_inverse_queries"))
    wrap(geometry, "height_inverse_vec", "geometry.height_inverse",
         _size("geometry.height_inverse_queries", "s"))
    wrap(geometry, "quasi_triangle_audit", "geometry.quasi_triangle",
         lambda args, result: {"geometry.triples": args["samples"]})
    for fn in ("estimate_quasi_params", "cylinder_relations_audit"):
        wrap(geometry, fn, "geometry.audits")

    wrap(oscillation, "oscillation_supremum", "oscillation.supremum")
    wrap(oscillation, "theta_A_ms", "oscillation.theta_A",
         _one("oscillation.theta_A_calls"))

    wrap(maximal, "maximal_function_batch", "maximal.batch",
         lambda args, result: {"maximal.batch_evals":
                               int(result.size) * len(args["radii"])})
    wrap(maximal, "vitali_select", "maximal.vitali")
    wrap(maximal, "levelset_decay_audit", "maximal.levelset_decay")
    for fn in ("weak_1_1_audit", "five_rho_cover_audit"):
        wrap(maximal, fn, "maximal.audits")

    for fn in ("weighted_lq_control_audit", "weighted_embedding_audit",
               "interpolation_audit"):
        wrap(inequalities, fn, "inequalities.audits")

    for fn in ("inclusion_audit", "pushforward_coefficients",
               "b_norm_delta_sweep", "oscillation_delta_sweep",
               "pushforward_weight_audit", "admissible_radius_search"):
        wrap(flattening, fn, "flattening.audits")

    for fn in ("write_json", "write_csv", "write_svg_curves"):
        wrap(report, fn, "report.write",
             lambda args, result: {"report.bytes": Path(result).stat().st_size})


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    inclusive = tracer.inclusive()
    values = {metric: inclusive.get(part, 0.0)
              for metric, part in SPAN_METRICS.items()}
    for key in COUNT_METRICS:
        values[key] = float(tracer.counts.get(key, 0))
    steps = values["solver.steps"]
    values["solver.step_us"] = (1e6 * values["solver.solve_ivbp_s"] / steps
                                if steps else 0.0)
    self_times = tracer.self_times()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    values["trace.spans"] = float(len(tracer.spans))
    return values


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over repetitions."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
