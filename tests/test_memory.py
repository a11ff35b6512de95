"""Peak traced memory of the blocked solver, oscillation and quasi-triangle
passes, of the solve group and of the binary dump.

Each bound is the peak that the per-step, per-cylinder and per-block loops
reached (measured with ``tracemalloc`` on the same inputs) plus a stated
margin, so building the diagonals, the coefficient samples or the triples
for the whole problem at once fails: that took 20.9 MB for the solve, 23 MB
for the lattice and 22.7 MB for the triples. The solve group's bound fails
when a norm, the flux proxy or a conductivity constant in t builds a table
it only reads (26.8 MB before they stopped), when a second level is alive
beside the finest one, or when the a-priori integrands take more than one
face table (17.9 MB before they shared one); the dump's when it copies the
solution (8.5 MB), and the conductivity's when it samples every time level.
"""
import json
import tracemalloc
from pathlib import Path

import numpy as np

from wparab import cli
from wparab.cli import RunContext, run_solve
from wparab.config import ExperimentConfig
from wparab.experiments import ManufacturedCase, smooth_random_forcing, solve_driven
from wparab.geometry import estimate_quasi_params, quasi_triangle_audit
from wparab.oscillation import oscillation_supremum
from wparab.solver import (CoefficientField, Grid, SolutionField, apriori_ratio,
                           forcing_from_callable, sinusoidal_coefficient, solve_ivbp,
                           write_solution_binary)
from wparab.weights import Weight

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "wparab" / "configs"
MB = 1e6


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, after one untraced warm-up call
    fills the caches it reads."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_ivbp_peak():
    grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.25, nt=4096)
    beta = Weight.power(0.2, 0.5, (0.0, 1.0))
    A = CoefficientField.from_callable(
        lambda x, t: 1.0 + 0.3 * np.sin(7.0 * x) * (1.0 + t), grid)
    F = forcing_from_callable(lambda x, t: np.cos(3.0 * x) * np.exp(-t), grid)
    peak = traced_peak(lambda: solve_ivbp(beta, A, F, grid))
    # the solution is 4.23 MB; the per-step loop peaked at 4.77 MB with the
    # finiteness mask; margin 1 MB
    assert peak < 4.77 * MB + 1.0 * MB


def test_oscillation_supremum_peak():
    cfg = ExperimentConfig.load(CONFIG_DIR / "power_weight.json")
    beta = cfg.build_weight()
    peak = traced_peak(lambda: oscillation_supremum(
        cfg.coefficient_fn(), beta, 0.5, 0.25, (0.0, 1.0, 0.0, 0.25)))
    # the per-cylinder loop peaked at 0.05 MB on this 17 x 24 x 4 lattice;
    # margin 1 MB
    assert peak < 0.05 * MB + 1.0 * MB


def test_quasi_triangle_audit_peak():
    beta = ExperimentConfig.load(CONFIG_DIR / "power_weight.json").build_weight()
    params = estimate_quasi_params(beta)
    peak = traced_peak(lambda: quasi_triangle_audit(beta, params, 200_000,
                                                    seed=7, ranges=1))
    # blocks of 32,768 triples peaked at 6.07 MB, at 2e5 samples as at 5e5;
    # all triples at once took 22.7 MB here. Margin about 4 MB
    assert peak < 10.0 * MB


def test_solve_group_peak(tmp_path):
    cfg = ExperimentConfig.load(CONFIG_DIR / "identity.json")

    def solve_group():
        run = RunContext(cfg, cfg.seed, tmp_path)
        run_solve(run)
        run.dump.result()

    peak = traced_peak(solve_group)
    # the peak is at nx = 128, with no other level alive: u, F and one face
    # table, three tables of about 4097 x 129 doubles (12.6 MB), in
    # apriori_ratio and in the manufactured error; measured 12.89 MB,
    # margin 0.5 MB
    assert peak < 12.89 * MB + 0.5 * MB


def test_apriori_ratio_peak():
    u = solve_driven(Weight.power(0.2, 0.5, (0.0, 1.0)), smooth_random_forcing(3),
                     nx=128, nt=4096, t_final=0.25,
                     a_fun=sinusoidal_coefficient(1.0, 0.3, 8.0))
    peak = traced_peak(lambda: apriori_ratio(u, 4.0))
    # one face table of 4097 x 128 doubles (4.19 MB) beside u and F, refilled
    # for each integrand: measured 4.33 MB. A |.|^p or a second gradient in
    # a table of its own adds 4.19 MB; margin 0.5 MB
    assert peak < 4.33 * MB + 0.5 * MB


def test_dump_forked_before_the_first_driven_solve(tmp_path, monkeypatch):
    # the finest manufactured level is solved first and dumped, and dropped
    # before the a-priori sweep solves anything; the other levels come last,
    # so no level shares memory with the sweep
    events = []
    forked, driven, manufactured = cli.Forked, cli.solve_driven, ManufacturedCase.solve
    monkeypatch.setattr(cli, "Forked", lambda *a, **k: events.append("fork")
                        or forked(*a, **k))
    monkeypatch.setattr(cli, "solve_driven", lambda *a, **k: events.append("driven")
                        or driven(*a, **k))
    monkeypatch.setattr(ManufacturedCase, "solve", lambda case, nx, *a: events.append(
        f"manufactured {nx}") or manufactured(case, nx, *a))
    raw = json.loads((CONFIG_DIR / "identity.json").read_text())
    raw["audits"]["solve"]["levels"] = [16, 32]
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    cfg = ExperimentConfig.load(tmp_path / "cfg.json")
    run = RunContext(cfg, cfg.seed, tmp_path)
    run_solve(run)
    run.dump.result()
    assert events == ["manufactured 32", "fork", "driven", "driven", "manufactured 16"]


def test_write_solution_binary_peak(tmp_path):
    grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.25, nt=4096)
    A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
    u = SolutionField(grid, np.ones((grid.nt + 1, grid.nx + 1)),
                      Weight.constant(1.0, (0.0, 1.0)), np.ones(grid.nx + 1), A,
                      np.zeros((grid.nt + 1, grid.nx)))
    peak = traced_peak(lambda: write_solution_binary(tmp_path / "solution.bin", u))
    # the 4.23 MB solution is written from its own buffer: measured 0.005 MB
    assert peak < 1.0 * MB


def test_coefficient_constant_in_time_peak():
    grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.25, nt=4096)
    a_fun = sinusoidal_coefficient(1.0, 0.3, 8.0)
    peak = traced_peak(lambda: CoefficientField.from_callable(a_fun, grid))
    # one row of nx = 128 values, sampled and kept: measured 0.0025 MB; a
    # table of every time level, even a transient one, takes 4.2 MB
    assert peak < grid.nx * 8 + 0.01 * MB
