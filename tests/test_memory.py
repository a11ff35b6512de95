"""Peak traced memory of the blocked solver, oscillation and quasi-triangle
passes, of the solve group and of the binary dump.

Each bound is the peak that the per-step, per-cylinder and per-block loops
reached (measured with ``tracemalloc`` on the same inputs) plus a stated
margin, so building the diagonals, the coefficient samples or the triples
for the whole problem at once fails: that took 20.9 MB for the solve, 23 MB
for the lattice and 22.7 MB for the triples. The solve group's bound fails
when a norm, the flux proxy or a conductivity constant in t builds a table
it only reads (26.8 MB before they stopped), the dump's when it copies the
solution (8.5 MB), and the conductivity's when it samples every time level.
"""
import tracemalloc
from pathlib import Path

import numpy as np

from wparab.cli import RunContext, run_solve
from wparab.config import ExperimentConfig
from wparab.geometry import estimate_quasi_params, quasi_triangle_audit
from wparab.oscillation import oscillation_supremum
from wparab.solver import (CoefficientField, Grid, SolutionField, forcing_from_callable,
                           sinusoidal_coefficient, solve_ivbp, write_solution_binary)
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
    # the peak is in apriori_ratio at nx = 128: u, F, the gradient and its
    # |.|^p, four tables of about 4097 x 129 doubles (16.8 MB), next to the
    # 64 x 1024 solution the run keeps for audit and levelset (1.05 MB);
    # measured 17.94 MB, margin 0.5 MB
    assert peak < 17.94 * MB + 0.5 * MB


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
