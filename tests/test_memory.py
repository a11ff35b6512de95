"""Peak traced memory of the blocked solver, oscillation and quasi-triangle
passes.

Each bound is the peak that the per-step, per-cylinder and per-block loops
reached (measured with ``tracemalloc`` on the same inputs) plus a stated
margin, so building the diagonals, the coefficient samples or the triples
for the whole problem at once fails: that took 20.9 MB for the solve, 23 MB
for the lattice and 22.7 MB for the triples.
"""
import tracemalloc
from pathlib import Path

import numpy as np

from wparab.config import ExperimentConfig
from wparab.geometry import estimate_quasi_params, quasi_triangle_audit
from wparab.oscillation import OscillationConfig, oscillation_supremum
from wparab.solver import CoefficientField, Grid, forcing_from_callable, solve_ivbp
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
    osc = OscillationConfig(R0=0.5, delta=0.25)
    peak = traced_peak(lambda: oscillation_supremum(
        cfg.coefficient_fn(), beta, osc, (0.0, 1.0, 0.0, 0.25)))
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
