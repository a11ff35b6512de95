"""Peak traced memory of the blocked solver and oscillation passes.

Each bound is the peak that the per-step and per-cylinder loops reached
(measured with ``tracemalloc`` on the same inputs) plus a stated margin, so
building the diagonals or the coefficient samples for the whole problem at
once fails: that took 20.9 MB for the solve and 23 MB for the lattice.
"""
import tracemalloc
from pathlib import Path

import numpy as np

from wparab.config import ExperimentConfig
from wparab.oscillation import OscillationConfig, oscillation_supremum
from wparab.solver import CoefficientField, Grid, forcing_from_callable, solve_ivbp
from wparab.weights import Weight, WeightContext

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
        cfg.coefficient_fn(), beta, osc, (0.0, 1.0, 0.0, 0.25), WeightContext(n=1, M0=10.0)))
    # the per-cylinder loop peaked at 0.05 MB on this 17 x 24 x 4 lattice;
    # margin 1 MB
    assert peak < 0.05 * MB + 1.0 * MB
