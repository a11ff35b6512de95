"""Peak traced memory of the blocked solver, oscillation and quasi-triangle
passes, of the solve group and of the binary dump.

Each bound is the peak that the per-step, per-cylinder and per-block loops
reached (measured with ``tracemalloc`` on the same inputs) plus a stated
margin, so building the diagonals, the coefficient samples or the triples
for the whole problem at once fails: that took 20.9 MB for the solve, 23 MB
for the lattice and 22.7 MB for the triples. The solve group's bound fails
when any table beside the finest manufactured u is built: its forcing, its
error's integrand, a second level, or a table of the a-priori sweep (12.9 MB
while u, F and one face table were alive at once); the streamed driven
solve's when it keeps a level table or samples a whole forcing or
conductivity; the dump's when it copies the solution (8.5 MB), and the
conductivity's when it samples every time level.
"""
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

from wparab import cli
from wparab.cli import RunContext, run_solve
from wparab.config import ExperimentConfig
from wparab.experiments import ManufacturedCase, smooth_random_forcing, solve_driven
from wparab.geometry import quasi_triangle_audit
from wparab.oscillation import oscillation_supremum
from wparab.solver import (CoefficientField, Grid, SolutionField, apriori_ratio,
                           driven_apriori_ratios, forcing_from_callable,
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
    # finiteness mask (5.22 MB with the march's block arrays and the block
    # buffer the storer copies from); margin 1 MB
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
    peak = traced_peak(lambda: quasi_triangle_audit(beta, 200_000, seed=7))
    # blocks of 32,768 triples peaked at 6.25 MB, at 2e5 samples as at 5e5
    # (6.07 MB while leg bounds pruned the inversions); all triples at once
    # took 22.7 MB here. Margin about 3.5 MB
    assert peak < 10.0 * MB


def test_solve_group_peak(tmp_path):
    cfg = ExperimentConfig.load(CONFIG_DIR / "identity.json")

    def solve_group():
        run = RunContext(cfg, cfg.seed, tmp_path)
        run_solve(run)
        run.dump.result()

    peak = traced_peak(solve_group)
    # the peak is at nx = 128: the finest manufactured u (4.23 MB), which
    # the dumps read, and the march's block buffers; its forcing and error
    # integrand are formed one block of levels at a time, and the a-priori
    # sweep keeps no table. Measured 5.52 MB, 5.38 MB while the march wrote
    # into u itself (12.89 MB while u, F and one face table were alive at
    # once); margin 0.5 MB over the latter
    assert peak < 5.38 * MB + 0.5 * MB


def test_streamed_driven_level_peak():
    grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.25, nt=4096)
    peak = traced_peak(lambda: driven_apriori_ratios(
        Weight.power(0.2, 0.5, (0.0, 1.0)),
        lambda x, t: 1.0 + 0.3 * np.sin(7.0 * x) * (1.0 + t), smooth_random_forcing(3),
        grid, [2.0, 4.0]))
    # a conductivity that varies in t: one level of blocks, the row a block
    # steps from and the block sums, measured 1.91 MB. A level table (4.23
    # MB) or a whole sampled forcing or conductivity (4.19 MB) fails; margin
    # 0.5 MB
    assert peak < 1.91 * MB + 0.5 * MB


def test_apriori_ratio_peak():
    u = solve_driven(Weight.power(0.2, 0.5, (0.0, 1.0)), smooth_random_forcing(3),
                     nx=128, nt=4096, t_final=0.25,
                     a_fun=sinusoidal_coefficient(1.0, 0.3, 8.0))
    peak = traced_peak(lambda: apriori_ratio(u, 4.0))
    # the field's levels are walked one block of STEP_BLOCK levels at a
    # time: measured 0.66 MB (4.33 MB with one face table of 4097 x 128
    # doubles). A gradient or an integrand in a table of its own adds
    # 4.19 MB; margin 0.5 MB
    assert peak < 0.66 * MB + 0.5 * MB


def test_dump_forked_before_the_first_driven_solve(tmp_path, monkeypatch):
    # the finest manufactured level is solved first and dumped before any
    # other solve; each level is dropped before the next is solved, and the
    # a-priori sweep, which keeps no table, comes last
    events, alive = [], []
    forked, driven, manufactured = (cli.Forked, cli.driven_apriori_ratios,
                                    ManufacturedCase.solve)

    def log(event):
        # every manufactured field solved before is gone by the next event
        assert [ref() for ref in alive] == [None] * len(alive), event
        events.append(event)

    def solve(case, nx, *a):
        log(f"manufactured {nx}")
        u, err = manufactured(case, nx, *a)
        alive.append(weakref.ref(u))
        return u, err

    # the fork is the one event with a level alive: it dumps that level
    monkeypatch.setattr(cli, "Forked", lambda *a, **k: events.append("fork")
                        or forked(*a, **k))
    monkeypatch.setattr(cli, "driven_apriori_ratios",
                        lambda *a, **k: log("driven") or driven(*a, **k))
    monkeypatch.setattr(ManufacturedCase, "solve", solve)
    raw = json.loads((CONFIG_DIR / "identity.json").read_text())
    raw["audits"]["solve"]["levels"] = [16, 32]
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    cfg = ExperimentConfig.load(tmp_path / "cfg.json")
    run = RunContext(cfg, cfg.seed, tmp_path)
    run_solve(run)
    run.dump.result()
    assert events == ["manufactured 32", "fork", "manufactured 16", "driven", "driven"]


def test_write_solution_binary_peak(tmp_path):
    grid = Grid(x0=0.0, x1=1.0, nx=128, t_final=0.25, nt=4096)
    A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
    u = SolutionField(grid, np.ones((grid.nt + 1, grid.nx + 1)),
                      Weight.constant(1.0, (0.0, 1.0)), np.ones(grid.nx + 1), A,
                      np.zeros((grid.nt + 1, grid.nx)).__getitem__)
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
