"""The traced benchmark run wraps wparab functions by name
(``perfbench/layers.py``), so deleting or renaming a wrapped function breaks
only traced runs. This test installs those hooks on the real package and
takes them out again."""
from pathlib import Path

from wparab import cli, geometry, solver, weights
from wparab.weights import Weight, WeightContext

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    from tracer import Tracer

    before = (geometry.height_inverse, geometry.height_inverse_vec,
              solver.write_solution_csv, vars(weights.Weight)["mass_1d_vec"],
              dict(cli.RUNNERS))
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert geometry.height_inverse is not before[0]
        r = geometry.height_inverse(Weight.constant(1.0, (-1.0, 1.0)), [0.0], 4.0,
                                    WeightContext(n=1))
        assert abs(r - 2.0) <= 1e-9
        assert tracer.counts["geometry.height_inverse_queries"] >= 1
        assert tracer.counts["weights.mass_queries"] >= 1
    finally:
        tracer.restore()
    after = (geometry.height_inverse, geometry.height_inverse_vec,
             solver.write_solution_csv, vars(weights.Weight)["mass_1d_vec"],
             dict(cli.RUNNERS))
    assert after == before
