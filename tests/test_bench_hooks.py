"""The traced benchmark run wraps wparab functions by name
(``perfbench/layers.py``), so deleting or renaming a wrapped function breaks
only traced runs. This test installs those hooks on the real package and
takes them out again."""
from pathlib import Path

import numpy as np

from wparab import cli, geometry, maximal, solver, weights
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
        # the count reads result.size * len(radii): a batch of two fields
        # must count two evaluations per point and radius
        edges = np.linspace(-1.0, 1.0, 9)
        fields = [maximal.SpaceTimeField(edges, edges, np.ones((8, 8))),
                  maximal.SpaceTimeField(edges, edges, np.zeros((8, 8)))]
        X, T = fields[0].cell_centers()
        radii = [0.25, 0.5, 1.0]
        maximal.maximal_function_batch(fields, Weight.constant(1.0, (-1.0, 1.0)),
                                       X, T, radii, WeightContext(n=1))
        assert tracer.counts["maximal.batch_evals"] == 2 * X.size * len(radii)
    finally:
        tracer.restore()
    after = (geometry.height_inverse, geometry.height_inverse_vec,
             solver.write_solution_csv, vars(weights.Weight)["mass_1d_vec"],
             dict(cli.RUNNERS))
    assert after == before
