"""Tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from checks import check_outputs, diff_report  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_config, sampled_weight_values  # noqa: E402

from wparab import cli  # noqa: E402
from wparab.config import ExperimentConfig  # noqa: E402
from wparab.weights import Weight  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_sampled_weight_is_deterministic_per_seed_and_valid():
    a, b = sampled_weight_values(7), sampled_weight_values(7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sampled_weight_values(8))
    assert a.shape == (256,) and np.all(np.isfinite(a))
    Weight.sampled(a, [0.0, 1.0])  # raises on invalid samples
    cfg = ExperimentConfig.from_dict(make_config("sampled-geometry", 7, ROOT))
    assert cfg.build_weight().kind == "sampled"
    assert cfg.selection == ["weights", "geometry"]


@pytest.mark.parametrize("seed", [3, 4])
def test_sampled_geometry_passes_its_checks(tmp_path, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(make_config("sampled-geometry", seed, ROOT)))
    out = tmp_path / "out"
    code = cli.run_experiment(str(config), str(out), seed=seed)
    reference = json.loads((BENCH / "reference" / "sampled-geometry.json").read_text())
    attempted, problems = check_outputs(out, reference, code)
    assert code == 0
    assert attempted == 2 + len(reference["files"])
    assert problems == []


def test_metric_names_are_valid_and_match_the_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    measured = set(layers.SPAN_METRICS) | set(layers.COUNT_METRICS)
    measured |= {f"{layer}.self_s" for layer in layers.LAYERS}
    measured |= {"solver.step_us", "trace.spans", "trace.run_s",
                 "trace.untraced_run_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == measured


def _fake_modules():
    clock = iter(float(t) for t in range(100))
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) + lib.inner(x)

    def boom():
        raise ValueError("boom")

    class Thing:
        @classmethod
        def make(cls, n):
            return n

    lib.inner, lib.outer, lib.boom, lib.Thing = inner, outer, boom, Thing
    user.outer = outer  # imported by name, as in `from .lib import outer`
    return lib, user, lambda: next(clock)


def test_tracer_nests_spans_and_restores(monkeypatch):
    lib, user, clock = _fake_modules()
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    originals = (lib.inner, lib.outer, lib.boom, vars(lib.Thing)["make"])
    tracer = Tracer(clock=clock)
    tracer.wrap(lib, "outer", "a.outer", rebind_prefix="fakepkg")
    tracer.wrap(lib, "inner", "b.inner",
                count=lambda args, result: {"b.calls": 1, "b.x": args["x"]},
                rebind_prefix="fakepkg")
    tracer.wrap(lib, "boom", "b.boom", rebind_prefix="fakepkg")
    tracer.wrap(lib.Thing, "make", "a.make")

    assert user.outer is lib.outer is not originals[1]
    assert user.outer(2) == 6
    assert lib.Thing.make(5) == 5
    with pytest.raises(ValueError):
        lib.boom()

    # clock ticks: outer 0..5 holds inner 1..2 and 3..4; make 6..7; boom 8..9
    assert [s[:4] for s in tracer.spans] == [
        ["a.outer", 0.0, 5.0, -1], ["b.inner", 1.0, 2.0, 0],
        ["b.inner", 3.0, 4.0, 0], ["a.make", 6.0, 7.0, -1],
        ["b.boom", 8.0, 9.0, -1]]
    assert tracer.self_times() == {"a": 4.0, "b": 3.0}
    assert tracer.inclusive() == {"a.outer": 5.0, "b.inner": 2.0,
                                  "a.make": 1.0, "b.boom": 1.0}
    assert dict(tracer.counts) == {"b.calls": 2, "b.x": 4}

    tracer.restore()
    assert (lib.inner, lib.outer, lib.boom, vars(lib.Thing)["make"]) == originals
    assert user.outer is originals[1]
    assert lib.Thing.make(3) == 3


def test_tracer_counts_a_recursive_span_once():
    lib, _, clock = _fake_modules()

    def countdown(n):
        return 0 if n == 0 else lib.countdown(n - 1)

    lib.countdown = countdown
    tracer = Tracer(clock=clock)
    tracer.wrap(lib, "countdown", "a.countdown")
    lib.countdown(2)
    tracer.restore()
    # spans 0..5, 1..4, 2..3: inclusive counts the outermost only
    assert tracer.inclusive() == {"a.countdown": 5.0}
    assert tracer.self_times() == {"a": 5.0}


def test_reference_diff_tolerates_float_noise_not_verdicts():
    want = {"passed": True, "rows": [{"lhs": "1.0000000000000000", "n": 3}]}
    close = {"passed": True, "rows": [{"lhs": "1.0000000000001", "n": 3}]}
    assert diff_report(close, want) is None
    assert diff_report({"passed": True, "rows": [{"lhs": "1.001", "n": 3}]}, want)
    assert diff_report({"passed": False, "rows": [{"lhs": "1.0", "n": 3}]}, want)
    assert diff_report({"passed": True, "rows": [{"lhs": "1.0", "n": 4}]}, want)
