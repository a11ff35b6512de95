"""The reports the benchmark pins (``perfbench/reference/*.json``) agree
with the goldens within the benchmark's own tolerance.

``perfbench/checks.diff_report`` (relative 1e-9) fails a benchmark run whose
report moved from the pinned one, so a change that moves a pinned report
that far fails here too, before the benchmark runs. Each pinned report is
compared with the golden of the same bundled config, except power-all's
manufactured convergence: that workload solves ``workloads.POWER_LEVELS``,
so its solve group is run here from ``workloads.make_config``.
"""
import json
import sys
from pathlib import Path

import pytest

from wparab.cli import RunContext, run_solve
from wparab.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import diff_report  # noqa: E402
from workloads import make_config  # noqa: E402

GOLDEN = {"identity-all": "identity", "power-all": "power_weight"}
RUN_SOLVE = {("power-all", "solve__manufactured-convergence.json")}


def pinned():
    for path in sorted((ROOT / "perfbench" / "reference").glob("*.json")):
        for name, report in json.loads(path.read_text())["reports"].items():
            yield path.stem, name, report


@pytest.fixture(scope="module")
def power_solve(tmp_path_factory):
    """power-all's solve group, run once from its workload config."""
    out = tmp_path_factory.mktemp("power-all")
    (out / "cfg.json").write_text(json.dumps(make_config("power-all", 0, ROOT)))
    cfg = ExperimentConfig.load(out / "cfg.json")
    run = RunContext(cfg, cfg.seed, out)
    reports = {f"solve__{rep.check}.json": json.loads(rep.to_json())
               for rep in run_solve(run)}
    run.dump.result()
    return reports


def test_every_workload_on_a_bundled_config_pins_reports():
    assert {workload for workload, _, _ in pinned()} == set(GOLDEN)


@pytest.mark.parametrize("workload, name, report",
                         [pytest.param(*case, id=f"{case[0]}/{case[1]}") for case in pinned()])
def test_pinned_report_matches(workload, name, report, request):
    if (workload, name) in RUN_SOLVE:
        got = request.getfixturevalue("power_solve")[name]
    else:
        got = json.loads((ROOT / "tests" / "golden" / GOLDEN[workload] / name).read_text())
    assert diff_report(got, report) is None
