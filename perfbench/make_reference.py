"""Write the reference outputs the benchmark checks its runs against.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py

For each workload it runs the experiment once and stores the set of report
files it writes. For the workloads on the bundled configs it also stores the
reports that do not depend on the seed: the weights and flatten groups and
the manufactured-convergence study. Regenerate only when a change is meant
to alter these outputs, and say so in the change.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

from wparab import cli
from workloads import WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
SEED = 0
SEED_FREE = ("weights__", "flatten__", "solve__manufactured-convergence")


def main() -> None:
    work = BENCH / "_work" / "reference"
    for workload in WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(make_config(workload, SEED)))
        out = work / "out"
        code = cli.run_experiment(str(config), str(out), seed=SEED)
        if code != 0:
            raise SystemExit(f"{workload}: exit code {code}")
        files = sorted(p.name for p in out.iterdir())
        reports = {}
        if workload != "sampled-geometry":
            reports = {name: json.loads((out / name).read_text()) for name in files
                       if name.endswith(".json") and name.startswith(SEED_FREE)}
        (BENCH / "reference" / f"{workload}.json").write_text(
            json.dumps({"files": files, "reports": reports}, indent=1,
                       sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
