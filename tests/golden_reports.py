"""Golden reports of the bundled configs and a tolerance-aware comparator.

``tests/golden/<config>/`` holds every JSON report and every sweep CSV that
``wparab all`` writes for the config at :func:`config_path` at its seed,
except the solution dumps and the SVG plots. The configs are the two
bundled ones, ``src/wparab/configs/<config>.json``, and ``sampled``
(``tests/configs/sampled.json``): the weights and geometry groups on a
256-cell sampled weight, |x - 1/2|^0.2 times a seeded log-normal factor,
with its samples written out. Floats compare within a relative tolerance
of 1e-12; verdicts, labels, integers and the file set must match exactly.
The solution dumps are checked byte for byte through their SHA-256
digests in ``solution.sha256``.

Regenerate the goldens only for a change that is meant to alter reports,
and only those of the configs it alters (all of them when none is named).
Run as a script, the tool imports ``wparab`` from this checkout's ``src``:

    python tests/golden_reports.py [CONFIG ...]

``--diff`` runs the named configs (all when none is named) into a
temporary directory instead and prints every new-vs-golden mismatch, the
old -> new list a golden-moving change records; it exits 1 on any:

    python tests/golden_reports.py --diff [CONFIG ...]
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "src" / "wparab" / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TEST_CONFIG_DIR = Path(__file__).resolve().parent / "configs"
CONFIGS = ("identity", "power_weight", "sampled")
RTOL = 1e-12
SOLUTION_DUMPS = ("solution.csv", "solution.bin")
SOLUTION_DIGESTS = "solution.sha256"


def config_path(config: str) -> Path:
    """The config file whose goldens sit in ``tests/golden/<config>/``."""
    bundled = CONFIG_DIR / f"{config}.json"
    return bundled if bundled.is_file() else TEST_CONFIG_DIR / f"{config}.json"


def golden_files(out_dir: Path) -> list[str]:
    """Report files of a run that the goldens cover, sorted by name."""
    return sorted(p.name for p in Path(out_dir).iterdir()
                  if p.suffix == ".json"
                  or (p.suffix == ".csv" and p.name != "solution.csv"))


def solution_digests(out_dir: Path) -> str:
    """``sha256sum``-style lines for the solution dumps of a run."""
    lines = []
    for name in SOLUTION_DUMPS:
        path = Path(out_dir) / name
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            digest = "missing"
        lines.append(f"{digest}  {name}\n")
    return "".join(lines)


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _same_scalar(got, want) -> bool:
    # report floats are strings; JSON ints, verdicts and nulls are not
    if not (isinstance(got, str) and isinstance(want, str)):
        return type(got) is type(want) and got == want
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None or want.lstrip("-").isdigit():
        return got == want  # labels and integer cells
    if math.isnan(w):
        return math.isnan(g)
    return g == w or math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0)


def _diff(got, want, where: str, out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            out.append(f"{where}: keys differ")
            return
        for key in want:
            _diff(got[key], want[key], f"{where}.{key}", out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{where}[{i}]", out)
    elif not _same_scalar(got, want):
        out.append(f"{where}: {got!r} != golden {want!r}")


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return list(csv.reader(path.read_text().splitlines()))


def compare_to_golden(out_dir: Path, config: str) -> list[str]:
    """Mismatches between a run's reports and the goldens of ``config``."""
    golden = GOLDEN_DIR / config
    want_files = golden_files(golden)
    got_files = golden_files(out_dir)
    if got_files != want_files:
        return [f"{config}: report files {got_files} != golden {want_files}"]
    problems: list[str] = []
    if solution_digests(out_dir) != (golden / SOLUTION_DIGESTS).read_text():
        problems.append(f"{config}: solution dumps differ from {SOLUTION_DIGESTS}")
    for name in want_files:
        _diff(_load(Path(out_dir) / name), _load(golden / name),
              f"{config}/{name}", problems)
    return problems


def _known(configs):
    unknown = sorted(set(configs) - set(CONFIGS))
    if unknown:
        raise SystemExit(f"unknown golden configs {unknown}; known: {list(CONFIGS)}")
    return configs


def diff(configs=CONFIGS) -> int:
    """Print the mismatches between fresh runs of ``configs`` and their
    goldens, one a line; 1 if there are any, else 0."""
    from wparab.cli import run_experiment

    problems: list[str] = []
    for config in _known(configs):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = run_experiment(str(config_path(config)), tmp)
            if code != 0:
                problems.append(f"{config}: wparab all exited {code}")
            problems += compare_to_golden(Path(tmp), config)
    print("\n".join(problems), end="\n" if problems else "")
    return 1 if problems else 0


def regenerate(configs=CONFIGS) -> None:
    from wparab.cli import run_experiment

    for config in _known(configs):
        with tempfile.TemporaryDirectory() as tmp:
            code = run_experiment(str(config_path(config)), tmp)
            if code != 0:
                raise SystemExit(f"{config}: wparab all exited {code}")
            target = GOLDEN_DIR / config
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name in golden_files(Path(tmp)):
                shutil.copyfile(Path(tmp) / name, target / name)
            (target / SOLUTION_DIGESTS).write_text(solution_digests(Path(tmp)))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:2] == ["--diff"]:
        sys.exit(diff(sys.argv[2:] or CONFIGS))
    regenerate(sys.argv[1:] or CONFIGS)
