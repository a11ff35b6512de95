"""The solve group writes ``solution.csv`` from a forked child.

``run_experiment`` must wait for that child on every path, report a failed
dump, and leave no process behind (``conftest.py`` checks that after every
test); the child must not print the parent's buffered output a second
time. Where ``os.fork`` is missing or fails, the dump is written inline. An
unusable ``--out`` is a usage error, and so is a group listed twice.
"""
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import assert_no_child

from wparab import cli
from wparab.cli import main, run_experiment
from wparab.config import ExperimentConfig
from wparab.errors import ConfigError, ToolkitError
from wparab.experiments import convergence_study
from wparab.report import write_csv

SRC = Path(__file__).resolve().parents[1] / "src"
POWER_CONFIG = SRC / "wparab" / "configs" / "power_weight.json"


def write_config(tmp_path, **overrides):
    base = {
        "name": "mini", "seed": 7,
        "weight": {"kind": "constant", "value": 1.0, "domain": [0.0, 1.0]},
        "grid": {"nx": 16, "nt": 64, "t_final": 0.1},
        "audits": {"solve": {"levels": [16, 32]}},
        "selection": ["solve"],
    }
    base.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return path


def reference_csv(config, path):
    """``solution.csv`` of the run's finest solution, written in process one
    row list per node by ``report.write_csv``, so not by the dump's writer."""
    cfg = ExperimentConfig.load(str(config))
    _, solutions = convergence_study(cfg.build_weight(), cfg.audits["solve"].levels,
                                     t_final=cfg.grid.t_final)
    u = solutions[-1]
    rows = [[x, t, value] for t, level in zip(u.grid.t.tolist(), u.u.tolist())
            for x, value in zip(u.grid.x.tolist(), level)]
    return write_csv(path, ["x", "t", "u"], rows).read_bytes()


@pytest.mark.parametrize("make_out", [
    lambda tmp: tmp / "taken",          # an existing file
    lambda tmp: tmp / "taken" / "sub",  # a directory below a file
], ids=["file", "below-file"])
def test_unusable_out_exits_two(tmp_path, capsys, make_out):
    (tmp_path / "taken").write_text("keep")
    out = make_out(tmp_path)
    code = main(["weights", "--config", str(POWER_CONFIG), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: output directory")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert (tmp_path / "taken").read_text() == "keep"


def test_stdout_printed_once(tmp_path):
    # piped stdout is block-buffered, so the verdicts of the groups before
    # solve are still in the buffer when the dump child forks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "wparab.cli", "all", "--config", str(POWER_CONFIG),
         "--out", str(out)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"\[\w+\] [\w-]+: (pass|FAIL)", line) for line in lines)
    assert len(lines) == len(set(lines))
    reports = {f"[{p.stem.split('__')[0]}] {p.stem.split('__')[1]}"
               for p in out.glob("*__*.json")}
    assert {line.rsplit(":", 1)[0] for line in lines} == reports
    assert any(line.startswith("[flatten]") for line in lines)


def test_failed_dump_is_reported_and_reaped(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    (out / "solution.csv").mkdir(parents=True)
    assert run_experiment(str(config), str(out)) == 1
    assert "solution.csv" in capsys.readouterr().err
    assert_no_child()
    assert (out / "solution.bin").is_file()
    assert (out / "solve__manufactured-convergence.json").is_file()

    good = tmp_path / "good"
    assert run_experiment(str(config), str(good)) == 0
    assert_no_child()
    assert (good / "solution.csv").read_bytes() == reference_csv(
        config, tmp_path / "ref.csv")


def test_failure_after_solve_waits_for_the_dump(tmp_path):
    # the zero smallness gate of the audit group fails after solve has forked
    config = write_config(tmp_path, selection=["solve", "audit"],
                          audits={"solve": {"levels": [16, 32]},
                                  "audit": {"R0": 0.5, "delta": 0.0}})
    out = tmp_path / "out"
    assert run_experiment(str(config), str(out)) == 1
    assert_no_child()
    gate = json.loads((out / "audit__oscillation-smallness-gate.json").read_text())
    assert not gate["passed"]
    assert (out / "solution.csv").read_bytes() == reference_csv(
        config, tmp_path / "ref.csv")


@pytest.mark.parametrize("exc, code", [
    (ToolkitError("raised after solve"), 1),
    (ConfigError("raised after solve"), 2),
])
def test_error_after_solve_waits_for_the_dump(tmp_path, monkeypatch, capsys,
                                              exc, code):
    def fail(run):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "audit", fail)
    config = write_config(tmp_path, selection=["solve", "audit"])
    out = tmp_path / "out"
    assert run_experiment(str(config), str(out)) == code
    assert "raised after solve" in capsys.readouterr().err
    assert_no_child()
    assert (out / "solution.csv").read_bytes() == reference_csv(
        config, tmp_path / "ref.csv")


def test_unexpected_exception_still_reaps(tmp_path, monkeypatch):
    def fail(run):
        raise RuntimeError("not a toolkit error")

    monkeypatch.setitem(cli.RUNNERS, "audit", fail)
    config = write_config(tmp_path, selection=["solve", "audit"])
    with pytest.raises(RuntimeError, match="not a toolkit error"):
        run_experiment(str(config), str(tmp_path / "out"))
    assert_no_child()


def test_duplicate_group_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, selection=["solve", "weights", "solve"])
    out = tmp_path / "out"
    assert run_experiment(str(config), str(out)) == 2
    assert capsys.readouterr().err == (
        "config error: audit group 'solve' is listed twice\n")
    assert not out.exists()


def test_inline_dump_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_experiment(str(config), str(out)) == 0
    monkeypatch.undo()
    assert (out / "solution.csv").read_bytes() == reference_csv(
        config, tmp_path / "ref.csv")


def test_fork_failure_dumps_inline(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    config = write_config(tmp_path)
    out = tmp_path / "out"
    fds = sorted(os.listdir("/proc/self/fd"))
    assert run_experiment(str(config), str(out)) == 0
    assert sorted(os.listdir("/proc/self/fd")) == fds  # the unused pipe is closed
    monkeypatch.undo()
    assert (out / "solution.csv").read_bytes() == reference_csv(
        config, tmp_path / "ref.csv")
