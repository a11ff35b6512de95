"""The flatten group's values are computed in a forked child when another
group precedes it, and written by the run at flatten's turn.

The run must look exactly like an inline one: the same files, the same
stdout in the same order, the same exit codes and error lines. A run that
stops before flatten's turn leaves no flatten file, and ``conftest.py``
checks after every test that no child is left.
"""
import errno
import json
import os

import pytest

from wparab import cli
from wparab.cli import run_experiment
from wparab.errors import EmptyBall

MINI = {
    "name": "mini", "seed": 7,
    "weight": {"kind": "power", "alpha": 0.2, "center": 0.5, "domain": [0.0, 1.0]},
    "grid": {"nx": 16, "nt": 64, "t_final": 0.1},
    "audits": {"solve": {"levels": [16, 32]}},
}


def write_config(tmp_path, selection, **audits):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINI, selection=selection,
                                    audits=dict(MINI["audits"], **audits))))
    return path


@pytest.fixture
def forks(monkeypatch):
    """How many times ``os.fork`` is called (each call still forks)."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def no_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def run(tmp_path, capsys, config, name):
    out = tmp_path / name
    code = run_experiment(str(config), str(out))
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("selection, n_forks", [
    (["weights", "flatten"], 1),
    # flatten and the CSV each in a child
    (["solve", "geometry", "flatten", "weights"], 2),
])
def test_same_outputs_as_inline(tmp_path, capsys, monkeypatch, forks,
                                selection, n_forks):
    config = write_config(tmp_path, selection)
    forked = run(tmp_path, capsys, config, "forked")
    assert len(forks) == n_forks
    monkeypatch.delattr(os, "fork")
    inline = run(tmp_path, capsys, config, "inline")
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    failed_fork = run(tmp_path, capsys, config, "failed-fork")
    assert forked == inline == failed_fork
    code, out, err, files = forked
    assert code == 0 and err == ""
    groups = [line.split("]")[0][1:] for line in out.splitlines()]
    assert list(dict.fromkeys(groups)) == selection
    # flatten's lines and files are those of flatten run alone, in its process
    alone = run(tmp_path, capsys, write_config(tmp_path, ["flatten"]), "alone")
    assert [line for line in out.splitlines() if line.startswith("[flatten]")] == (
        alone[1].splitlines())
    assert {name: data for name, data in files.items()
            if name.startswith("flatten")} == alone[3]
    assert "flatten_sweeps.csv" in alone[3] and "flatten_sweeps.svg" in alone[3]


@pytest.mark.parametrize("selection", [["flatten"], ["flatten", "weights"]])
def test_no_fork_when_nothing_precedes_flatten(tmp_path, capsys, forks, selection):
    code, out, _, files = run(tmp_path, capsys, write_config(tmp_path, selection),
                              "out")
    assert code == 0 and forks == []
    assert out.startswith("[flatten]") and "flatten_sweeps.csv" in files


def test_earlier_failure_leaves_no_flatten_file(tmp_path, capsys, forks):
    # budget * theta^2 >= 1 makes the Poincaré gate raise GateFailed
    config = write_config(tmp_path, ["audit", "flatten"],
                          audit={"poincare_budget": 1e9})
    code, out, err, files = run(tmp_path, capsys, config, "out")
    assert len(forks) == 1
    assert code == 1 and out == ""
    assert err.startswith("audit error: GateFailed: oscillation term too large")
    assert files == {}  # no flatten file


def test_flatten_values_write_no_file(tmp_path, monkeypatch):
    def no_write(*args, **kwargs):
        raise AssertionError("flatten_audits wrote a file")

    for writer in ("write_csv", "write_svg_curves", "write_json"):
        monkeypatch.setattr(cli, writer, no_write)
    monkeypatch.chdir(tmp_path)
    cfg = cli.ExperimentConfig.load(write_config(tmp_path, ["flatten"]))
    reports, rows = cli.flatten_audits(cfg.audits["flatten"])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert len(reports) == 5 and all(rep.passed for rep in reports)
    assert [row[0] for row in rows] == cfg.audits["flatten"].deltas
    assert all(len(row) == 3 for row in rows)


@pytest.mark.parametrize("fork", ["forked", "inline"])
def test_flatten_error_as_inline(tmp_path, capsys, monkeypatch, forks, fork):
    def fail(p):
        raise EmptyBall("raised in flatten")

    monkeypatch.setattr(cli, "flatten_audits", fail)
    if fork == "inline":
        monkeypatch.delattr(os, "fork")
    code, out, err, files = run(
        tmp_path, capsys, write_config(tmp_path, ["weights", "flatten"]), "out")
    assert code == 1 and len(forks) == (fork == "forked")
    assert err == "audit error: EmptyBall: raised in flatten\n"
    assert [line.split("]")[0] for line in out.splitlines()] == ["[weights"] * 3
    assert len(files) == 3 and all(name.startswith("weights__") for name in files)


def test_child_that_dies_fails_the_run(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(cli, "flatten_audits", lambda p: os._exit(1))
    code, out, err, files = run(
        tmp_path, capsys, write_config(tmp_path, ["weights", "flatten"]), "out")
    assert code == 1 and len(forks) == 1
    assert err == ("audit error: ToolkitError: forked child exited with code 1 "
                   "before sending its result\n")
    assert "[flatten]" not in out
    assert not any(name.startswith("flatten") for name in files)
    assert all(p.is_file() for p in (tmp_path / "out").iterdir())
