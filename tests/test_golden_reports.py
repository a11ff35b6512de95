"""``golden_reports.py --diff`` prints each new-vs-golden mismatch of a
fresh run, one a line, and exits 1 on any."""
import json
import shutil

import pytest

import golden_reports


def test_diff_prints_each_mismatch(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(golden_reports.GOLDEN_DIR / "sampled", golden / "sampled")
    path = golden / "sampled" / "weights__reverse-holder-exponent.json"
    report = json.loads(path.read_text())
    report["rows"][0]["lhs"] = "1.5"
    path.write_text(json.dumps(report))
    monkeypatch.setattr(golden_reports, "GOLDEN_DIR", golden)
    assert golden_reports.diff(["sampled"]) == 1
    assert capsys.readouterr().out == (
        "sampled/weights__reverse-holder-exponent.json.rows[0].lhs: "
        "'2' != golden '1.5'\n")


def test_diff_rejects_an_unknown_config():
    with pytest.raises(SystemExit, match=r"unknown golden configs \['nonesuch'\]"):
        golden_reports.diff(["nonesuch"])
