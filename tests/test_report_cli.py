import dataclasses
import json
import math
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import cli, geometry, maximal, report, solver
from wparab.cli import main, run_experiment
from wparab.config import PARAMS, ExperimentConfig
from wparab.errors import ConfigError
from wparab.report import (
    AuditReport,
    AuditRow,
    fmt_float,
    fmt_floats,
    json_dumps,
    ratio,
    write_csv,
    write_json,
    write_svg_curves,
)
from wparab.solver import solve_frozen, write_solution_binary, write_solution_csv
from wparab.experiments import ManufacturedCase
from wparab.weights import Weight

IDENTITY_CONFIG = Path(cli.__file__).parent / "configs" / "identity.json"


def edge_floats() -> list[float]:
    """Doubles on both sides of each edge of fmt_floats' vectorized path."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              math.nan, math.inf, 123456789.0,
              # exact 17-digit ties, rounded half to even: down, then up
              1000000000000000.25, 1000000000000000.75]
    for j in range(-31, 18):  # every power of ten in range, and the next ones out
        p = float(f"1e{j}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf),
                   np.nextafter(np.nextafter(p, 0.0), 0.0)]
    return values + [-x for x in values]


class TestReportFormat:
    def test_float_formatting_17_digits(self):
        assert fmt_float(1.0 / 3.0) == format(1.0 / 3.0, ".17g")
        assert fmt_float(math.inf) == "Infinity"
        assert fmt_float(float("nan")) == "NaN"

    # 2,000 floats in 250 examples: hypothesis spends most of the time per
    # example, so eight floats per example keep the test under a second
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.lists(st.floats(), min_size=8, max_size=8))  # NaN, ±inf, ±0, subnormals
    def test_fmt_floats_matches_fmt_float(self, xs):
        xs += [-x for x in xs]
        assert fmt_floats(np.array(xs)).tolist() == [fmt_float(x).encode() for x in xs]

    def test_fmt_floats_edges(self):
        values = edge_floats()
        assert fmt_floats(np.array(values)).tolist() == [fmt_float(x).encode()
                                                         for x in values]
        # fl(1e-14) < 10^-14, yet its 17-digit rounding carries into 1e-14
        assert Fraction(1e-14) < Fraction(1, 10 ** 14) and fmt_float(1e-14) == "1e-14"

    @pytest.mark.parametrize("toward", [-math.inf, math.inf], ids=["low", "high"])
    def test_fmt_floats_checks_its_exponent(self, monkeypatch, toward):
        # a log10 one ulp off misjudges floor(log10 |v|) next to each power
        # of ten; such a value must still come out as fmt_float writes it
        real = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(real(a), toward))
        values = edge_floats()
        assert fmt_floats(np.array(values)).tolist() == [fmt_float(x).encode()
                                                         for x in values]

    def test_json_sorted_and_stable(self):
        obj = {"b": 2, "a": [1.5, {"z": 0.1, "y": None}]}
        s1, s2 = json_dumps(obj), json_dumps(obj)
        assert s1 == s2
        parsed = json.loads(s1)
        assert list(parsed.keys()) == ["a", "b"]

    def test_numpy_values_serializable(self):
        row = AuditRow(label="x", lhs=np.float64(1.5), rhs=np.float64(2.0),
                       constant=np.float64(0.75), budget=1.0, passed=True,
                       extra={"arr": np.arange(3)})
        rep = AuditReport.from_rows("demo", [row], {})
        parsed = json.loads(rep.to_json())
        assert parsed["rows"][0]["extra"]["arr"] == [0, 1, 2]

    @pytest.mark.parametrize("lhs, rhs, n", [(0.0, 0.0, 0.0), (1.0, 0.0, math.inf),
                                             (1.0, 2.0, 0.5)])
    def test_ratio(self, lhs, rhs, n):
        assert ratio(lhs, rhs) == n

    def test_infinite_or_nan_constant_never_passes(self):
        rows = [AuditRow.bound("a", 1.0, 0.0, math.inf),
                AuditRow.bound("b", math.nan, 1.0, math.inf),
                AuditRow.at_most("c", math.inf, math.inf),
                AuditRow.at_least("d", math.inf, 0.0),
                AuditRow.at_least("e", math.nan, 0.0)]
        assert [r.passed for r in rows] == [False] * 5
        assert AuditRow.bound("f", 0.0, 0.0, 0.0).passed

    def test_count_row(self):
        assert dataclasses.astuple(AuditRow.count("x", 3)) == (
            "x", 3.0, 0.0, 3.0, 0.0, False, {})
        assert AuditRow.count("x", 0).passed

    def test_report_pass_aggregation(self):
        rows = [AuditRow("a", 1, 2, 0.5, 1, True),
                AuditRow("b", 3, 2, 1.5, 1, False)]
        rep = AuditReport.from_rows("demo", rows, {})
        assert not rep.passed

    def test_report_without_rows_fails(self):
        # all([]) is True: a check that ran no row would pass
        rep = AuditReport.from_rows("demo", [], {})
        assert not rep.passed
        assert json.loads(rep.to_json())["passed"] is False

    def test_empty_sweep_header_only_csv(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", ["m", "lhs", "rhs"], [])
        assert path.read_text() == "m,lhs,rhs\n"

    def test_decay_table_schema(self, tmp_path):
        rows = [[1, 0.5, 0.6, 2.0], [2, 0.25, 0.3, 2.0]]
        path = write_csv(tmp_path / "decay.csv",
                         ["m", "lhs", "rhs", "gamma1_fit"], rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,lhs,rhs,gamma1_fit"
        assert len(lines) == 3

    def test_svg_written(self, tmp_path):
        path = write_svg_curves(tmp_path / "plot.svg",
                                [("c", [1.0, 2.0, 4.0], [1.0, 0.5, 0.25])],
                                title="demo", logx=True, logy=True)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_write_json_report(self, tmp_path):
        rep = AuditReport.from_rows(
            "demo", [AuditRow("a", 1.0, 2.0, 0.5, 1.0, True)], {})
        path = write_json(tmp_path / "rep.json", rep)
        assert json.loads(path.read_text())["check"] == "demo"


class TestSolutionDumps:
    def solution(self):
        case = ManufacturedCase(Weight.constant(1.0, (0.0, 1.0)))
        u, _ = case.solve(8, 8, 0.1)
        return u

    def test_csv_columns(self, tmp_path):
        u = self.solution()
        path = write_solution_csv(tmp_path / "sol.csv", u)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,u"
        assert len(lines) == 1 + 9 * 9

    def old_solution_csv(self, path, u):
        """The former dump: one row list per node, written by write_csv."""
        rows = []
        for k, t in enumerate(u.grid.t):
            for i, x in enumerate(u.grid.x):
                rows.append([float(x), float(t), float(u.u[k, i])])
        return write_csv(path, ["x", "t", "u"], rows)

    def test_csv_bytes_match_row_list_writer(self, tmp_path):
        case = ManufacturedCase(Weight.constant(1.0, (0.0, 1.0)))
        u, _ = case.solve(8, 4, 0.1)
        bad = dataclasses.replace(u, u=u.u.copy())
        bad.u[1, 2], bad.u[2, 3], bad.u[4, 0] = math.nan, math.inf, -math.inf
        # signed zero, subnormal, tiny, huge and integer-valued doubles
        edge = dataclasses.replace(u, u=u.u.copy())
        edge.u[0, :5] = -0.0, 5e-324, 1e-300, 1e22, 123456789.0
        edge.u[3, 1:3] = -5e-324, -1e22
        # x strings in exponent form on both ends of the range
        wide = dataclasses.replace(
            edge, grid=dataclasses.replace(u.grid, x0=1e-20, x1=1e22))
        assert "e-" in fmt_float(wide.grid.x[0])
        assert "e+" in fmt_float(wide.grid.x[1])
        # the neighbours of every power of ten, more values than one block
        long, _ = case.solve(8, 2048, 0.1)
        powers = dataclasses.replace(long, u=np.resize(edge_floats(), long.u.shape))
        assert powers.u.size > solver.CSV_BLOCK
        for sol, name in ((u, "finite"), (bad, "nonfinite"), (edge, "edge"),
                          (wide, "wide"), (powers, "powers")):
            got = write_solution_csv(tmp_path / f"{name}.csv", sol).read_bytes()
            ref = self.old_solution_csv(tmp_path / f"{name}-ref.csv", sol)
            assert got == ref.read_bytes(), name
            if name == "nonfinite":
                assert b"NaN" in got and b",Infinity" in got and b"-Infinity" in got

    def test_finest_identity_dump_formats_few_values_one_by_one(self, tmp_path,
                                                                monkeypatch):
        # a kernel change that sent most values to fmt_float would still
        # write the same bytes, only slower
        cfg = ExperimentConfig.load(str(IDENTITY_CONFIG))
        u, _ = ManufacturedCase(cfg.build_weight()).solve(128, 4096, cfg.grid.t_final)
        assert u.u.shape == (4097, 129)
        calls = []
        real = report.fmt_float
        monkeypatch.setattr(report, "fmt_float", lambda x: calls.append(x) or real(x))
        write_solution_csv(tmp_path / "sol.csv", u)
        # none: the two boundary zeros of each time level, x = 0 and t = 0
        # take the vector path too
        assert calls == []

    def test_csv_parses_back_to_binary_payload(self, tmp_path):
        case = ManufacturedCase(Weight.constant(1.0, (0.0, 1.0)))
        u, _ = case.solve(8, 4, 0.1)
        lines = write_solution_csv(tmp_path / "sol.csv", u).read_text().splitlines()
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        blob = write_solution_binary(tmp_path / "sol.bin", u).read_bytes()
        payload = np.frombuffer(blob[struct.calcsize("<4sBcIIdddd"):], dtype="<f8")
        assert np.array_equal(table[:, 2], payload)
        assert np.array_equal(table[:, 0], np.tile(u.grid.x, u.grid.nt + 1))
        assert np.array_equal(table[:, 1], np.repeat(u.grid.t, u.grid.nx + 1))

    def test_binary_header_roundtrip(self, tmp_path):
        u = self.solution()
        path = write_solution_binary(tmp_path / "sol.bin", u)
        blob = path.read_bytes()
        magic, version, endian, n_nodes, n_times, x0, h, t0, tau = \
            struct.unpack_from("<4sBcIIdddd", blob)
        assert magic == b"WPRB" and endian == b"<"
        assert (n_nodes, n_times) == (9, 9)
        payload = np.frombuffer(blob[struct.calcsize("<4sBcIIdddd"):],
                                dtype="<f8").reshape(n_times, n_nodes)
        assert np.allclose(payload, u.u)

    def test_binary_header_holds_the_grid_time_origin(self, tmp_path):
        # a frozen solve's grid starts at the bottom of its time span
        v = solve_frozen(1.0, 1.0, (-0.5, 0.5), (0.1, 0.3), 8, 4,
                         lambda x, t: np.asarray(x) ** 2 + 2.0 * t)
        blob = write_solution_binary(tmp_path / "sol.bin", v).read_bytes()
        x0, h, t0, tau = struct.unpack_from("<4sBcIIdddd", blob)[5:]
        assert (x0, h, t0, tau) == (-0.5, v.grid.h, 0.1, v.grid.tau)


class TestConfig:
    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.load("/nonexistent/config.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(bad)

    def test_unknown_group_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": 1, "selection": ["nope"]})

    def test_bad_weight_spec(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": 1,
                 "weight": {"kind": "power", "domain": [0, 1]}})

    def test_closed_bound_and_infinite_budget_accepted(self):
        cfg = ExperimentConfig.from_dict({"name": "x", "seed": 1, "audits": {
            "weights": {"n1_budget": math.inf}, "audit": {"delta": 0}}})
        assert cfg.audits["weights"].n1_budget == math.inf
        assert cfg.audits["audit"].delta == 0.0
        with pytest.raises(ConfigError, match="grid.t_final must be a finite"):
            ExperimentConfig.from_dict({"name": "x", "seed": 1,
                                        "grid": {"t_final": math.inf}})

    def test_weight_builders(self):
        cfg = ExperimentConfig.from_dict(
            {"name": "x", "seed": 1,
             "weight": {"kind": "power", "alpha": 0.2, "center": 0.5,
                        "domain": [0.0, 1.0]}})
        w = cfg.build_weight()
        assert w.kind == "power" and w.alpha == 0.2


def bad_values(section, key, param):
    """(section, key, value) cases the table must reject: a string, an empty
    list for a list key, and a value just outside each bound of the range."""
    many = param.kind in ("ints", "floats")
    outside = [bound for bound in (param.gt, param.lt) if bound is not None]
    if param.ge is not None:
        outside.append(param.ge - 1 if param.kind in ("int", "ints")
                       else math.nextafter(param.ge, -math.inf))
    values = ["abc"] + ([[]] if many else [])
    values += [[v] if many else v for v in outside]
    return [pytest.param(section, key, v, id=f"{section}.{key}={v!r}")
            for v in values]


class LevelsetDrawn(Exception):
    """Stops ``run_levelset`` once its random draws are made."""


class TestLevelsetStreams:
    """The levelset group draws its fields and its Vitali cylinders from
    independent streams of the run seed."""

    @staticmethod
    def draws(monkeypatch, tmp_path, seed: int, n_fields: int) -> dict:
        """The fields and the selected Vitali cylinders of one run."""
        got = {}

        def weak(fields, *args, **kwargs):
            got["fields"] = [f.values for f in fields]
            return []

        def cover(cyls, chosen, w):
            got["chosen"] = [(cyls[i].x0, cyls[i].t0, cyls[i].r) for i in chosen]
            raise LevelsetDrawn

        monkeypatch.setattr(cli, "weak_1_1_audit", weak)
        monkeypatch.setattr(cli, "five_rho_cover_audit", cover)
        cfg = ExperimentConfig.load(IDENTITY_CONFIG)
        cfg.audits["levelset"].n_fields = n_fields
        with pytest.raises(LevelsetDrawn):
            cli.run_levelset(cli.RunContext(cfg, seed, tmp_path))
        return got

    def test_neighbouring_seeds_share_no_field(self, monkeypatch, tmp_path):
        # with one stream per seed + i, field i of seed s was field i - 1 of s + 1
        seven = self.draws(monkeypatch, tmp_path, 7, 5)["fields"]
        eight = self.draws(monkeypatch, tmp_path, 8, 5)["fields"]
        for i in range(1, 5):
            assert not np.array_equal(seven[i], eight[i - 1])

    def test_streams_do_not_depend_on_the_field_count(self, monkeypatch, tmp_path):
        one = self.draws(monkeypatch, tmp_path, 7, 1)
        five = self.draws(monkeypatch, tmp_path, 7, 5)
        assert np.array_equal(one["fields"][0], five["fields"][0])
        assert one["chosen"] == five["chosen"]


class TestCliExits:
    def write_config(self, tmp_path, overrides):
        base = {
            "name": "mini", "seed": 7,
            "weight": {"kind": "constant", "value": 1.0, "domain": [0.0, 1.0]},
            "grid": {"nx": 16, "nt": 64, "t_final": 0.1},
            "audits": {"weights": {"M0": 1.5},
                       "geometry": {"samples": 500, "relations_r": 0.2}},
            "selection": ["weights"],
        }
        base.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        return path

    def test_exit_zero_on_pass(self, tmp_path):
        cfg = self.write_config(tmp_path, {})
        assert run_experiment(str(cfg), str(tmp_path / "out")) == 0
        assert (tmp_path / "out" /
                "weights__heat-capacity-weight-condition.json").exists()

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_experiment(str(bad), str(tmp_path / "out")) == 2
        sampled = {"kind": "sampled", "domain": [0.0, 1.0],
                   "samples": [1.0, 2.0, 1.0, 2.0]}
        for overrides in (
                {"selection": ["solve"], "audits": {"solve": {"levels": []}}},
                {"grid": {"nx": 1, "nt": 64, "t_final": 0.1}},
                {"weight": sampled, "selection": ["solve"]},
                {"weight": sampled, "selection": ["audit"]},
                {"weight": sampled, "selection": ["levelset"]},
                {"audits": {"audit": {"energy_budjet": 5.0}}},
                {"coefficient": {"base": "abc"}, "selection": ["audit"]},
                {"coefficient": {"base": 1.0, "oscilation": 0.3}},
                {"grid": {"nx": 16.7, "nt": 64, "t_final": 0.1}},
                {"grid": {"nx": 16, "nt": 100.5, "t_final": 0.1}},
                {"selection": ["solve"], "audits": {"solve": {"levels": [16.5, 32]}}},
                {"selection": ["solve"], "audits": {"solve": {"levels": 32}}},
                {"audits": {"levelset": {"K": "abc"}}},
                {"audits": {"audit": {"R0": -1}}},
                {"audits": {"audit": {"R0": 0.0}}},
                {"audits": {"audit": {"R0": 1.0}}},
                {"audits": {"audit": {"delta": -0.1}}},
                {"audits": {"geometry": {"samples": 0}}},
                {"audits": {"audit": {"freeze_amplitudes": "x"}}},
                {"audits": {"solve": {"p_values": [0]}}},
                {"audits": {"flatten": {"deltas": []}}},
                {"audits": {"weights": {"M0": 0}}},
                {"audits": {"weights": {"n_centers": 2.5}}},
                {"audits": {"levelset": {"m_max": 2.5}}},
                {"audits": {"weights": {"theta": "0.5"}}},
                {"audits": {"levelset": {"lambdas": []}}},
                {"seed": "abc"},
                {"seed": -1},
                {"seed": 2.5},
                {"seed": True},
                {"weight": {"kind": "power", "alpha": -1.5, "domain": [0.0, 1.0]}},
                {"weight": {"kind": "sampled", "domain": [0.0, 1.0], "samples": []}},
                # a weight key its kind does not read
                {"weight": {"kind": "power", "alpha": 0.2, "centre": 0.3}},
                {"weight": {"kind": "constant", "value": 2.0, "alpha": 0.7}},
                {"weight": {"kind": "sampled", "quadrature": "midpoint",
                            "domain": [0.0, 1.0], "samples": [1.0, 2.0]}},
                {"weight": {"kind": "sampled", "domain": [0.0, 1.0],
                            "samples": [1.0, "NaN", 2.0, 1.0]},
                 "selection": ["weights", "geometry"]},
                # every run group is one-dimensional
                {"weight": {"kind": "power", "alpha": 0.2, "center": [0.5, 0.5],
                            "domain": [[0, 1], [0, 1]]},
                 "selection": ["weights", "geometry", "audit"]},
                {"weight": {"kind": "sampled", "samples": [[1.0, 2.0], [2.0, 1.0]],
                            "domain": [[0, 1], [0, 1]]}},
                # input errors that used to end as audit results with exit 1
                {"audits": {"weights": {"tol_quad": -1}}},
                {"audits": {"flatten": {"t0": -1}}, "selection": ["flatten"]},
                {"audits": {"audit": {"freeze_amplitudes": [-5]}},
                 "selection": ["audit"]},
                # a selection that is no non-empty list of group names
                {"selection": 5}, {"selection": None}, {"selection": []},
                {"selection": "weights"}, {"selection": ["weights", 5]}):
            cfg = self.write_config(tmp_path, overrides)
            assert run_experiment(str(cfg), str(tmp_path / "out")) == 2, overrides
        # a group named on the command line is checked the same way
        cfg = self.write_config(tmp_path, {"weight": sampled})
        assert run_experiment(str(cfg), str(tmp_path / "out"), groups=["solve"]) == 2
        # and so is a seed given on the command line
        cfg = self.write_config(tmp_path, {})
        assert main(["weights", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be an integer, got 'abc'" in err
        assert "seed must satisfy seed >= 0, got -1" in err
        assert "seed must be an integer, got 2.5" in err
        assert "seed must be an integer, got True" in err
        assert "--seed must satisfy --seed >= 0, got -1" in err
        assert "invalid weight spec: alpha = -1.5" in err
        assert "invalid weight spec: a sampled weight needs at least one cell value" in err
        assert "unknown key(s) ['centre'] in the power weight" in err
        assert "unknown key(s) ['alpha'] in the constant weight" in err
        assert "unknown key(s) ['quadrature'] in the sampled weight" in err
        assert "invalid weight spec: sample values must be finite" in err
        assert err.count("weight.domain must be one interval [lo, hi], "
                         "got [[0, 1], [0, 1]]") == 2
        assert "levels" in err and "nx >= 2" in err and "sampled" in err
        assert "energy_budjet" in err
        assert "coefficient.base" in err and "oscilation" in err
        assert "grid.nx must be an integer, got 16.7" in err
        assert "grid.nt must be an integer, got 100.5" in err
        assert "levels must be an integer, got 16.5" in err
        assert "audits.weights.tol_quad must satisfy tol_quad >= 0, got -1" in err
        assert "audits.flatten.t0 must satisfy t0 > 0, got -1" in err
        assert "audits.audit.R0 must satisfy R0 > 0 and R0 < 1, got 0.0" in err
        assert "audits.audit.R0 must satisfy R0 > 0 and R0 < 1, got 1.0" in err
        assert "audits.audit.delta must satisfy delta >= 0, got -0.1" in err
        assert ("each of audits.audit.freeze_amplitudes must satisfy "
                "freeze_amplitudes > -1 and freeze_amplitudes < 1, got -5") in err
        for got in ("5", "None", "[]", "'weights'", "['weights', 5]"):
            assert ("selection must be a non-empty list of audit group names, "
                    f"got {got}\n") in err
        # the numbers of a weight spec, each named in its message
        for spec, message in (
                ({"kind": "constant", "value": math.nan}, "weight.value must be a finite"),
                ({"kind": "constant", "value": True}, "weight.value must be a finite"),
                ({"kind": "constant", "value": 0.0}, "weight.value must satisfy value > 0"),
                ({"kind": "power", "alpha": "0.2"}, "weight.alpha must be a finite"),
                ({"kind": "power", "alpha": math.nan}, "weight.alpha must be a finite"),
                ({"kind": "power", "alpha": 0.2, "scale": math.inf},
                 "weight.scale must be a finite"),
                ({"kind": "power", "alpha": 0.2, "scale": -2.0},
                 "weight.scale must satisfy scale > 0"),
                ({"kind": "power", "alpha": 0.2, "center": math.nan},
                 "weight.center must be a finite"),
                ({"kind": "power", "alpha": 0.2, "center": [0.5]},
                 "weight.center must be a finite"),
                ({"kind": "power", "alpha": 0.2, "domain": [1.0, 0.0]},
                 "weight.domain[1] must satisfy domain[1] > 1"),
                ({"kind": "constant", "domain": [0.5, 0.5]},
                 "weight.domain[1] must satisfy domain[1] > 0.5"),
                ({"kind": "constant", "domain": [-math.inf, 1.0]},
                 "weight.domain[0] must be a finite"),
                ({"kind": "constant", "domain": [0.0, "1"]},
                 "weight.domain[1] must be a finite"),
                ({"kind": "constant", "domain": [0.0, 0.5, 1.0]},
                 "weight.domain must be one interval"),
                ({"kind": "sampled", "samples": [1.0, 2.0], "domain": [[0.0, math.nan]]},
                 "weight.domain[1] must be a finite"),
                ({"kind": "power", "center": 0.5}, "weight spec missing key 'alpha'")):
            cfg = self.write_config(tmp_path, {"weight": spec})
            assert run_experiment(str(cfg), str(tmp_path / "out")) == 2, spec
            assert message in capsys.readouterr().err, spec

    @pytest.mark.parametrize("audits, message", [
        # one level has no order of convergence: its report had no rows
        ({"solve": {"levels": [16]}},
         "audits.solve.levels must hold at least two strictly increasing "
         "grid sizes, got [16]"),
        ({"solve": {"levels": [64, 32]}},
         "audits.solve.levels must hold at least two strictly increasing "
         "grid sizes, got [64, 32]"),
        ({"levelset": {"lambdas": [-1.0]}},
         "each of audits.levelset.lambdas must satisfy lambdas > 0, got -1.0"),
        # a unit cylinder of radius 0 has measure 0
        ({"levelset": {"r_unit": 0.0}},
         "audits.levelset.r_unit must satisfy r_unit > 0, got 0.0"),
        # the level-set recursion needs K > 1, 0 < q0 < 1 and m_max >= 1
        ({"levelset": {"K": 1.0}}, "audits.levelset.K must satisfy K > 1, got 1.0"),
        ({"levelset": {"q0": 1.0}},
         "audits.levelset.q0 must satisfy q0 > 0 and q0 < 1, got 1.0"),
        ({"levelset": {"m_max": 0}},
         "audits.levelset.m_max must satisfy m_max >= 1, got 0"),
        # the a-priori ratio is defined for p >= 2
        ({"solve": {"p_values": [1.5]}},
         "each of audits.solve.p_values must satisfy p_values >= 2, got 1.5"),
        # the flatten group's chart is the sweep's last slope, so a separate
        # delta is an unknown key; each slope must lie in [0, 1)
        ({"flatten": {"delta": 1.0}},
         "unknown key(s) ['delta'] in audits.flatten; known keys are "
         "['Lambda', 'M0', 'R', 'alpha', 'deltas', 't0']"),
        ({"flatten": {"deltas": [0.05, 1.0]}},
         "each of audits.flatten.deltas must satisfy deltas >= 0 and deltas < 1, "
         "got 1.0"),
    ], ids=["levels-one", "levels-decreasing", "lambdas-negative", "r_unit-zero",
            "K-one", "q0-one", "m_max-zero", "p_values-below-two", "delta-one",
            "deltas-one"])
    def test_exit_two_on_degenerate_sweep(self, tmp_path, capsys, audits, message):
        cfg = self.write_config(tmp_path, {"audits": audits})
        out = tmp_path / "out"
        assert main(["weights", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()

    def test_relations_x0_inside_the_weight_domain(self, tmp_path, capsys):
        # outside its domain a sampled weight is 0, so is every cylinder's
        # height there, and the cylinder-ball relations passed with exit 0
        raw = json.loads((Path(__file__).parent / "configs" / "sampled.json").read_text())
        weight = ExperimentConfig.from_dict(raw).build_weight()
        assert geometry.height(weight, 5.0, 0.25) == 0.0
        geo = raw["audits"]["geometry"]
        for x0 in (0.0, 1.0):  # the domain's ends
            geo["relations_x0"] = x0
            assert ExperimentConfig.from_dict(raw).audits["geometry"].relations_x0 == x0
        out = tmp_path / "out"
        for x0 in (5.0, -1e-9, math.nextafter(1.0, 2.0)):
            geo["relations_x0"] = x0
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: audits.geometry.relations_x0 must lie in the weight "
                f"domain [0, 1], got {x0!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("group", ["solve", "audit", "levelset"])
    def test_exit_two_on_moved_domain(self, tmp_path, capsys, group):
        # the manufactured problem is solved on (0, 1) only; a weight on
        # [3, 4] made its solve group fail and the audit group stop with an
        # EmptyBall error
        moved = {"kind": "power", "alpha": 0.2, "center": 3.5, "domain": [3.0, 4.0]}
        cfg = self.write_config(tmp_path, {"weight": moved})
        out = tmp_path / "out"
        assert main([group, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert "[3.0, 4.0]" in err and "ROADMAP item 10" in err
        assert not out.exists()
        # the groups without a solve take the weight's domain
        assert main(["weights", "--config", str(cfg), "--out", str(out)]) == 0

    def test_exit_two_on_centre_beyond_the_series(self, tmp_path, capsys):
        # the manufactured forcing's series is within 4e-13 of quadrature
        # for |x - c| <= 3 on (0, 1), 1.4e-10 off at 4 and 1e-5 at 5
        out = tmp_path / "out"
        for centre in (-2.0, 3.0):  # the range's ends
            far = {"kind": "power", "alpha": 0.2, "center": centre, "domain": [0.0, 1.0]}
            cfg = ExperimentConfig.from_dict(json.loads(self.write_config(
                tmp_path, {"weight": far, "selection": ["solve"]}).read_text()))
            assert cfg.build_weight().center == (centre,)
        for centre in (math.nextafter(-2.0, -3.0), 3.5, 5.0):
            far = {"kind": "power", "alpha": 0.2, "center": centre, "domain": [0.0, 1.0]}
            cfg = self.write_config(tmp_path, {"weight": far})
            for group in ("solve", "audit", "levelset"):
                assert main([group, "--config", str(cfg), "--out", str(out)]) == 2
                assert capsys.readouterr().err == (
                    f"config error: groups ['{group}'] solve the manufactured problem "
                    "on (0, 1) only, for a weight centre in [-2, 3], and the weight "
                    f"domain is [0.0, 1.0] with centre {centre!r} "
                    "(ROADMAP item 10: one domain for every solve)\n")
            assert not out.exists()
            # the groups without a solve take the centre
            assert main(["weights", "--config", str(cfg), "--out",
                         str(tmp_path / "weights")]) == 0

    @pytest.mark.parametrize("section,key,value", [
        case for section, table in PARAMS.items() for key, param in table.items()
        for case in bad_values(section, key, param)])
    def test_exit_two_on_bad_table_value(self, tmp_path, capsys, section, key,
                                         value):
        if section.startswith("audits."):
            overrides = {"audits": {section.split(".")[1]: {key: value}}}
        else:
            overrides = {section: {key: value}}
        cfg = self.write_config(tmp_path, overrides)
        assert run_experiment(str(cfg), str(tmp_path / "out")) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_audit_and_levelset_share_one_solve(self, tmp_path, monkeypatch):
        calls = []
        solve = ManufacturedCase.solve

        def counted(case, *args):
            calls.append(args)
            return solve(case, *args)

        monkeypatch.setattr(ManufacturedCase, "solve", counted)
        cfg = self.write_config(tmp_path, {"selection": ["audit", "levelset"]})
        assert run_experiment(str(cfg), str(tmp_path / "out")) == 0
        assert calls == [(16, 64, 0.1)]

    def test_default_nt_reuses_the_convergence_solve(self, tmp_path, monkeypatch):
        # with no grid.nt, the audit grid takes the convergence study's steps
        # for its nx (t_final nx^2, not 0.25 nx^2), so audit and levelset
        # reuse the finest level's solve; the study solves it first
        calls = []
        solve = ManufacturedCase.solve

        def counted(case, *args):
            calls.append(args)
            return solve(case, *args)

        monkeypatch.setattr(ManufacturedCase, "solve", counted)
        raw = json.loads((Path(cli.__file__).parent / "configs"
                          / "power_weight.json").read_text())
        raw["grid"] = {"nx": 32, "t_final": 0.5}
        raw["audits"]["solve"]["levels"] = [16, 32]
        raw["selection"] = ["solve", "audit", "levelset"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run_experiment(str(path), str(tmp_path / "out")) == 0
        assert calls == [(32, 512, 0.5), (16, 128, 0.5)]

    def test_geometry_and_levelset_share_one_quasi_fit(self, tmp_path, monkeypatch):
        calls = []
        fit = geometry.estimate_quasi_params

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        for module in (cli, geometry, maximal):
            monkeypatch.setattr(module, "estimate_quasi_params", counted,
                                raising=False)
        # the levelset group fits the quasi-metric once; the geometry group,
        # whose audit budget is the proven constant 1, makes no fit
        for selection, fits in ((["geometry"], 0), (["levelset"], 1),
                                (["geometry", "levelset"], 1)):
            calls.clear()
            cfg = self.write_config(tmp_path, {"selection": selection})
            assert run_experiment(str(cfg), str(tmp_path / "out")) == 0
            assert len(calls) == fits

    def test_exit_one_on_gate_failure_with_report(self, tmp_path):
        # the zero smallness gate fails even for constant data
        cfg = self.write_config(tmp_path, {
            "selection": ["audit"],
            "grid": {"nx": 16, "nt": 64, "t_final": 0.1},
            "audits": {"audit": {"R0": 0.5, "delta": 0.0}},
        })
        out = tmp_path / "out"
        assert run_experiment(str(cfg), str(out)) == 1
        gate = json.loads(
            (out / "audit__oscillation-smallness-gate.json").read_text())
        assert not gate["passed"]
        assert any(r["label"] == "smallness-gate" for r in gate["rows"])

    def test_exit_one_on_an_empty_solution_region(self, tmp_path, capsys):
        # cylinders narrower than the grid spacing hold no node: the energy
        # audit stops the run instead of passing with 0 <= 0, and numpy
        # warns about no empty mean
        cfg = self.write_config(tmp_path, {
            "selection": ["audit"], "audits": {"audit": {"cylinder_r": 1e-9}}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_experiment(str(cfg), str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err == ("audit error: EmptyRegion: the region [0.4999999985, "
                       "0.5000000015] x (0.1, 0.1] holds no grid column or no "
                       "time level\n")

    def test_exit_one_when_no_reverse_holder_exponent_passes(self, tmp_path):
        # budget 1 admits no gamma > 0 for a non-constant weight, so gamma = 0
        cfg = json.loads((Path(cli.__file__).parent / "configs"
                          / "power_weight.json").read_text())
        cfg["audits"]["weights"]["rh_budget"] = 1.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_experiment(str(path), str(out), groups=["weights"]) == 1
        rep = json.loads((out / "weights__reverse-holder-exponent.json").read_text())
        assert not rep["passed"]
        assert rep["rows"][0]["constant"] == "0"

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = self.write_config(tmp_path, {"selection": ["geometry"]})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_experiment(str(cfg), str(out_a), seed=1) == 0
        assert run_experiment(str(cfg), str(out_b), seed=2) == 0
        ja = (out_a / "geometry__quasi-triangle-inequality.json").read_text()
        jb = (out_b / "geometry__quasi-triangle-inequality.json").read_text()
        assert json.loads(ja)["seed"] == 1
        assert json.loads(jb)["seed"] == 2
