"""Experiment configuration: JSON schema, validation, and object builders."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .weights import Weight

KNOWN_GROUPS = ("weights", "geometry", "solve", "audit", "levelset", "flatten")

TOP_LEVEL_KEYS = frozenset({"name", "seed", "weight", "coefficient", "grid",
                            "audits", "selection"})

# The parameters each group's runner in ``cli`` reads from ``audits.<group>``.
AUDIT_KEYS = {
    "weights": frozenset({"M0", "n_centers", "tol_quad", "theta", "n1_budget",
                          "rh_budget"}),
    "geometry": frozenset({"samples", "relations_x0", "relations_r"}),
    "solve": frozenset({"levels", "order_min", "p_values", "stability",
                        "ratio_budget"}),
    "audit": frozenset({"R0", "delta", "cylinder_r", "energy_budget",
                        "poincare_budget", "lipschitz_budget", "freeze_amplitudes",
                        "timeshift_budget", "lab_budget"}),
    "levelset": frozenset({"lambdas", "weak11_budget", "n_fields", "n_cylinders",
                           "K", "q0", "m_max", "r_unit", "delta_hat"}),
    "flatten": frozenset({"deltas", "alpha", "M0", "delta", "R", "t0", "Lambda"}),
}

# The numeric parameters ``coefficient_fn`` and ``manufactured_grid`` read.
COEFFICIENT_KEYS = frozenset({"base", "oscillation", "frequency"})
GRID_KEYS = frozenset({"nx", "nt", "t_final"})


def _reject_unknown(keys, known, where: str) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"known keys are {sorted(known)}")


def _check_numbers(section, known, where: str) -> None:
    """A flat object of known keys with numeric values."""
    if not isinstance(section, dict):
        raise ConfigError(f"the {where} section must be an object")
    _reject_unknown(section, known, where)
    for key, value in section.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")


def _integer(value, where: str) -> int:
    """An integral JSON number (16 or 16.0); anything else is a ConfigError."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Parsed experiment file: data specs, audit selection, budgets."""

    name: str
    seed: int
    weight_spec: dict
    coefficient: dict
    grid: dict
    audits: dict
    selection: list[str]

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        try:
            name = str(raw["name"])
            seed = int(raw["seed"])
        except KeyError as exc:
            raise ConfigError(f"missing required config key: {exc}") from exc
        _reject_unknown(raw, TOP_LEVEL_KEYS, "the config root")
        weight_spec = raw.get("weight", {"kind": "constant", "value": 1.0,
                                         "domain": [0.0, 1.0]})
        cfg = cls(
            name=name, seed=seed, weight_spec=weight_spec,
            coefficient=raw.get("coefficient", {"base": 1.0, "oscillation": 0.0}),
            grid=raw.get("grid", {"nx": 64, "nt": 1024, "t_final": 0.25}),
            audits=raw.get("audits", {}),
            selection=list(raw.get("selection", KNOWN_GROUPS)),
        )
        if not isinstance(cfg.audits, dict):
            raise ConfigError("the audits section must be an object")
        _reject_unknown(cfg.audits, AUDIT_KEYS, "audits")
        for group, known in AUDIT_KEYS.items():
            _reject_unknown(cfg.audit_params(group), known, f"audits.{group}")
        _check_numbers(cfg.coefficient, COEFFICIENT_KEYS, "coefficient")
        _check_numbers(cfg.grid, GRID_KEYS, "grid")
        cfg.build_weight()  # validate the weight and coefficient specs eagerly
        cfg.coefficient_fn()
        cfg.check_groups(cfg.selection)
        cfg.manufactured_grid()
        return cfg

    def check_groups(self, groups) -> None:
        """Reject unknown groups and inputs a selected group cannot run on."""
        for group in groups:
            if group not in KNOWN_GROUPS:
                raise ConfigError(f"unknown audit group {group!r}")
        manufactured = [g for g in ("solve", "audit", "levelset") if g in groups]
        if manufactured and self.build_weight().kind == "sampled":
            raise ConfigError(f"groups {manufactured} solve the manufactured problem, "
                              "which is not defined for sampled weights")
        levels = self.audit_params("solve").get("levels", [32, 64, 128])
        if "solve" in groups:
            if not isinstance(levels, list):
                raise ConfigError(f"audits.solve.levels must be a list, got {levels!r}")
            nxs = [_integer(v, "each of audits.solve.levels") for v in levels]
            if not nxs or min(nxs) < 2:
                raise ConfigError(f"audits.solve.levels needs levels >= 2, got {levels}")

    def manufactured_grid(self) -> tuple[int, int, float]:
        """(nx, nt, t_final) of the grid section."""
        nx = _integer(self.grid.get("nx", 64), "grid.nx")
        nt = _integer(self.grid.get("nt", max(int(round(0.25 * nx * nx)), 4)), "grid.nt")
        t_final = float(self.grid.get("t_final", 0.25))
        if nx < 2 or nt < 1 or not t_final > 0.0:
            raise ConfigError(f"grid needs nx >= 2, nt >= 1 and t_final > 0, "
                              f"got {nx}, {nt}, {t_final}")
        return nx, nt, t_final

    def audit_params(self, group: str) -> dict:
        params = self.audits.get(group, {})
        if not isinstance(params, dict):
            raise ConfigError(f"audit section {group!r} must be an object")
        return params

    def build_weight(self) -> Weight:
        spec = self.weight_spec
        kind = spec.get("kind", "constant")
        domain = spec.get("domain", [0.0, 1.0])
        try:
            if kind == "constant":
                return Weight.constant(float(spec.get("value", 1.0)), domain)
            if kind == "power":
                return Weight.power(float(spec["alpha"]),
                                    spec.get("center", 0.5), domain,
                                    scale=float(spec.get("scale", 1.0)))
            if kind == "sampled":
                return Weight.sampled(np.asarray(spec["samples"], dtype=float),
                                      domain,
                                      quadrature=spec.get("quadrature", "midpoint"))
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"weight spec missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid weight spec: {exc}") from exc
        raise ConfigError(f"unknown weight kind {kind!r}")

    def coefficient_fn(self):
        base = float(self.coefficient.get("base", 1.0))
        osc = float(self.coefficient.get("oscillation", 0.0))
        freq = float(self.coefficient.get("frequency", 8.0))
        if base <= 0.0:
            raise ConfigError("coefficient base must be positive")
        if abs(osc) >= base:
            raise ConfigError("oscillation amplitude must stay below the base")

        def a_fun(x, t):
            return base + osc * np.sin(freq * math.pi * x)

        return a_fun
