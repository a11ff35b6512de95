"""Experiment configuration: JSON schema, validation, and object builders."""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, NonIntegrable
from .experiments import SERIES_REACH
from .solver import sinusoidal_coefficient
from .weights import Weight

KNOWN_GROUPS = ("weights", "geometry", "solve", "audit", "levelset", "flatten")

TOP_LEVEL_KEYS = frozenset({"name", "seed", "weight", "coefficient", "grid",
                            "audits", "selection"})


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}
_NOUN = {"int": "an integer", "float": "a finite number", "budget": "a number"}


@dataclass(frozen=True)
class Param:
    """One config key: its type, its default and the range its consumer needs.

    ``kind`` is ``"int"``, ``"float"`` (finite), ``"budget"`` (a pass
    threshold, which may also be ``Infinity``: no bound), or ``"ints"`` /
    ``"floats"`` for a non-empty list whose every entry is in range. A
    ``None`` default depends on the weight or the grid and is worked out
    where it is used.
    """

    kind: str
    default: object = None
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None

    def parse(self, value, name: str):
        """The typed value of the key ``name``; ConfigError if it is not one."""
        if self.kind in ("ints", "floats"):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{name} must be a non-empty list of numbers, "
                                  f"got {value!r}")
            return [self._number(v, self.kind[:-1], name, f"each of {name}")
                    for v in value]
        return self._number(value, self.kind, name, name)

    def _number(self, raw, kind: str, name: str, where: str):
        ok = isinstance(raw, (int, float)) and not isinstance(raw, bool)
        if ok and isinstance(raw, float):  # 16.0 is an integer; inf only a budget
            ok = ((math.isfinite(raw) or math.isinf(raw) and kind == "budget")
                  and (kind != "int" or raw.is_integer()))
        if not ok:
            raise ConfigError(f"{where} must be {_NOUN[kind]}, got {raw!r}")
        value = int(raw) if kind == "int" else float(raw)
        bounds = [(op, b) for op, b in ((">", self.gt), (">=", self.ge),
                                        ("<", self.lt)) if b is not None]
        if not all(_COMPARE[op](value, b) for op, b in bounds):
            key = name.rsplit(".", 1)[-1]
            text = " and ".join(f"{key} {op} {b:g}" if isinstance(b, float)
                                else f"{key} {op} {b}" for op, b in bounds)
            raise ConfigError(f"{where} must satisfy {text}, got {raw!r}")
        return value


# Every key each section accepts, with the type, default and range its
# consumer needs: ``audits.<group>`` for the runners in ``cli``,
# ``coefficient`` for ``coefficient_fn`` and ``grid`` for the manufactured
# solve (``nt`` defaults to ``experiments.default_nt``, tau close to h^2).
PARAMS: dict[str, dict[str, Param]] = {
    "audits.weights": {
        "M0": Param("budget", 10.0, ge=1.0),
        "n_centers": Param("int", 9, ge=1),
        "tol_quad": Param("budget", 1e-6, ge=0.0),
        "theta": Param("float", 0.5, gt=0.0, lt=1.0),
        "n1_budget": Param("budget", math.inf),
        "rh_budget": Param("budget", 2.0, ge=1.0),
    },
    "audits.geometry": {
        "samples": Param("int", 32768, ge=1),
        "relations_x0": Param("float"),
        "relations_r": Param("float", gt=0.0),
    },
    "audits.solve": {
        "levels": Param("ints", [32, 64, 128], ge=2),
        "order_min": Param("budget"),
        "p_values": Param("floats", [2.0, 4.0], ge=2.0),
        "stability": Param("budget", 0.10),
        "ratio_budget": Param("budget", 50.0),
    },
    "audits.audit": {
        "R0": Param("float", 0.5, gt=0.0, lt=1.0),
        "delta": Param("budget", 0.5, ge=0.0),
        "cylinder_r": Param("float", gt=0.0),
        "energy_budget": Param("budget", 100.0),
        "poincare_budget": Param("budget", 10.0),
        "lipschitz_budget": Param("budget", 100.0),
        # the coefficient 1 + a sin(8 pi x) of the sweep is elliptic for |a| < 1
        "freeze_amplitudes": Param("floats", [0.4, 0.2, 0.1, 0.05, 0.0], gt=-1.0, lt=1.0),
        "timeshift_budget": Param("budget", 10.0),
        "lab_budget": Param("budget", 100.0),
    },
    "audits.levelset": {
        "lambdas": Param("floats", [0.25, 0.5, 1.0, 2.0], gt=0.0),
        "weak11_budget": Param("budget", 100.0),
        "n_fields": Param("int", 5, ge=1),
        "n_cylinders": Param("int", 100, ge=1),
        "K": Param("float", 4.0, gt=1.0),
        "q0": Param("float", 0.5, gt=0.0, lt=1.0),
        "m_max": Param("int", 5, ge=1),
        "r_unit": Param("float", 0.1, gt=0.0),
        "delta_hat": Param("float", 0.05),
    },
    "audits.flatten": {
        "deltas": Param("floats", [0.05, 0.1, 0.2], ge=0.0, lt=1.0),
        "alpha": Param("float", 0.1, gt=-2.0),
        "M0": Param("budget", 10.0, ge=1.0),
        "R": Param("float", 0.8, gt=0.0),
        "t0": Param("budget", 0.5, gt=0.0),
        "Lambda": Param("float", 2.0, gt=0.0),
    },
    "coefficient": {
        "base": Param("float", 1.0, gt=0.0),
        "oscillation": Param("float", 0.0),
        "frequency": Param("float", 8.0),
    },
    "grid": {
        "nx": Param("int", 64, ge=2),
        "nt": Param("int", ge=2),  # the time-shift audit shifts by two steps
        "t_final": Param("float", 0.25, gt=0.0),
    },
}


# The keys a weight spec of each kind accepts: ``build_weight`` reads each.
WEIGHT_KEYS = {"constant": {"kind", "value", "domain"},
               "power": {"kind", "alpha", "center", "scale", "domain"},
               "sampled": {"kind", "samples", "domain"}}

# The numbers of a weight spec, as ``weight.<key>`` (alpha has no default),
# and a bound of its domain [lo, hi]; ``build_weight`` also needs lo < hi.
WEIGHT_PARAMS = {"value": Param("float", 1.0, gt=0.0), "alpha": Param("float"),
                 "center": Param("float", 0.5), "scale": Param("float", 1.0, gt=0.0)}
DOMAIN_BOUND = Param("float")

# The root seed, from the config or from ``--seed``: the draws' stream keys
# (``draws.key``) take a 64-bit seed; masked, a larger one would share the
# streams of another.
SEED = Param("int", ge=0, lt=2 ** 64)


def _object(section, known, name: str) -> dict:
    """``section`` if it is a JSON object of known keys; ConfigError if not."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {name}; "
                          f"known keys are {sorted(known)}")
    return section


def _typed(section, name: str) -> SimpleNamespace:
    """The keys of ``PARAMS[name]`` read from ``section``, typed and defaulted."""
    _object(section, PARAMS[name], name)
    return SimpleNamespace(**{  # a derived (None) default stays None
        key: param.parse(section.get(key, param.default), f"{name}.{key}")
        if key in section or param.default is not None else None
        for key, param in PARAMS[name].items()})


@dataclass
class ExperimentConfig:
    """Parsed experiment file: data specs, audit selection, typed parameters.

    ``coefficient``, ``grid`` and each ``audits[group]`` hold the keys of
    their ``PARAMS`` section as typed, range-checked, defaulted attributes.
    """

    name: str
    seed: int
    weight_spec: dict
    coefficient: SimpleNamespace
    grid: SimpleNamespace
    audits: dict[str, SimpleNamespace]
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
        """Validate every section, selected groups or not; ConfigError if bad."""
        _object(raw, TOP_LEVEL_KEYS, "the config root")
        try:
            name = str(raw["name"])
            seed = SEED.parse(raw["seed"], "seed")
        except KeyError as exc:
            raise ConfigError(f"missing required config key: {exc}") from exc
        audits = _object(raw.get("audits", {}), KNOWN_GROUPS, "audits")
        cfg = cls(
            name=name, seed=seed,
            weight_spec=raw.get("weight", {"kind": "constant", "value": 1.0,
                                           "domain": [0.0, 1.0]}),
            coefficient=_typed(raw.get("coefficient", {}), "coefficient"),
            grid=_typed(raw.get("grid", {}), "grid"),
            audits={group: _typed(audits.get(group, {}), f"audits.{group}")
                    for group in KNOWN_GROUPS},
            selection=raw.get("selection", list(KNOWN_GROUPS)),
        )
        if not (isinstance(cfg.selection, list) and cfg.selection
                and all(isinstance(g, str) for g in cfg.selection)):
            raise ConfigError("selection must be a non-empty list of audit group "
                              f"names, got {cfg.selection!r}")
        levels = cfg.audits["solve"].levels
        if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
            # each order of convergence compares a level with the one before
            raise ConfigError("audits.solve.levels must hold at least two strictly "
                              f"increasing grid sizes, got {levels}")
        (lo, hi), = cfg.build_weight().domain  # validate the specs eagerly
        x0 = cfg.audits["geometry"].relations_x0
        if x0 is not None and not lo <= x0 <= hi:
            # outside the domain a sampled weight is 0, and so is every height
            raise ConfigError(f"audits.geometry.relations_x0 must lie in the weight "
                              f"domain [{lo:g}, {hi:g}], got {x0!r}")
        cfg.coefficient_fn()
        cfg.check_groups(cfg.selection)
        return cfg

    def check_groups(self, groups) -> None:
        """Reject unknown or repeated groups and inputs a group cannot run on."""
        for i, group in enumerate(groups):
            if group not in KNOWN_GROUPS:
                raise ConfigError(f"unknown audit group {group!r}")
            if group in groups[:i]:
                raise ConfigError(f"audit group {group!r} is listed twice")
        manufactured = [g for g in ("solve", "audit", "levelset") if g in groups]
        if manufactured and self.weight_spec.get("kind") == "sampled":
            raise ConfigError(f"groups {manufactured} solve the manufactured problem, "
                              "which is not defined for sampled weights")
        domain = np.ravel(self.weight_spec.get("domain", [0.0, 1.0])).tolist()
        # the forcing's series holds for |x - centre| <= SERIES_REACH on (0, 1)
        centre = float(self.build_weight().center[0]) if manufactured else 0.5
        if manufactured and (domain != [0.0, 1.0]
                             or not 1.0 - SERIES_REACH <= centre <= SERIES_REACH):
            raise ConfigError(f"groups {manufactured} solve the manufactured problem "
                              f"on (0, 1) only, for a weight centre in "
                              f"[{1.0 - SERIES_REACH:g}, {SERIES_REACH:g}], and the "
                              f"weight domain is {domain} with centre {centre!r} "
                              "(ROADMAP item 10: one domain for every solve)")

    def build_weight(self) -> Weight:
        spec = self.weight_spec
        if not isinstance(spec, dict):
            raise ConfigError("weight must be an object")
        kind = spec.get("kind", "constant")
        if kind not in tuple(WEIGHT_KEYS):  # a list or dict kind is unhashable
            raise ConfigError(f"unknown weight kind {kind!r}")
        _object(spec, WEIGHT_KEYS[kind], f"the {kind} weight")
        domain = spec.get("domain", [0.0, 1.0])
        domain = domain[0] if isinstance(domain, list) and len(domain) == 1 else domain
        if not (isinstance(domain, list) and len(domain) == 2) or any(
                isinstance(v, list) for v in domain):  # every group is 1D
            raise ConfigError(f"weight.domain must be one interval [lo, hi], "
                              f"got {spec.get('domain')!r}")
        lo = DOMAIN_BOUND.parse(domain[0], "weight.domain[0]")
        hi = Param("float", gt=lo).parse(domain[1], "weight.domain[1]")
        try:
            num = {key: param.parse(spec[key] if param.default is None
                                    else spec.get(key, param.default), f"weight.{key}")
                   for key, param in WEIGHT_PARAMS.items() if key in WEIGHT_KEYS[kind]}
            if kind == "constant":
                return Weight.constant(num["value"], (lo, hi))
            if kind == "power":
                return Weight.power(num["alpha"], num["center"], (lo, hi),
                                    scale=num["scale"])
            return Weight.sampled(np.asarray(spec["samples"], dtype=float), (lo, hi))
        except KeyError as exc:
            raise ConfigError(f"weight spec missing key {exc}") from exc
        except (TypeError, ValueError, NonIntegrable) as exc:
            raise ConfigError(f"invalid weight spec: {exc}") from exc

    def coefficient_fn(self):
        c = self.coefficient
        if abs(c.oscillation) >= c.base:
            raise ConfigError("coefficient.oscillation amplitude must stay "
                              "below the base")
        return sinusoidal_coefficient(c.base, c.oscillation, c.frequency)
