"""Benchmark workloads: each one turns a seed into a wparab experiment config.

The configs start from the two configs bundled with wparab, read from the
checkout under test, so a change to a bundled config shows in the benchmark.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CONFIG_DIR = Path("src") / "wparab" / "configs"

# The finest manufactured solve of the bundled power config (nx = 128,
# nt = 4096) alone takes about a minute; halving the refinement levels
# keeps a run of power-all under half a minute while forcing assembly
# still takes most of it.
POWER_LEVELS = [16, 32, 64]

SAMPLED_CELLS = 256
SAMPLED_SIGMA = 0.3
SAMPLED_ALPHA = 0.2

WORKLOADS = ("power-all", "identity-all", "sampled-geometry")


def sampled_weight_values(seed: int) -> np.ndarray:
    """Cell values of |x - 1/2|^0.2 times a seeded log-normal factor."""
    rng = np.random.default_rng(seed)
    mid = (np.arange(SAMPLED_CELLS) + 0.5) / SAMPLED_CELLS
    factor = np.exp(SAMPLED_SIGMA * rng.standard_normal(SAMPLED_CELLS))
    return np.abs(mid - 0.5) ** SAMPLED_ALPHA * factor


def make_config(workload: str, seed: int, root: Path = Path(".")) -> dict:
    """The experiment config a workload runs for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = "identity.json" if workload == "identity-all" else "power_weight.json"
    cfg = json.loads((root / CONFIG_DIR / base).read_text())
    cfg["seed"] = seed
    if workload == "power-all":
        cfg["audits"]["solve"]["levels"] = list(POWER_LEVELS)
    elif workload == "sampled-geometry":
        cfg["name"] = "sampled-geometry"
        cfg["weight"] = {"kind": "sampled", "domain": [0.0, 1.0],
                         "samples": sampled_weight_values(seed).tolist()}
        cfg["selection"] = ["weights", "geometry"]
    return cfg
