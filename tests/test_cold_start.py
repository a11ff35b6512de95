"""No run imports the scipy.linalg package: the implicit steps load scipy's
compiled LAPACK module alone, on the first march, and a later
``import scipy.linalg`` gives the same ``dgtsv``. Nor does a run load
numpy.random (and through it hashlib), numpy.polynomial or numpy.ma: the
seeded draws come from ``wparab.draws``, the Gauss-Legendre rule is written
out, and the graded cells are deduplicated without ``np.unique``.

Each test runs in a fresh interpreter, so no module another test imported
(the solver tests import scipy.linalg themselves) can make it pass.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = ("power_weight", "identity")
GROUPS = ("weights", "geometry", "flatten", "solve", "audit", "levelset")
# modules that no group uses, each 0.7 to 6 MB of resident memory once loaded
UNUSED = ("numpy.random", "hashlib", "numpy.polynomial", "numpy.ma", "scipy.linalg")


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path and return
    the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


GROUPS_CODE = """
import contextlib, io, json, sys
from wparab.cli import main

config, out, *unused = sys.argv[1:]
loaded = {"import": [m for m in unused if m in sys.modules]}
codes = {}
for group in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[group] = main([group, "--config", config, "--out", f"{out}/{group}"])
    loaded[group] = [m for m in unused if m in sys.modules]
print(json.dumps({"loaded": loaded, "codes": codes}))
""" % (GROUPS,)


@pytest.fixture(scope="module")
def group_runs(tmp_path_factory):
    """Each bundled config's groups run one after another in one fresh
    interpreter: the exit codes, and which of ``UNUSED`` were loaded after
    the import and after each group."""
    return {name: run_fresh(GROUPS_CODE, str(SRC / "wparab" / "configs" / f"{name}.json"),
                            str(tmp_path_factory.mktemp(name)), *UNUSED)
            for name in CONFIGS}


def test_groups_without_a_march_leave_scipy_linalg_unloaded(group_runs):
    # the marching groups, solve, audit and levelset, included
    got = group_runs["power_weight"]
    assert got["codes"] == dict.fromkeys(GROUPS, 0)
    assert ({stage: "scipy.linalg" in mods for stage, mods in got["loaded"].items()}
            == dict.fromkeys(("import",) + GROUPS, False))


@pytest.mark.parametrize("config", CONFIGS)
def test_no_group_loads_a_module_it_does_not_use(group_runs, config):
    got = group_runs[config]
    assert got["codes"] == dict.fromkeys(GROUPS, 0)
    assert got["loaded"] == dict.fromkeys(("import",) + GROUPS, [])


STEP_CODE = """
import json, sys
import numpy as np
from wparab.solver import _implicit_step

before = "scipy.linalg" in sys.modules
rng = np.random.default_rng(18)
m = 200
dl, du = rng.uniform(-1.0, 1.0, (2, m - 1))
d = 2.5 + rng.uniform(0.0, 1.0, m)
rhs = rng.standard_normal(m)
x = rhs.copy()
_implicit_step(dl.copy(), d.copy(), du.copy(), x, 1)

from scipy.linalg.lapack import dgtsv
want, info = dgtsv(dl, d, du, rhs)[3:]
print(json.dumps({"before": before, "info": int(info),
                  "equal": x.tobytes() == want.tobytes()}))
"""


def test_implicit_step_first_in_a_fresh_interpreter_matches_dgtsv():
    got = run_fresh(STEP_CODE)
    assert got == {"before": False, "info": 0, "equal": True}


LATER_IMPORT_CODE = """
import json, sys
import numpy as np
from wparab.solver import CoefficientField, Grid, _dgtsv, solve_ivbp
from wparab.weights import Weight

grid = Grid(x0=0.0, x1=1.0, nx=16, t_final=0.1, nt=8)
A = CoefficientField.from_callable(lambda x, t: 1.0, grid)
solve_ivbp(Weight.constant(1.0, (0.0, 1.0)), A, np.ones((grid.nt + 1, grid.nx)), grid)
marched = "scipy.linalg" in sys.modules

import scipy.linalg
rng = np.random.default_rng(41)
m = 300
dl, du = rng.uniform(-1.0, 1.0, (2, m - 1))
d = 2.5 + rng.uniform(0.0, 1.0, m)
rhs = rng.standard_normal(m)
ours = _dgtsv()(dl, d, du, rhs)
theirs = scipy.linalg.lapack.dgtsv(dl, d, du, rhs)
print(json.dumps({"marched": marched, "info": int(theirs[-1]),
                  "same": scipy.linalg.lapack.dgtsv is _dgtsv(),
                  "equal": all(a.tobytes() == b.tobytes()
                               for a, b in zip(ours[:-1], theirs[:-1]))}))
"""


def test_later_scipy_linalg_import_gives_the_same_dgtsv():
    got = run_fresh(LATER_IMPORT_CODE)
    assert got == {"marched": False, "info": 0, "same": True, "equal": True}
