"""The statements of ``src/wparab`` that no golden config reaches only get
fewer.

``tests/unreached.txt`` lists them as ``module.py: statement``: the output
of ``python tests/reachability.py`` without the line numbers, so that an
edit elsewhere in a module does not move an entry. A statement repeated in
a module is listed once per occurrence. A change that leaves a new
statement unreached fails here, and so does one that reaches or deletes a
listed statement until its entry is removed.
"""
from collections import Counter
from pathlib import Path

import reachability
from golden_reports import CONFIGS as GOLDEN_CONFIGS, config_path

ALLOWLIST = Path(__file__).with_name("unreached.txt")


def test_traced_configs_are_the_golden_ones():
    assert reachability.CONFIGS == [config_path(c) for c in GOLDEN_CONFIGS]


def test_unreached_statements_only_shrink(traced_golden_runs):
    _, traced = traced_golden_runs
    assert traced["exit"] == {c: 0 for c in GOLDEN_CONFIGS}
    now = [(f"{name}: {text}", f"{name}:{line}: {text}")
           for name, line, text in traced["unreached"]]
    listed = Counter(line for line in ALLOWLIST.read_text().splitlines()
                     if line and not line.startswith("#"))
    new = Counter(key for key, _ in now) - listed
    gone = listed - Counter(key for key, _ in now)
    assert not new, ("statements that no golden config reaches; reach or delete "
                     "them:\n" + "\n".join(at for key, at in now if key in new))
    assert not gone, (f"listed statements that a config now reaches or that are "
                      f"gone; remove them from {ALLOWLIST.name}:\n"
                      + "\n".join(sorted(gone.elements())))
