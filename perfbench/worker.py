"""One measured run in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

Runs ``wparab.cli.run_experiment`` on the job's config in a closed loop,
one repetition after another, for at most the job's seconds. Each
repetition writes a fresh report directory, is timed, checked and deleted.
In a traced job, repetitions alternate between untraced and traced, so the
tracing overhead is measured in the same process. The result goes to the
job's result file as JSON.
"""
from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import check_outputs


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"]).resolve()
    import numpy
    import scipy
    import wparab
    from wparab import cli

    if not Path(wparab.__file__).resolve().is_relative_to(root / "src"):
        print(f"wparab was imported from {wparab.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    reference = json.loads(Path(job["reference"]).read_text())
    out = Path(job["out"])
    tracer = None
    if job["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer()

    reps, layer_samples, spans = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if traced:
            tracer.reset()
            layers.install(tracer)
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.run_experiment(job["config"], str(out), seed=job["seed"])
        except Exception:  # a crash of the program under test is a result
            code = None
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        finally:
            run_s = time.perf_counter() - t0
            if traced:
                tracer.restore()
        if error:
            code = "raised " + error.strip().splitlines()[-1]
        attempted, problems = check_outputs(out, reference, code)
        reps.append({"run_s": run_s, "traced": traced, "attempted": attempted,
                     "problems": problems,
                     "out_bytes": _dir_bytes(out) if out.is_dir() else 0})
        if traced:
            layer_samples.append(layers.layer_metrics(tracer))
            spans = tracer.spans[:]
        shutil.rmtree(out, ignore_errors=True)
        # Start another repetition only if it should end within the run's
        # seconds, so a run measures at most that long (or one repetition,
        # or one untraced/traced pair, when that alone takes longer).
        elapsed = time.perf_counter() - start
        if tracer is not None and len(reps) % 2 == 1:
            continue
        if elapsed + (elapsed / len(reps)) * (2 if tracer else 1) > job["seconds"]:
            break

    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "wparab": wparab.__version__},
        "layers": layers.median_metrics(layer_samples) if layer_samples else {},
        "spans": spans,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
