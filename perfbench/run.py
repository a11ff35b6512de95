"""wparab benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload power-all --seed 1 --seconds 10 --trace 0

The run measures set-up time in fresh interpreters, then starts one more
fresh interpreter (threads pinned to 1) that runs the workload's experiment
in a closed loop for the given seconds and checks every output. It prints
each metric by name with its unit, a manifest line, and as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Set-up probes before and again after the measured loop, so one slow phase
# of a shared machine does not set the whole median.
SETUP_PROBES_PER_SIDE = 2
RUN_LIMIT_S = 170.0

SETUP_CODE = """\
import sys, time
from wparab import cli
from wparab.config import ExperimentConfig
ExperimentConfig.load(sys.argv[1]).build_weight()
print(time.monotonic())
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_sha256(src: Path) -> str:
    """Hash of every source file under ``src`` with its relative path."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def setup_seconds(config: Path, env: dict, probes: int, warm: bool) -> list[float]:
    """Fresh-interpreter set-up times; a warm-up probe first is not timed."""
    times = []
    for i in range(probes + warm):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if i or not warm:
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "wparab" / "__init__.py").is_file():
        return fail(f"no wparab sources under {root / 'src'}; "
                    "run from the root of a wparab checkout")
    if args.seed < 0:
        return fail("--seed must be non-negative")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = BENCH / "reference" / f"{args.workload}.json"

    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(make_config(args.workload, args.seed, root),
                                     indent=1))
        config_sha = sha256_file(config)
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        setups = setup_seconds(config, env, SETUP_PROBES_PER_SIDE, warm=True)

        job = {"root": str(root), "config": str(config), "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "reference": str(reference), "out": str(work / "out"),
               "result": str(work / "result.json")}
        (work / "job.json").write_text(json.dumps(job))
        with open(work / "worker.log", "w") as log:
            try:
                done = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), str(work / "job.json")],
                    env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
            except subprocess.TimeoutExpired:
                return fail("worker exceeded the run time limit")
        if done.returncode != 0:
            tail = (work / "worker.log").read_text()[-4000:]
            return fail(f"worker exited with {done.returncode}:\n{tail}")
        result = json.loads((work / "result.json").read_text())
        setups += setup_seconds(config, env, SETUP_PROBES_PER_SIDE, warm=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = result["reps"]
    timed = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["problems"]) for r in reps)
    run_s = statistics.median(r["run_s"] for r in timed)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "out_mb": statistics.median(r["out_bytes"] for r in timed) / 2 ** 20,
        "audit_pass_frac": 1.0 - failed / attempted,
        "audit_fail_frac": failed / attempted,
    }
    if traced:
        traced_s = statistics.median(r["run_s"] for r in traced)
        values.update(result["layers"])
        values.update({"trace.run_s": traced_s, "trace.untraced_run_s": run_s,
                       "trace.overhead_s": traced_s - run_s})

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(timed),
        "traced_repetitions": len(traced), "setup_probes": len(setups),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        **result["versions"],
        "git_sha": git_sha(root), "source_sha256": source_sha256(root / "src"),
        "config_sha256": config_sha,
        "thread_env": {k: env[k] for k in THREAD_ENV},
    }
    problems = [p for r in reps for p in r["problems"]]
    for text in dict.fromkeys(problems):
        print(f"check failed: {text}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["audit_fail_frac"] = "fraction"
    for name, value in values.items():
        print(f"{name:34s} {value:14.6g} {units.get(name, '')}")
    print("manifest " + json.dumps(manifest, sort_keys=True))

    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, "metrics": values, "problems": problems,
                    "run_s": [r["run_s"] for r in reps], "spans": result["spans"]}))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
