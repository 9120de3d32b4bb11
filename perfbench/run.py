"""seqpen benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk_seq --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. ``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

# Single-threaded BLAS on every run: the figures then do not depend on how
# many cores the machine has or how busy its other tenants keep them.
BLAS_THREADS = 1
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
# End-to-end metrics a workload does not measure read this constant (see README).
NOT_APPLICABLE = 1.0
TIMED_UNITS = ("s", "us", "GFLOP/s")


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(mode: str, args, workdir: Path, out: Path, deadline: float) -> dict | None:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--size", args.size, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{mode} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"{mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def _end_to_end(measured: list, probes: list, peak_rss_mb: float, specs: list) -> dict:
    # Run times are averaged over the whole window rather than taken as a
    # median: host contention makes the rep times bimodal, and the median
    # then jumps between the modes from one run to the next (see README).
    first = measured[0]["quality"]
    values = {
        "setup_s": statistics.median(probes),
        "run_s": statistics.fmean(r["run_s"] for r in measured),
        "samples_per_s": sum(r["rows"] for r in measured) / sum(r["train_s"] for r in measured),
        "peak_rss_mb": peak_rss_mb,
    }
    for spec in specs:
        values.setdefault(spec["name"], first.get(spec["name"], NOT_APPLICABLE))
    return values


def _per_layer(traced: list, untraced: list, specs: list, failed: list) -> dict:
    values = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_share":
            continue
        samples = [r["layer"][name] for r in traced]
        if spec["unit"] in TIMED_UNITS:
            values[name] = statistics.median(samples)
        else:
            if len(set(samples)) > 1:
                failed.append(f"count {name} differs between reps of one seed: {sorted(set(samples))}")
            values[name] = samples[0]
    traced_run = statistics.fmean(r["run_s"] for r in traced)
    untraced_run = statistics.fmean(r["run_s"] for r in untraced)
    values["trace.overhead_share"] = traced_run / untraced_run - 1.0
    return values


def main(argv=None) -> int:
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run one seqpen benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in specs["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="input size; 'tiny' is for the smoke check")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "seqpen" / "__init__.py").is_file():
        print(f"error: no seqpen sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    result = _worker("measure", args, workdir, workdir / "measure.json", deadline)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    reps = result["reps"]
    failed_checks = [msg for r in reps for msg in r["failed"]]
    attempted = len(reps)
    failed = sum(1 for r in reps if r["failed"])
    measured = [r for r in reps if not r["failed"]]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]

    values = {}
    if args.trace == 0:
        probes = []
        for i in range(SETUP_PROBES):
            attempted += 1
            probe = _worker("probe", args, workdir, workdir / f"probe{i}.json", deadline)
            if probe is None:
                failed += 1
            else:
                probes.append(probe["setup_s"])
        if untraced and probes:
            values = _end_to_end(untraced, probes, result["peak_rss_mb"], specs["end_to_end"])
        names = specs["end_to_end"]
    else:
        count_failures = []
        if traced and untraced:
            values = _per_layer(traced, untraced, specs["per_layer"], count_failures)
        if count_failures:
            failed_checks.extend(count_failures)
            failed = max(failed, 1)
        names = specs["per_layer"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        failed_checks.append("metrics not measured: " + ", ".join(missing))
        failed = max(failed, 1)

    shutil.rmtree(workdir / "data", ignore_errors=True)
    for msg in failed_checks:
        print(f"check failed: {msg}", file=sys.stderr)
    if result["missing_hooks"]:
        print("trace hooks not found: " + ", ".join(result["missing_hooks"]), file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names if m["name"] in values},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "measured_reps": len(measured),
        "environment": result["environment"],
        "failed_checks": failed_checks,
    }
    (workdir / "result.json").write_text(json.dumps(dict(record, result=summary), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
