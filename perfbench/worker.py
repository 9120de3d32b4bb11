"""Measurement process for one workload, started by ``run.py``.

``--mode probe`` times one set-up in a fresh interpreter: importing seqpen,
loading or building the inputs and building the task. ``--mode measure``
writes the seeded inputs, then runs timed reps until ``--seconds`` have
passed, and writes every rep's timings, quality metrics,
failed checks and (for traced reps) per-layer metrics as JSON to ``--out``.
With ``--trace 1`` traced and untraced reps alternate, so the tracing
overhead is measured within one process.

Nothing here imports numpy or seqpen at module level, so the probe's clock
starts before either is imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment(root: Path) -> dict:
    import hashlib
    import os
    import platform
    import subprocess

    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def _check_source(root: Path):
    import seqpen

    expected = (root / "src" / "seqpen").resolve()
    if Path(seqpen.__file__).resolve().parent != expected:
        raise SystemExit(f"seqpen was imported from {seqpen.__file__}, not from {expected}")


def probe(args) -> dict:
    t0 = time.perf_counter()
    import workloads

    _check_source(Path.cwd())
    workloads.make(args.workload, args.size, args.seed, Path(args.workdir)).setup()
    return {"setup_s": time.perf_counter() - t0}


def _rep(workload, tracer, traced: bool) -> dict:
    """One set-up plus one timed run, then the output checks."""
    from tracer import layer_metrics

    workload.reset()
    rep = {"traced": traced, "failed": [], "layer": None, "digest": None, "quality": {}}
    if traced:
        tracer.clear()
        tracer.install()
    try:
        if traced:
            with tracer.span("bench.setup"):
                state = workload.setup()
            with tracer.span("bench.run") as run_root:
                t0 = time.perf_counter()
                outcome = workload.run(state)
                rep["run_s"] = time.perf_counter() - t0
        else:
            state = workload.setup()
            t0 = time.perf_counter()
            outcome = workload.run(state)
            rep["run_s"] = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        rep["failed"].append("workload raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        return rep
    finally:
        if traced:
            tracer.uninstall()
    quality, failed, digest = workload.collect(outcome)
    rep.update(quality=quality, digest=digest, rows=outcome["rows"], train_s=outcome["train_s"])
    rep["failed"].extend(failed)
    if traced:
        rep["layer"] = layer_metrics(tracer, run_root)
    return rep


def measure(args) -> dict:
    import workloads
    from tracer import Tracer

    root = Path.cwd()
    _check_source(root)
    workload = workloads.make(args.workload, args.size, args.seed, Path(args.workdir))
    workload.prepare()
    tracer = Tracer()
    # Traced and untraced reps alternate in trace mode, so both see the same
    # machine conditions.
    kinds = [True, False] if args.trace else [False]
    reps = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(reps) < len(kinds):
        reps.append(_rep(workload, tracer, kinds[len(reps) % len(kinds)]))
    digests = [rep["digest"] for rep in reps if rep["digest"] is not None]
    for rep in reps:
        if rep["digest"] is not None and rep["digest"] != digests[0]:
            rep["failed"].append("outputs differ from the first rep of the same seed")
    if args.trace:
        tracer.write_spans(Path(args.workdir) / "spans.csv")
    return {
        "environment": _environment(root),
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_hooks": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = probe(args) if args.mode == "probe" else measure(args)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
