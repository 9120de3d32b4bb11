"""Smoke check of the benchmark: tiny inputs, every metric emitted.

    python3 perfbench/smoke.py

Runs every workload with ``--size tiny`` (a few hundred samples, one
epoch) in both trace modes and asserts that the result line has exactly the
keys correct, attempted, failed and metrics, that every check passed and
that every metric named in BENCHMARK.json is present with its unit. Then
copies only BENCHMARK.json and perfbench/ into a scratch directory and
asserts that the benchmark refuses to run there. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def check_result(proc: subprocess.CompletedProcess, expected: list) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {proc.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
        elif got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {spec['name']} reads {got}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check_result(run(ROOT, workload, trace), expected)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            failures.extend(f"{workload} trace={trace}: {p}" for p in problems)

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"without sources: {'refused' if refused else 'FAIL'}")
    if not refused:
        failures.append(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
