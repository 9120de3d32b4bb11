"""The benchmark under perfbench/ builds problems and traces the library from
outside; this runs each of its workloads end to end at the smallest size,
traced, so the hooked names and the CLI path the desk workloads drive through
``cli.main`` stay in place."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["desk_seq", "desk_fixed", "qp_theory"])
def test_traced_workload_runs_clean(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
