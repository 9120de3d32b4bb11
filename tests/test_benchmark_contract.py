"""The benchmark under perfbench/ builds problems and traces the library from
outside; this runs its smallest traced workload end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_qp_theory_workload_runs_clean():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "qp_theory", "--seed", "0", "--seconds", "1",
           "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
