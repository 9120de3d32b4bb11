"""The benchmark under perfbench/ builds problems and traces the library from
outside; this runs each of its workloads end to end at the smallest size,
traced, so the hooked names and the CLI path the desk workloads drive through
``cli.main`` stay in place."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from seqpen.outer import MAX_TRACE_DIM

ROOT = Path(__file__).resolve().parents[1]

# mlp.forward_rows of one tiny desk run (256 train and 128 test digits, one
# warm-start and one training epoch): each sample of a pass through the
# encoder, the classifier or the decoder counts once. Training costs
# 2 x 256 (warm start: no decoder) + 3 x 256 = 1,280, and an evaluation pass
# 3 rows per sample. desk_seq evaluates both splits once per epoch for the
# timeline (2 x 3 x 384), and its record and final results reuse those passes;
# desk_fixed evaluates the training split for its record and the test split
# for the results (3 x 384). A second pass over a split at the same
# parameters raises the count.
FORWARD_ROWS = {"desk_seq": 3584, "desk_fixed": 2432}

# inner.steps of the same tiny desk runs: two minibatches of 128 in the
# warm-start epoch and two in the training epoch. qp_theory's tiny traced run
# at seed 0 counts 11,200 theoretical-mode steps. The tracer wraps
# seqpen.inner.sgd_run, so a training call routed around it lowers the
# count, and a change to the theoretical loop cannot change what it counts
# unseen.
INNER_STEPS = {"desk_seq": 4, "desk_fixed": 4, "qp_theory": 11200}


@pytest.mark.parametrize("workload", ["desk_seq", "desk_fixed", "qp_theory"])
def test_traced_workload_runs_clean(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["metrics"]["inner.steps"]["value"] == INNER_STEPS[workload]
    if workload in FORWARD_ROWS:
        assert result["metrics"]["mlp.forward_rows"]["value"] == FORWARD_ROWS[workload]


def test_every_qp_theory_problem_keeps_its_candidates():
    # qp_theory reads each run's result from final.candidate, which a record
    # keeps only up to MAX_TRACE_DIM
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    problems = workloads.QpTheory(seed=0).setup()
    dims = [problem.dim for _, problem, *_ in problems]
    assert len(dims) == 4 and max(dims) <= MAX_TRACE_DIM
