"""The benchmark's workloads: inputs from a seed, set-up, one timed run, checks.

Each workload has the same four steps:

* ``prepare()`` writes the seeded inputs into the benchmark's work directory
  (untimed, once per benchmark run);
* ``setup()`` loads or builds the inputs and builds the task, as a user of
  the library would before training (timed as ``setup_s``);
* ``run(state)`` is the timed workload (``run_s``); its outcome carries the
  gradient rows the optimizer consumed and the time spent in training calls;
* ``collect(outcome)`` checks the outputs and returns the quality metrics,
  the failed checks and a digest of the outputs that must repeat exactly.

Workloads:

* ``desk_seq``: ``seqpen run`` on ``enc_dec`` with the paper's method
  (sequential schedule, linear penalty, tau0 = 100, gamma = 1.1), timeline on.
  The per-epoch outer record and the timeline evaluation are about half of
  the run, so fused records and shared evaluations show here.
* ``desk_fixed``: ``seqpen run`` on ``enc_dec`` with a fixed lambda = 100,
  timeline off: one long inner run dominated by minibatch steps, with one
  record at the end. Kernel, oracle and Adam changes show here; record and
  timeline changes should not move it. Its warm start runs at tau = 0.
* ``qp_theory``: theoretical-mode SGD through ``sequential_penalty_train`` on
  the three certified QPs and on a seeded multi-sample problem given only
  per-sample oracles, then every diagnostic at the end point. Bound by
  per-call overhead; no network work, so kernel changes should not move it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from pathlib import Path

import numpy as np

from seqpen import (
    FiniteSumProblem,
    PenaltySpec,
    SGDConfig,
    Schedule,
    elicq_check,
    feasibility_stats,
    full_objective,
    kkt_residual,
    multiplier_estimate,
    sequential_penalty_train,
    sgc_estimate,
    smoothness_estimate,
)
from seqpen import cli
from seqpen.tasks.data import dataset_paths, load_idx_dataset, write_synthetic_idx
from seqpen.tasks.encdec import build_enc_dec_task
from seqpen.tasks.qp import qp_registry

ARTIFACTS = ("manifest.json", "results.csv", "trace.csv", "violations_hist.csv", "timeline.csv")

# Desk input sizes: "bench" is what the benchmark measures, "tiny" backs the
# smoke check. qp_theory is small enough to run at one size.
SIZES = {
    "bench": {
        "train": 2000,
        "test": 500,
        "warm_start_epochs": 1,
        "epochs": 4,
        "min_test_accuracy": 0.9,
    },
    "tiny": {
        "train": 256,
        "test": 128,
        "warm_start_epochs": 1,
        "epochs": 1,
        "min_test_accuracy": 0.0,
    },
}

# A reconstruction bound the desk-sized runs can meet within their epochs,
# so the satisfied fraction sits well above 0.
DESK_THETA = 0.03
# The benchmark seed generates the inputs (the digits); the run's own seed,
# which draws the initial weights and the minibatch order, stays fixed. Across
# benchmark seeds the final loss then varies with the data alone, not with
# the far larger spread between weight initializations.
PROGRAM_SEED = 0
KKT_TOL = 1e-3
X_TOL = 1e-3
# qp_theory: (SGD batch, iterations per subproblem, outer iterations) for the
# certified single-sample QPs and for the seeded multi-sample problem.
QP_INNER = (1, 200, 20)
MULTI_SAMPLE_INNER = (2, 150, 20)
MULTI_SAMPLE_SHAPE = (8, 4)  # samples, dimension


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Desk:
    """``seqpen run`` on the enc_dec task with synthetic digits from the seed."""

    def __init__(self, name: str, method: str, size: dict, seed: int, workdir: Path):
        self.name = name
        self.method = method
        self.size = size
        self.seed = seed
        self.data_root = workdir / "data"
        self.out_dir = workdir / "out"
        self.config = workdir / f"{name}.cfg"

    @property
    def rows_per_run(self) -> int:
        """Gradient rows the optimizer consumes: every epoch visits every sample once."""
        return (self.size["warm_start_epochs"] + self.size["epochs"]) * self.size["train"]

    def prepare(self):
        write_synthetic_idx(self.data_root, self.size["train"], self.size["test"], rng_seed=self.seed)
        if self.method == "sequential":
            method = "method = sequential\ntau0 = 100\ngamma = 1.1\npenalty_kind = linear\ntimeline = true\n"
        else:
            method = "method = fixed\nlambda = 100\ntimeline = false\n"
        self.config.write_text(
            "task = enc_dec\n"
            + method
            + f"seed = {PROGRAM_SEED}\n"
            + f"out_dir = {self.out_dir}\n"
            + f"data_root = {self.data_root}\n"
            + "scale = desk\n"
            + f"train_limit = {self.size['train']}\n"
            + f"test_limit = {self.size['test']}\n"
            + f"epochs = {self.size['epochs']}\n"
            + f"warm_start_epochs = {self.size['warm_start_epochs']}\n"
            + f"theta = {DESK_THETA}\n"
            + "batch_size = 128\n",
            encoding="utf-8",
        )

    def setup(self):
        train = load_idx_dataset(*dataset_paths(self.data_root, "train"), limit=self.size["train"], split="train")
        load_idx_dataset(*dataset_paths(self.data_root, "test"), limit=self.size["test"], split="test")
        return build_enc_dec_task(train, DESK_THETA)

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, state) -> dict:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(self.config)])
        return {"exit_code": code, "rows": self.rows_per_run, "train_s": time.perf_counter() - t0}

    def collect(self, outcome: dict):
        failed = []
        if outcome["exit_code"] != 0:
            failed.append(f"seqpen run exited with {outcome['exit_code']}")
        missing = [a for a in ARTIFACTS if not (self.out_dir / a).is_file()]
        if missing:
            failed.append("missing artifacts: " + ", ".join(missing))
            return {}, failed, None
        digest = _digest(*((a.encode() + (self.out_dir / a).read_bytes()) for a in ARTIFACTS))
        rows = {}
        lines = (self.out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            values = line.split(",")
            rows[values[0]] = {k: float(v) for k, v in zip(header[1:], values[1:])}
        if set(rows) != {"train", "test"}:
            failed.append(f"results.csv has splits {sorted(rows)}, expected train and test")
            return {}, failed, digest
        quality = {
            "train_satisfied_fraction": rows["train"]["satisfied_fraction"],
            "test_accuracy": rows["test"]["accuracy"],
            "final_objective": rows["train"]["ce_loss"],
        }
        if not all(math.isfinite(v) for v in quality.values()):
            failed.append(f"non-finite result: {quality}")
        if not 0.0 <= quality["train_satisfied_fraction"] <= 1.0:
            failed.append(f"satisfied fraction {quality['train_satisfied_fraction']} outside [0, 1]")
        if not self.size["min_test_accuracy"] <= quality["test_accuracy"] <= 1.0:
            failed.append(f"test accuracy {quality['test_accuracy']} below {self.size['min_test_accuracy']}")
        return quality, failed, digest


def multi_sample_problem(seed: int, num_samples: int, dim: int):
    """Seeded mean-normalized QP given only per-sample oracles, with a known KKT point.

    Samples j < dim carry an active constraint c_j.x <= d_j whose
    multiplier balances that sample's own objective gradient at x*, so the
    per-sample penalty gradients vanish as tau grows (strong growth holds in
    the limit); the remaining samples carry slack constraints. The active
    normals are orthonormal, so x* is a well-conditioned vertex.
    """
    rng = np.random.default_rng(seed)
    x_star = rng.normal(size=dim)
    normals = np.vstack([np.linalg.qr(rng.normal(size=(dim, dim)))[0], rng.normal(size=(num_samples - dim, dim))])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    lam = np.zeros(num_samples)
    lam[:dim] = rng.uniform(0.5, 1.5, size=dim)
    slack = np.zeros(num_samples)
    slack[dim:] = rng.uniform(0.5, 1.0, size=num_samples - dim)
    offsets = normals @ x_star + slack
    weights = rng.uniform(0.5, 1.5, size=num_samples)
    centers = x_star + lam[:, None] * normals / weights[:, None]

    def sample_objective(j, x):
        r = x - centers[j]
        return 0.5 * weights[j] * float(r @ r)

    def sample_objective_grad(j, x):
        return weights[j] * (x - centers[j])

    def sample_constraints(j, x):
        return np.array([normals[j] @ x - offsets[j]])

    def sample_constraint_jacobian(j, x):
        return normals[j : j + 1]

    problem = FiniteSumProblem(
        dim=dim,
        num_samples=num_samples,
        num_constraints=1,
        sample_objective=sample_objective,
        sample_objective_grad=sample_objective_grad,
        sample_constraints=sample_constraints,
        sample_constraint_jacobian=sample_constraint_jacobian,
        normalization="mean",
    )
    if not kkt_residual(problem, x_star, lam.reshape(-1, 1)).is_eps_kkt(1e-10):
        raise RuntimeError("multi-sample problem failed KKT certification")
    if not elicq_check(problem, x_star, act_tol=1e-8).holds:
        raise RuntimeError("multi-sample problem failed LICQ at its solution")
    # Smoothness of every sample's quadratic penalty: unit normals add tau.
    max_weight = float(weights.max())
    return problem, x_star, (lambda tau: max_weight + tau)


class QpTheory:
    """Theoretical-mode sequential penalty training plus diagnostics on QPs."""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        pass

    def setup(self):
        problems = []
        for name, qp in sorted(qp_registry().items()):
            problems.append((name, qp.problem, qp.x_star, qp.penalty_lipschitz, QP_INNER, True))
        ms, x_star, lipschitz = multi_sample_problem(self.seed, *MULTI_SAMPLE_SHAPE)
        problems.append(("multi_sample", ms, x_star, lipschitz, MULTI_SAMPLE_INNER, False))
        return problems

    def reset(self):
        pass

    def run(self, problems) -> dict:
        results = []
        train_s = 0.0
        rows = 0
        for name, problem, x_star, lipschitz, (batch, budget, max_outer), certified in problems:
            schedule = Schedule(
                tau0=1.0,
                gamma=2.0,
                max_outer=max_outer,
                inner=SGDConfig(stepsize=1.0, batch_size=batch, budget=budget, candidate_rule="last",
                                grad_norm="exact", rng_seed=self.seed),
                stepsize_fn=lambda tau, lipschitz=lipschitz: 1.0 / lipschitz(tau),
            )
            t0 = time.perf_counter()
            trace = sequential_penalty_train(problem, "quadratic", schedule, np.zeros(problem.dim))
            train_s += time.perf_counter() - t0
            rows += sum(rec.iterate_count - 1 for rec in trace.records) * batch
            final = trace.final()
            x = final.candidate
            spec = PenaltySpec("quadratic", final.tau)
            kkt = kkt_residual(problem, x, multiplier_estimate(problem, spec, x))
            elicq = elicq_check(problem, x)
            smooth = smoothness_estimate(problem, spec, (x - 1.0, x + 1.0), num_probes=6, rng_seed=self.seed)
            probes = [x + 0.5 * np.eye(problem.dim)[i] for i in range(problem.dim)]
            sgc = sgc_estimate(problem, spec, probes)
            results.append({
                "name": name,
                "certified": certified,
                "x": x,
                "x_err": float(np.abs(x - x_star).max()),
                "kkt": kkt,
                "elicq": elicq.holds,
                "smoothness": smooth.penalty_lipschitz,
                "rho": sgc.rho_est,
                "objective": full_objective(problem, x),
                "feasibility": feasibility_stats(problem, x, threshold_tol=KKT_TOL),
                "num_constraints": problem.num_samples * problem.num_constraints,
            })
        return {"problems": results, "train_s": train_s, "rows": rows}

    def collect(self, outcome: dict):
        failed = []
        certified = [p for p in outcome["problems"] if p["certified"]]
        for p in outcome["problems"]:
            kkt = p["kkt"]
            if p["x_err"] > X_TOL:
                failed.append(f"{p['name']}: |x - x*| = {p['x_err']:.3g} > {X_TOL}")
            if not kkt.is_eps_kkt(KKT_TOL):
                failed.append(f"{p['name']}: not a {KKT_TOL}-KKT point: {kkt}")
            if not p["elicq"]:
                failed.append(f"{p['name']}: E-LICQ fails at the end point")
            if not (math.isfinite(p["smoothness"]) and p["smoothness"] > 0):
                failed.append(f"{p['name']}: smoothness estimate {p['smoothness']}")
            # The unbiased estimator's second moment is at least the squared mean.
            if not p["rho"] >= 1.0 - 1e-9:
                failed.append(f"{p['name']}: strong-growth ratio {p['rho']} < 1")
        satisfied = sum(p["feasibility"].satisfied_fraction * p["num_constraints"] for p in outcome["problems"])
        total = sum(p["num_constraints"] for p in outcome["problems"])
        quality = {
            "train_satisfied_fraction": satisfied / total,
            "final_objective": sum(p["objective"] for p in certified),
            "kkt_residual": max(
                max(p["kkt"].stationarity_residual, p["kkt"].feasibility_residual, p["kkt"].complementarity_residual)
                for p in certified
            ),
            "x_err": max(p["x_err"] for p in certified),
        }
        digest = _digest(*(p["x"].tobytes() for p in outcome["problems"]))
        return quality, failed, digest


WORKLOADS = ("desk_seq", "desk_fixed", "qp_theory")


def make(name: str, size: str, seed: int, workdir: Path):
    sizes = SIZES[size]
    if name == "desk_seq":
        return Desk(name, "sequential", sizes, seed, workdir)
    if name == "desk_fixed":
        return Desk(name, "fixed", sizes, seed, workdir)
    if name == "qp_theory":
        return QpTheory(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
