"""Benchmark harness: configure, run and compare constrained-training experiments.

Commands:

* ``seqpen run <config>``: run one experiment, writing CSV artifacts and a
  manifest into the configured output directory.
* ``seqpen compare <dirs...>``: print an aligned summary table across runs.
* ``seqpen grid <config-glob> [--jobs K]``: run many configs in worker
  processes, each writing to its own directory; a failing config does not
  stop the others, and the exit code is the largest of theirs.
* ``seqpen synth-data <root>``: generate a synthetic digit dataset in IDX
  format so the image task runs without any download.

Config files are flat ``key = value`` text with ``#`` comments. Parsing is
strict: unknown keys, duplicate keys, and keys that do not apply to the
chosen task/method are rejected with the offending line number.

Exit codes: 0 success, 2 config or data error (a config file that is not
UTF-8, a value the library rejects, an out_dir that cannot be created, a
negative train_limit or test_limit, a missing or unreadable dataset, a
corrupt IDX file), 3 numeric abort (a diverging iterate or a non-finite
oracle value; the partial trace is still flushed). Every config value,
lambda and warm_start_epochs included, is turned into the library object it
feeds before any training starts, so a rejected value never costs a
training run. The manifest is written before any data is read, so it is
present in all three cases unless the file cannot be parsed or out_dir
cannot be created.

All CSV output is UTF-8 with LF line endings, one header row, and floats
rendered with 6 significant digits; identical configs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import glob as globmod
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

import seqpen
from seqpen.inner import AdamParams, SGDConfig
from seqpen.outer import (
    OuterAbort,
    OuterTrace,
    Schedule,
    derived_seed,
    fixed_penalty_train,
    sequential_penalty_train,
)
from seqpen.penalties import PenaltySpec
from seqpen.tasks.data import dataset_paths, load_idx_dataset, write_synthetic_idx
from seqpen.tasks.encdec import build_enc_dec_task, evaluate_enc_dec, warm_start
from seqpen.tasks.qp import qp_registry
from seqpen.problems import constraint_values

SCHEMA = "seqpen-run-v1"
DATA_ENV = "SEQPEN_DATA"
MAX_TRACE_DIM = 16

TASKS = ("analytic_qp", "enc_dec")
METHODS = ("sequential", "fixed", "objective_only")
SCALES = ("desk", "paper")

RESULTS_HEADER = ["split", "ce_loss", "accuracy", "mse_loss", "mean_violation", "satisfied_fraction"]
TRACE_HEADER = [
    "k",
    "tau",
    "eps",
    "penalty_value",
    "objective_value",
    "grad_norm",
    "mean_violation",
    "max_violation",
    "satisfied_fraction",
    "multiplier_max",
    "multiplier_mean",
]
HIST_HEADER = ["split", "sample", "constraint", "value"]
TIMELINE_HEADER = ["epoch", "phase", "split", "accuracy", "satisfied_fraction"]


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


@contextlib.contextmanager
def _library_checks():
    """Report a library constructor's rejection of a config value as a config error."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


# --------------------------------------------------------------------------
# config parsing


def _parse_lines(path: Path, text: str) -> dict:
    """Split key = value lines; values kept as strings with their line numbers."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {raw[key][1]})")
        raw[key] = (value, lineno)
    return raw


def _conv_int(value, where):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None


def _conv_float(value, where):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _conv_bool(value, where):
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: expected true/false, got {value!r}")


def _conv_floats(value, where):
    try:
        return np.array([float(v) for v in value.split(",")])
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {value!r}") from None


def _conv_choice(choices):
    def conv(value, where):
        if value not in choices:
            raise ConfigError(f"{where}: expected one of {', '.join(choices)}, got {value!r}")
        return value

    return conv


def _conv_str(value, where):
    return value


def _conv_stepsize(value, where):
    if value == "auto":
        return "auto"
    return _conv_float(value, where)


COMMON_KEYS = {
    "task": _conv_choice(TASKS),
    "method": _conv_choice(METHODS),
    "seed": _conv_int,
    "out_dir": _conv_str,
}

QP_KEYS = {
    "qp_name": _conv_str,
    "x0": _conv_floats,
    "mode": _conv_choice(("theoretical", "practical")),
    "stepsize": _conv_stepsize,
    "batch_size": _conv_int,
    "budget": _conv_int,
    "candidate_rule": _conv_choice(("last", "uniform")),
}

ENC_KEYS = {
    "data_root": _conv_str,
    "scale": _conv_choice(SCALES),
    "train_limit": _conv_int,
    "test_limit": _conv_int,
    "epochs": _conv_int,
    "warm_start_epochs": _conv_int,
    "theta": _conv_float,
    "batch_size": _conv_int,
    "learning_rate": _conv_float,
    "weight_decay": _conv_float,
    "timeline": _conv_bool,
}

SEQUENTIAL_KEYS = {
    "tau0": _conv_float,
    "gamma": _conv_float,
    "eps0": _conv_float,
    "eps_decay": _conv_float,
    "penalty_kind": _conv_choice(("quadratic", "linear")),
    "max_outer": _conv_int,
}

FIXED_KEYS = {"lambda": _conv_float}

QP_DEFAULTS = {
    "qp_name": "x_sq_ge_1",
    "mode": "theoretical",
    "stepsize": "auto",
    "batch_size": 1,
    "budget": 50,
    "candidate_rule": "last",
    "tau0": 1.0,
    "gamma": 2.0,
    "eps0": 1.0,
    "eps_decay": 0.9,
    "penalty_kind": "quadratic",
    "max_outer": 20,
}

ENC_DEFAULTS = {
    "scale": "desk",
    "warm_start_epochs": 5,
    "theta": 0.01,
    "batch_size": 128,
    "learning_rate": 1e-3,
    "weight_decay": 1e-3,
    "timeline": True,
    "tau0": 100.0,
    "eps0": 1.0,
    "eps_decay": 0.9,
    "penalty_kind": "linear",
}

SCALE_DEFAULTS = {
    "desk": {"train_limit": 6000, "test_limit": 1000, "epochs": 25, "gamma": 1.1},
    "paper": {"train_limit": 0, "test_limit": 0, "epochs": 250, "gamma": 1.01},
}


def load_config(path) -> dict:
    """Parse and strictly validate a config file into typed values."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    raw = _parse_lines(path, text)
    config_raw = {k: v for k, (v, _) in raw.items()}

    def take(key, table):
        if key not in raw:
            return None
        value, lineno = raw.pop(key)
        return table[key](value, f"{path}:{lineno}")

    cfg = {}
    for key in ("task", "method"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
        cfg[key] = take(key, COMMON_KEYS)
    if "out_dir" not in raw:
        raise ConfigError(f"{path}: missing required key 'out_dir'")
    cfg["out_dir"] = take("out_dir", COMMON_KEYS)
    cfg["seed"] = take("seed", COMMON_KEYS) if "seed" in raw else 0

    allowed = dict(QP_KEYS) if cfg["task"] == "analytic_qp" else dict(ENC_KEYS)
    if cfg["method"] == "sequential":
        allowed.update(SEQUENTIAL_KEYS if cfg["task"] == "analytic_qp" else
                       {k: v for k, v in SEQUENTIAL_KEYS.items() if k != "max_outer"})
    elif cfg["method"] == "fixed":
        allowed.update(FIXED_KEYS)

    for key in list(raw):
        if key not in allowed:
            _, lineno = raw[key]
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} is unknown or does not apply to "
                f"task={cfg['task']} method={cfg['method']}"
            )
    for key in list(raw):
        cfg[key] = take(key, allowed)

    if cfg["method"] == "fixed" and "lambda" not in cfg:
        raise ConfigError(f"{path}: method 'fixed' requires key 'lambda'")

    defaults = QP_DEFAULTS if cfg["task"] == "analytic_qp" else ENC_DEFAULTS
    for key, val in defaults.items():
        if key in allowed:
            cfg.setdefault(key, val)
    if cfg["task"] == "enc_dec":
        for key, val in SCALE_DEFAULTS[cfg["scale"]].items():
            if key in allowed:
                cfg.setdefault(key, val)
        if "data_root" not in cfg:
            root = os.environ.get(DATA_ENV)
            if not root:
                raise ConfigError(f"{path}: set 'data_root' or the {DATA_ENV} environment variable")
            cfg["data_root"] = root

    cfg["config_sha256"] = hashlib.sha256(data).hexdigest()
    cfg["config_raw"] = config_raw
    return cfg


# --------------------------------------------------------------------------
# artifact writing


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.6g}"


def write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def _method_label(cfg) -> str:
    if cfg["method"] == "sequential":
        return f"tau0={fmt(cfg['tau0'])},gamma={fmt(cfg['gamma'])}"
    if cfg["method"] == "fixed":
        return f"lambda={fmt(cfg['lambda'])}"
    return "-"


def _write_manifest(out: Path, cfg):
    manifest = {
        "schema": SCHEMA,
        "library_version": seqpen.__version__,
        "config_sha256": cfg["config_sha256"],
        "task": cfg["task"],
        "method": cfg["method"],
        "seed": cfg["seed"],
        "label": _method_label(cfg),
        "config": cfg["config_raw"],
    }
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _trace_rows(trace: OuterTrace, with_candidate: bool):
    rows = []
    for rec in trace.records:
        row = [
            rec.k,
            rec.tau,
            rec.eps,
            rec.penalty_value,
            rec.objective_value,
            rec.grad_norm,
            rec.feasibility.mean_violation,
            rec.feasibility.max_violation,
            rec.feasibility.satisfied_fraction,
            rec.multiplier_max,
            rec.multiplier_mean,
        ]
        if with_candidate:
            row.extend(rec.candidate.tolist())
        rows.append(row)
    return rows


def _write_trace(out: Path, trace: OuterTrace, dim: int):
    with_candidate = dim <= MAX_TRACE_DIM
    header = list(TRACE_HEADER) + ([f"x{i}" for i in range(dim)] if with_candidate else [])
    write_csv(out / "trace.csv", header, _trace_rows(trace, with_candidate))


# --------------------------------------------------------------------------
# experiment execution


def _method(cfg, inner: SGDConfig, max_outer, stepsize_fn=None):
    """Build the configured method; returns ``train(problem, x0, epoch_hook=None) -> OuterTrace``.

    Call inside ``_library_checks()`` so the Schedule or the lambda PenaltySpec
    rejects its values before training. ``stepsize_fn(tau)`` sets the inner stepsize per tau.
    """
    if cfg["method"] == "sequential":
        schedule = Schedule(
            tau0=cfg["tau0"],
            gamma=cfg["gamma"],
            max_outer=max_outer,
            inner=inner,
            eps0=cfg["eps0"],
            eps_decay=cfg["eps_decay"],
            stepsize_fn=stepsize_fn,
        )
        return lambda problem, x0, epoch_hook=None: sequential_penalty_train(
            problem, cfg["penalty_kind"], schedule, x0, epoch_hook=epoch_hook
        )
    lam = PenaltySpec("linear", cfg["lambda"] if cfg["method"] == "fixed" else 0.0).tau
    if stepsize_fn is not None:
        inner = dataclasses.replace(inner, stepsize=stepsize_fn(lam))
    return lambda problem, x0, epoch_hook=None: fixed_penalty_train(problem, lam, inner, x0, epoch_hook=epoch_hook)


def _run_qp(cfg):
    registry = qp_registry()
    if cfg["qp_name"] not in registry:
        raise ConfigError(f"unknown qp_name {cfg['qp_name']!r}; choose from {', '.join(sorted(registry))}")
    qp = registry[cfg["qp_name"]]
    problem = qp.problem
    x0 = cfg.get("x0")
    if x0 is None:
        x0 = np.zeros(qp.dim)
    elif x0.shape != (qp.dim,):
        raise ConfigError(f"x0 has length {x0.size}, problem dimension is {qp.dim}")

    def auto_stepsize(tau):
        return 1.0 / qp.penalty_lipschitz(tau)

    auto = cfg["stepsize"] == "auto"
    with _library_checks():
        inner = SGDConfig(
            stepsize=1.0 if auto else cfg["stepsize"],  # replaced per tau when auto
            batch_size=cfg["batch_size"],
            mode=cfg["mode"],
            budget=cfg["budget"],
            rng_seed=cfg["seed"],
            candidate_rule=cfg["candidate_rule"] if cfg["mode"] == "theoretical" else None,
            grad_norm="exact",
        )
        train = _method(cfg, inner, cfg.get("max_outer"), auto_stepsize if auto else None)

    trace = train(problem, x0)
    final = trace.final()
    g = constraint_values(problem, final.candidate)
    results = [
        [
            "train",
            final.objective_value,
            float("nan"),
            float(g.mean()),
            final.feasibility.mean_violation,
            final.feasibility.satisfied_fraction,
        ]
    ]
    hist = [["train", j, i, g[j, i]] for j in range(g.shape[0]) for i in range(g.shape[1])]
    timeline = [
        [rec.k, "train", "train", float("nan"), rec.feasibility.satisfied_fraction] for rec in trace.records
    ]
    return trace, qp.dim, results, hist, timeline


def _run_enc_dec(cfg):
    root = cfg["data_root"]
    train_limit = cfg["train_limit"] or None
    test_limit = cfg["test_limit"] or None
    try:
        train = load_idx_dataset(*dataset_paths(root, "train"), limit=train_limit, split="train")
        test = load_idx_dataset(*dataset_paths(root, "test"), limit=test_limit, split="test")
    except (OSError, ValueError) as err:
        # IdxError, a negative limit and the dataset's own validation are ValueErrors.
        raise DataError(str(err)) from err
    with _library_checks():
        task = build_enc_dec_task(train, cfg["theta"])
        inner = SGDConfig(
            stepsize=cfg["learning_rate"],
            batch_size=cfg["batch_size"],
            mode="practical",
            budget=1 if cfg["method"] == "sequential" else cfg["epochs"],
            adam=AdamParams(weight_decay=cfg["weight_decay"]),
            rng_seed=derived_seed(cfg["seed"], 2),
            grad_norm="none",
        )
        warm = dataclasses.replace(inner, budget=cfg["warm_start_epochs"], rng_seed=derived_seed(cfg["seed"], 1))
        train_method = _method(cfg, inner, cfg["epochs"])
    model = task.model

    params0 = model.init_params(np.random.default_rng(derived_seed(cfg["seed"], 0)))

    timeline_rows = []
    phase_state = {"epoch": 0, "phase": "warm"}

    splits = (("train", train.images, train.labels), ("test", test.images, test.labels))

    def timeline_hook(params):
        for split_name, images, labels in splits:
            m = evaluate_enc_dec(model, params, images, labels, cfg["theta"])
            timeline_rows.append(
                [phase_state["epoch"], phase_state["phase"], split_name, m["accuracy"], m["satisfied_fraction"]]
            )
        phase_state["epoch"] += 1

    hook = timeline_hook if cfg["timeline"] else None

    params = warm_start(task, params0, warm, epoch_hook=hook)
    phase_state["phase"] = "train"
    trace = train_method(task.problem, params, epoch_hook=hook)
    final_params = trace.final().candidate

    results = []
    hist = []
    for split_name, images, labels in splits:
        m = evaluate_enc_dec(model, final_params, images, labels, cfg["theta"])
        results.append(
            [split_name, m["ce_loss"], m["accuracy"], m["mse_loss"], m["mean_violation"], m["satisfied_fraction"]]
        )
        hist.extend([split_name, j, 0, m["mse_per_sample"][j]] for j in range(len(m["mse_per_sample"])))
    return trace, model.num_params, results, hist, timeline_rows


def run_experiment(config_path) -> int:
    """Run one configured experiment; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        out = Path(cfg["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"out_dir: {err}") from err
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    _write_manifest(out, cfg)
    try:
        trace, dim, results, hist, timeline = (_run_qp if cfg["task"] == "analytic_qp" else _run_enc_dec)(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except OuterAbort as err:
        # Flush whatever the outer loop recorded before the abort.
        dim = err.partial.records[0].candidate.size if err.partial.records else MAX_TRACE_DIM + 1
        _write_trace(out, err.partial, dim)
        print(f"numeric abort: {err}", file=sys.stderr)
        return 3
    _write_trace(out, trace, dim)
    write_csv(out / "results.csv", RESULTS_HEADER, results)
    write_csv(out / "violations_hist.csv", HIST_HEADER, hist)
    write_csv(out / "timeline.csv", TIMELINE_HEADER, timeline)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# compare / grid


def _load_run(run_dir: Path):
    manifest_path = run_dir / "manifest.json"
    results_path = run_dir / "results.csv"
    problems = []
    if not manifest_path.exists():
        problems.append(str(manifest_path))
    if not results_path.exists():
        problems.append(str(results_path))
    if problems:
        raise ConfigError("missing run artifacts: " + ", ".join(problems))
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    lines = results_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return manifest, header, rows


def cmd_compare(run_dirs, split: str = "train") -> int:
    runs = []
    for d in run_dirs:
        try:
            manifest, header, rows = _load_run(Path(d))
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        if header != RESULTS_HEADER:
            print(f"error: schema mismatch in {d}/results.csv: {header}", file=sys.stderr)
            return 1
        runs.append((manifest, rows, str(d)))

    tasks = {m["task"] for m, _, _ in runs}
    if len(tasks) > 1:
        offenders = ", ".join(f"{d} ({m['task']})" for m, _, d in runs)
        print(f"error: refusing to compare runs across tasks: {offenders}", file=sys.stderr)
        return 1

    table = []
    for manifest, rows, d in runs:
        picked = [r for r in rows if r[0] == split]
        if not picked:
            print(f"error: {d}/results.csv has no rows for split {split!r}", file=sys.stderr)
            return 1
        table.append([manifest["method"], manifest["label"]] + picked[0][1:])
    table.sort(key=lambda row: (row[0], row[1]))

    header = ["method", "label"] + RESULTS_HEADER[1:]
    widths = [max(len(str(row[i])) for row in [header] + table) for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


def _run_grid_config(config) -> int:
    """``run_experiment`` for one grid config; an unexpected error ends only this config, with exit 1."""
    try:
        return run_experiment(config)
    except Exception:
        print(f"{config}: unexpected error", file=sys.stderr)
        traceback.print_exc()
        return 1


def cmd_grid(pattern: str, jobs: int) -> int:
    configs = sorted(globmod.glob(pattern))
    if not configs:
        print(f"error: no config files match {pattern!r}", file=sys.stderr)
        return 1
    if jobs <= 1:
        codes = [_run_grid_config(c) for c in configs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_grid_config, configs))
    for config, code in zip(configs, codes):
        print(f"{config}: exit {code}")
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seqpen", description="Constrained-training benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")

    p_cmp = sub.add_parser("compare", help="summarize finished runs in one table")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--split", default="train", choices=("train", "test"))

    p_grid = sub.add_parser("grid", help="run every config matching a glob")
    p_grid.add_argument("pattern")
    p_grid.add_argument("--jobs", type=int, default=1)

    p_synth = sub.add_parser("synth-data", help="write a synthetic digit dataset in IDX format")
    p_synth.add_argument("root")
    p_synth.add_argument("--train", type=int, default=6000)
    p_synth.add_argument("--test", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config)
    if args.command == "compare":
        return cmd_compare(args.run_dirs, split=args.split)
    if args.command == "grid":
        return cmd_grid(args.pattern, jobs=args.jobs)
    root = write_synthetic_idx(args.root, num_train=args.train, num_test=args.test, rng_seed=args.seed)
    print(f"wrote synthetic dataset under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
