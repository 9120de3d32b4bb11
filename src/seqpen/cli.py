"""Benchmark harness: configure, run and compare constrained-training experiments.

Commands:

* ``seqpen run <config>``: run one experiment, writing CSV artifacts and a
  manifest into the configured output directory. The run artifacts an
  earlier run left there are removed right after the new manifest is
  written, so a failed run never leaves an older run's results beside it.
* ``seqpen compare <dirs...>``: print an aligned summary table across runs;
  exit 1 when a directory lacks its manifest or results, or its manifest is
  not a JSON object holding task, method and label.
* ``seqpen grid <config-glob> [--jobs K]``: run many configs, each writing to
  its own directory; a failing config does not stop the others, and the exit
  code is the largest of theirs. Each config runs as a ``python -m seqpen.cli
  run <config>`` child, at most ``workers = min(K, configs)`` at a time.
  With more than one worker the children start with the four BLAS thread
  variables capped at ``max(1, usable CPUs // workers)``, an unset one set to
  it (its manifest records them; this process's environment is left as it
  was); one worker's child gets them as they are. A child's exit code is its
  config's (1 for an unexpected error), and a child killed by signal N
  counts as 128 + N.
* ``seqpen synth-data <root>``: generate a synthetic digit dataset in IDX
  format so the image task runs without any download.

Config files are flat ``key = value`` text with whole-line ``#`` comments.
Parsing is strict: unknown keys, duplicate keys, and keys that do not apply
to the chosen task/method are rejected with the offending line number.

Exit codes: 0 success, 2 config or data error (a config file that is not
UTF-8, a value the library rejects such as theta = nan, weight_decay = -1,
seed = -1, candidate_rule = uniform without mode = theoretical or a schedule
whose last tau overflows a float, a QP x0 that is not finite, an out_dir
that cannot be created, a negative train_limit or test_limit, a missing or
unreadable dataset, a corrupt IDX or gzip file, a train or test split with
no images, a synth-data root that cannot be created or written, printed as
"error: <root>: <reason>"; also a negative synth-data --train, --test or
--seed, or a grid --jobs below 1, as a usage error), 3 numeric abort (a
diverging iterate, in the warm start or in training, or a non-finite oracle
value; trace.csv and timeline.csv are still flushed with the rows gathered
so far), 128 + N a grid child killed by signal N.
Every config value, lambda and warm_start_epochs included, is turned into
the library object it feeds before any training starts, so a rejected value
never costs a training run; the message starts with the config key that set
it ("lambda: tau must be ..."). The manifest is written before any data is
read, so it is present in all three cases unless the file cannot be parsed
or out_dir cannot be created.

An enc_dec run evaluates a split once at each point: the outer record, the
epoch timeline and the final results at the same parameters share the pass.

All CSV output is UTF-8 with LF line endings, one header row, and floats
rendered with 6 significant digits; identical configs produce byte-identical
files at one BLAS thread setting (a multi-threaded BLAS may sum a matrix
product in another order, so enc_dec files can differ between settings).
manifest.json records that setting: the four BLAS thread variables (null
when unset) and the number of CPUs the process may use.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import glob as globmod
import hashlib
import json
import operator
import os
import sys
from pathlib import Path

import numpy as np

import seqpen
from seqpen.inner import CANDIDATE_RULES, MODES, InnerSolverError, SGDConfig
from seqpen.outer import (
    MAX_TRACE_DIM, OuterAbort, Schedule, derived_seed, fixed_penalty_train, sequential_penalty_train,
)
from seqpen.penalties import PENALTY_KINDS, PenaltySpec
from seqpen.tasks.data import dataset_paths, load_idx_dataset, write_synthetic_idx
from seqpen.tasks.encdec import build_enc_dec_task, evaluate_enc_dec, warm_start
from seqpen.tasks.qp import qp_registry
from seqpen.problems import OracleError, constraint_values

SCHEMA = "seqpen-run-v1"
RUN_ARTIFACTS = ("trace.csv", "timeline.csv", "results.csv", "violations_hist.csv")
DATA_ENV = "SEQPEN_DATA"
# The variables that set a BLAS library's thread count; the manifest records them.
THREAD_ENV = ("BLIS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

TASKS = ("analytic_qp", "enc_dec")
METHODS = ("sequential", "fixed", "objective_only")
SCALES = ("desk", "paper")

RESULTS_HEADER = ["split", "ce_loss", "accuracy", "mse_loss", "mean_violation", "satisfied_fraction"]
# trace.csv: one column per OuterRecord attribute path, named by its last
# part, then x0, x1, ... when the candidate has at most MAX_TRACE_DIM entries.
TRACE_COLUMNS = (
    "k",
    "tau",
    "eps",
    "penalty_value",
    "objective_value",
    "grad_norm",
    "feasibility.mean_violation",
    "feasibility.max_violation",
    "feasibility.satisfied_fraction",
    "multiplier_max",
    "multiplier_mean",
)
HIST_HEADER = ["split", "sample", "constraint", "value"]
TIMELINE_HEADER = ["epoch", "phase", "split", "accuracy", "satisfied_fraction"]


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


@contextlib.contextmanager
def _library_checks(*keys, error=ConfigError, **renamed):
    """Report a library function's rejection of a config value as ``error``, naming the config key.

    The library's messages start with the rejected parameter's name. ``keys``
    are parameters named like their config key; ``renamed`` maps a parameter
    to the key that sets it (``stepsize="learning_rate"``).
    """
    try:
        yield
    except ValueError as err:
        key = dict(zip(keys, keys), **renamed).get(str(err).split(" ", 1)[0])
        raise error(f"{key}: {err}" if key else str(err)) from err


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


def _converter(parse, expected):
    """A config value converter; ``parse`` raises ValueError or KeyError on a value it rejects."""

    def conv(value, where):
        try:
            return parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None

    return conv


def _conv_choice(choices):
    return _converter(lambda value: {c: c for c in choices}[value], f"one of {', '.join(choices)}")


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_conv_int = _converter(int, "an integer")
_conv_float = _converter(float, "a number")
_conv_bool = _converter(lambda value: _BOOLS[value.lower()], "true/false")
_conv_floats = _converter(lambda value: np.array([float(v) for v in value.split(",")]), "comma-separated numbers")
_conv_stepsize = _converter(lambda value: "auto" if value == "auto" else float(value), "a number")


def _conv_str(value, where):
    return value


# Special defaults: a key the user must set, and a key whose default depends
# on ``scale`` (looked up in SCALE_DEFAULTS). A default of None leaves the key
# out of the parsed config.
REQUIRED = object()
BY_SCALE = object()

# Every run takes these; ``task``, ``method`` and ``out_dir`` are read first.
RUN_KEYS = {
    "task": (_conv_choice(TASKS), REQUIRED),
    "method": (_conv_choice(METHODS), REQUIRED),
    "out_dir": (_conv_str, REQUIRED),
    "seed": (_conv_int, 0),
}

# key: (converter, default), per task and then per (task, method). Defaults are
# filled in table order, so ``scale`` precedes the keys that default by scale.
TASK_KEYS = {
    "analytic_qp": {
        "qp_name": (_conv_str, "x_sq_ge_1"),
        "x0": (_conv_floats, None),
        "mode": (_conv_choice(MODES), "theoretical"),
        "stepsize": (_conv_stepsize, "auto"),
        "batch_size": (_conv_int, 1),
        "budget": (_conv_int, 50),
        "candidate_rule": (_conv_choice(CANDIDATE_RULES), "last"),
    },
    "enc_dec": {
        "data_root": (_conv_str, None),  # falls back to the DATA_ENV variable
        "scale": (_conv_choice(SCALES), "desk"),
        "train_limit": (_conv_int, BY_SCALE),
        "test_limit": (_conv_int, BY_SCALE),
        "epochs": (_conv_int, BY_SCALE),
        "warm_start_epochs": (_conv_int, 5),
        "theta": (_conv_float, 0.01),
        "batch_size": (_conv_int, 128),
        "learning_rate": (_conv_float, 1e-3),
        "weight_decay": (_conv_float, 1e-3),
        "timeline": (_conv_bool, True),
    },
}

_PENALTY_KIND = _conv_choice(PENALTY_KINDS)
METHOD_KEYS = {
    ("analytic_qp", "sequential"): {
        "tau0": (_conv_float, 1.0),
        "gamma": (_conv_float, 2.0),
        "eps0": (_conv_float, 1.0),
        "eps_decay": (_conv_float, 0.9),
        "penalty_kind": (_PENALTY_KIND, "quadratic"),
        "max_outer": (_conv_int, 20),
    },
    ("enc_dec", "sequential"): {
        "tau0": (_conv_float, 100.0),
        "gamma": (_conv_float, BY_SCALE),
        "penalty_kind": (_PENALTY_KIND, "linear"),
    },
    ("analytic_qp", "fixed"): {"lambda": (_conv_float, REQUIRED)},
    ("enc_dec", "fixed"): {"lambda": (_conv_float, REQUIRED)},
    ("analytic_qp", "objective_only"): {},
    ("enc_dec", "objective_only"): {},
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

    def take(key, conv):
        value, lineno = raw.pop(key)
        return conv(value, f"{path}:{lineno}")

    cfg = {}
    for key, (conv, default) in RUN_KEYS.items():
        if key in raw:
            cfg[key] = take(key, conv)
        elif default is REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")
        else:
            cfg[key] = default

    keys = {**TASK_KEYS[cfg["task"]], **METHOD_KEYS[cfg["task"], cfg["method"]]}
    for key, (_, lineno) in raw.items():
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} is unknown or does not apply to "
                f"task={cfg['task']} method={cfg['method']}"
            )
    for key in list(raw):
        cfg[key] = take(key, keys[key][0])

    for key, (_, default) in keys.items():
        if key in cfg or default is None:
            continue
        if default is REQUIRED:
            raise ConfigError(f"{path}: method {cfg['method']!r} requires key {key!r}")
        cfg[key] = SCALE_DEFAULTS[cfg["scale"]][key] if default is BY_SCALE else default
    if "data_root" in keys and "data_root" not in cfg:
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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


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
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "usable_cpus": _usable_cpus(),
    }
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_trace(out: Path, records, dim: int):
    with_candidate = dim <= MAX_TRACE_DIM
    header = [column.rpartition(".")[2] for column in TRACE_COLUMNS]
    header += [f"x{i}" for i in range(dim)] if with_candidate else []
    values = operator.attrgetter(*TRACE_COLUMNS)
    rows = [[*values(rec), *(rec.candidate.tolist() if with_candidate else ())] for rec in records]
    write_csv(out / "trace.csv", header, rows)


# --------------------------------------------------------------------------
# experiment execution


def _method(cfg, inner: SGDConfig, max_outer_key, stepsize_fn=None):
    """Build the configured method; returns ``train(problem, x0, hook=None) -> OuterTrace``.

    ``train`` steps ``x0`` in place. The Schedule or the lambda PenaltySpec
    rejects its values here, before training, as a ConfigError.
    ``max_outer_key`` is the config key that counts outer iterations;
    ``stepsize_fn(tau)`` sets the inner stepsize per tau.
    """
    if cfg["method"] == "sequential":
        # Only analytic_qp takes eps0 and eps_decay; enc_dec keeps the Schedule's defaults.
        eps = {key: cfg[key] for key in ("eps0", "eps_decay") if key in cfg}
        with _library_checks("tau0", "gamma", "eps0", "eps_decay", max_outer=max_outer_key):
            schedule = Schedule(
                tau0=cfg["tau0"],
                gamma=cfg["gamma"],
                max_outer=cfg[max_outer_key],
                inner=inner,
                stepsize_fn=stepsize_fn,
                **eps,
            )
        return lambda problem, x0, hook=None: sequential_penalty_train(
            problem, cfg["penalty_kind"], schedule, x0, hook=hook
        )
    with _library_checks(tau="lambda"):
        lam = PenaltySpec("linear", cfg["lambda"] if cfg["method"] == "fixed" else 0.0).tau
        if stepsize_fn is not None:
            inner = dataclasses.replace(inner, stepsize=stepsize_fn(lam))
    return lambda problem, x0, hook=None: fixed_penalty_train(problem, lam, inner, x0, hook=hook)


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
    elif not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be finite, got {cfg['config_raw']['x0']}")

    def auto_stepsize(tau):
        return 1.0 / qp.penalty_lipschitz(tau)

    auto = cfg["stepsize"] == "auto"
    with _library_checks("stepsize", "batch_size", "budget", "candidate_rule", rng_seed="seed"):
        inner = SGDConfig(
            stepsize=1.0 if auto else cfg["stepsize"],  # replaced per tau when auto
            batch_size=cfg["batch_size"],
            mode=cfg["mode"],
            budget=cfg["budget"],
            rng_seed=cfg["seed"],
            candidate_rule=cfg["candidate_rule"],
            grad_norm="exact",
        )
    train_method = _method(cfg, inner, "max_outer", auto_stepsize if auto else None)

    def timeline_rows(records):
        return [[rec.k, "train", "train", float("nan"), rec.feasibility.satisfied_fraction] for rec in records]

    def result_rows(final):
        g = constraint_values(problem, x0)
        row = ["train", final.objective_value, float("nan"), float(g.mean())]
        row += [final.feasibility.mean_violation, final.feasibility.satisfied_fraction]
        return [row], [["train", j, i, g[j, i]] for j in range(g.shape[0]) for i in range(g.shape[1])]

    return qp.dim, lambda: train_method(problem, x0), timeline_rows, result_rows


def _run_enc_dec(cfg):
    datasets = []
    try:
        for split in ("train", "test"):
            limit = f"{split}_limit"
            # IdxError, a negative limit and the dataset's own validation are ValueErrors;
            # only the limit's message names a config key.
            with _library_checks(error=DataError, limit=limit):
                paths = dataset_paths(cfg["data_root"], split)
                datasets.append(load_idx_dataset(*paths, limit=cfg[limit] or None, split=split))
    except OSError as err:
        raise DataError(str(err)) from err
    with _library_checks("theta"):
        tasks = {ds.split: build_enc_dec_task(ds, cfg["theta"]) for ds in datasets}
    with _library_checks("seed", "batch_size", "weight_decay", stepsize="learning_rate", budget="epochs"):
        inner = SGDConfig(
            stepsize=cfg["learning_rate"],
            batch_size=cfg["batch_size"],
            mode="practical",
            budget=1 if cfg["method"] == "sequential" else cfg["epochs"],
            weight_decay=cfg["weight_decay"],
            rng_seed=derived_seed(cfg["seed"], 2),
            grad_norm="none",
        )
    with _library_checks(budget="warm_start_epochs"):
        warm = dataclasses.replace(inner, budget=cfg["warm_start_epochs"], rng_seed=derived_seed(cfg["seed"], 1))
    train_method = _method(cfg, inner, "epochs")
    task = tasks["train"]
    init_rng = np.random.default_rng(derived_seed(cfg["seed"], 0))
    timeline = []

    params = None  # the array the training call steps, allocated when it starts

    def timeline_hook(z):
        # The hook fires once per epoch, the warm start's epochs first.
        epoch = len(timeline) // len(tasks)
        phase = "warm" if epoch < cfg["warm_start_epochs"] else "train"
        for split_name, split_task in tasks.items():
            m = evaluate_enc_dec(split_task, z)
            timeline.append([epoch, phase, split_name, m["accuracy"], m["satisfied_fraction"]])

    hook = timeline_hook if cfg["timeline"] else None

    def run():
        nonlocal params
        params = task.model.init_params(init_rng)
        return train_method(task.problem, warm_start(task, params, warm, hook=hook), hook=hook)

    def result_rows(final):
        results, hist = [], []
        for split_name, split_task in tasks.items():
            m = evaluate_enc_dec(split_task, params)
            results.append([split_name, *(m[key] for key in RESULTS_HEADER[1:])])
            hist.extend([split_name, j, 0, mse] for j, mse in enumerate(m["mse_per_sample"]))
        return results, hist

    return task.model.num_params, run, lambda records: timeline, result_rows


def run_experiment(config_path) -> int:
    """Run one configured experiment; returns the process exit code.

    The runner builds every library object before training and returns the
    problem dimension, the training call and the row builders for the
    artifacts. This function alone writes trace.csv and timeline.csv, from the
    finished trace or from the rows gathered before a numeric abort. Right
    after the manifest it removes the artifacts an earlier run left in
    out_dir, so none of them outlives a failed run.
    """
    try:
        cfg = load_config(config_path)
        out = Path(cfg["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"out_dir: {err}") from err
        _write_manifest(out, cfg)
        for name in RUN_ARTIFACTS:
            (out / name).unlink(missing_ok=True)
        dim, train, timeline_rows, result_rows = (_run_qp if cfg["task"] == "analytic_qp" else _run_enc_dec)(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    records, abort = [], None
    try:
        # A diverging run overflows before the finiteness checks report it, and
        # their report is the message: numpy's own warnings are not printed.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            records = train().records
    except OuterAbort as err:
        records, abort = err.partial.records, err
    except (InnerSolverError, OracleError) as err:
        # The outer loop reports its own failures as OuterAbort; this one came from the warm start.
        abort = f"warm start aborted: {err}"
    _write_trace(out, records, dim)
    write_csv(out / "timeline.csv", TIMELINE_HEADER, timeline_rows(records))
    if abort is not None:
        print(f"numeric abort: {abort}", file=sys.stderr)
        return 3
    results, hist = result_rows(records[-1])
    write_csv(out / "results.csv", RESULTS_HEADER, results)
    write_csv(out / "violations_hist.csv", HIST_HEADER, hist)
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
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise ConfigError(f"{manifest_path}: {err}") from err
    if not isinstance(manifest, dict) or not {"task", "method", "label"} <= manifest.keys():
        raise ConfigError(f"{manifest_path}: not a run manifest (an object with task, method and label)")
    try:
        lines = results_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{results_path}: {err}") from err
    if not lines:
        raise ConfigError(f"{results_path}: empty file")
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


def _run_grid_child(config, env) -> int:
    """``seqpen run <config>`` in a child interpreter; a child killed by signal N counts as exit 128 + N."""
    import subprocess  # here, not at the top: its 8 modules add 0.5 MB to every ``seqpen run``

    code = subprocess.run([sys.executable, "-m", "seqpen.cli", "run", config], env=env).returncode
    return 128 - code if code < 0 else code


def _grid_child_env(workers: int) -> dict:
    """This process's environment for one of ``workers`` grid children, with this seqpen source on its path.

    With several workers each ``THREAD_ENV`` variable, read once when numpy loads its BLAS, is capped at an even
    share of the usable CPUs so that the children do not oversubscribe them; a value set within the share is kept,
    as a run keeps it. One worker gets the variables as they are, so its child runs as ``seqpen run`` would here.
    """
    share = max(1, _usable_cpus() // workers)
    env = dict(os.environ)
    for name in THREAD_ENV if workers > 1 else ():
        value = env.get(name, "")
        env[name] = value if value.isdigit() and 0 < int(value) <= share else str(share)
    src = str(Path(seqpen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def cmd_grid(pattern: str, jobs: int) -> int:
    configs = sorted(globmod.glob(pattern))
    if not configs:
        print(f"error: no config files match {pattern!r}", file=sys.stderr)
        return 1
    workers = min(jobs, len(configs))
    env = _grid_child_env(workers)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        codes = list(pool.map(lambda config: _run_grid_child(config, env), configs))
    for config, code in zip(configs, codes):
        print(f"{config}: exit {code}")
    return max(codes)


def _at_least(low: int):
    """argparse type for an integer >= ``low``: a sample count or a seed (0), a job count (1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


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
    p_grid.add_argument("--jobs", type=_at_least(1), default=1)

    p_synth = sub.add_parser("synth-data", help="write a synthetic digit dataset in IDX format")
    p_synth.add_argument("root")
    p_synth.add_argument("--train", type=_at_least(0), default=6000)
    p_synth.add_argument("--test", type=_at_least(0), default=1000)
    p_synth.add_argument("--seed", type=_at_least(0), default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config)
    if args.command == "compare":
        return cmd_compare(args.run_dirs, split=args.split)
    if args.command == "grid":
        return cmd_grid(args.pattern, jobs=args.jobs)
    try:
        root = write_synthetic_idx(args.root, num_train=args.train, num_test=args.test, rng_seed=args.seed)
    except OSError as err:
        print(f"error: {args.root}: {err.strerror or err}", file=sys.stderr)
        return 2
    print(f"wrote synthetic dataset under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
