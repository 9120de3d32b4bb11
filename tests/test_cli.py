import builtins
import dataclasses
import hashlib
import io
import json
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import seqpen.cli as cli_mod
import seqpen.outer as outer_mod
import seqpen.tasks.encdec as encdec_mod
from seqpen.cli import main
from seqpen.tasks.data import write_synthetic_idx
from seqpen.tasks.qp import qp_registry


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    write_synthetic_idx(root, num_train=256, num_test=64, rng_seed=0)
    return root


def write_cfg(path, **keys):
    lines = ["# test config"] + [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_run_qp_sequential(tmp_path):
    cfg = write_cfg(
        tmp_path / "qp.cfg",
        task="analytic_qp",
        method="sequential",
        seed=1,
        out_dir=tmp_path / "out",
        tau0=1.0,
        gamma=2.0,
        max_outer=20,
    )
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("manifest.json", "results.csv", "trace.csv", "violations_hist.csv", "timeline.csv"):
        assert (out / name).exists()

    header, rows = read_rows(out / "trace.csv")
    assert header[:3] == ["k", "tau", "eps"]
    assert "x0" in header
    final = rows[-1]
    assert abs(float(final["x0"]) - 1.0) <= 1e-3
    assert float(final["tau"]) == pytest.approx(2.0**19)
    # tau column follows tau0 * gamma^k exactly, formatted at 6 significant digits
    for k, row in enumerate(rows):
        assert row["tau"] == f"{1.0 * 2.0 ** k:.6g}"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "analytic_qp"
    assert manifest["method"] == "sequential"


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", task="analytic_qp", method="sequential", out_dir="o", tau00=1.0)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tau00" in err and "config error" in err


def test_irrelevant_field_rejected(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "bad.cfg",
        task="analytic_qp",
        method="sequential",
        out_dir="o",
        **{"lambda": 10.0},
    )
    assert main(["run", str(cfg)]) == 2
    assert "lambda" in capsys.readouterr().err


def test_enc_dec_sequential_rejects_eps0(tmp_path, capsys):
    # enc_dec never estimates the gradient norm, so eps_k stops nothing there
    cfg = write_cfg(
        tmp_path / "bad.cfg", task="enc_dec", method="sequential", out_dir="o", data_root="data", eps0=0.5
    )
    assert main(["run", str(cfg)]) == 2
    assert "key 'eps0' is unknown or does not apply to task=enc_dec method=sequential" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("task = analytic_qp\nmethod = fixed\nlambda = 1\nout_dir = o\ntask = enc_dec\n")
    assert main(["run", str(cfg)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_missing_lambda_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", task="analytic_qp", method="fixed", out_dir="o")
    assert main(["run", str(cfg)]) == 2
    assert "lambda" in capsys.readouterr().err


def test_bad_value_reports_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", task="analytic_qp", method="sequential", out_dir="o", tau0="fast")
    assert main(["run", str(cfg)]) == 2
    assert "expected a number" in capsys.readouterr().err


# The whole stderr of an analytic_qp run with stepsize = 1e12 and budget = 3000.
ABORT_AT_ITERATION_24 = "numeric abort: outer iteration 0 aborted: non-finite iterate at iteration 24, coordinate 0\n"


def test_numeric_abort_exit_3_with_trace(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "explode.cfg",
        task="analytic_qp",
        method="sequential",
        out_dir=tmp_path / "boom",
        stepsize=1e12,
        budget=3000,
        max_outer=4,
    )
    code = main(["run", str(cfg)])
    assert code == 3
    # numpy's overflow warnings, which carry the install path, are not printed
    assert capsys.readouterr().err == ABORT_AT_ITERATION_24
    assert (tmp_path / "boom" / "trace.csv").exists()


def test_qp_abort_at_the_first_outer_iteration_writes_the_full_trace_header(tmp_path, capsys):
    common = dict(task="analytic_qp", method="sequential", max_outer=4)
    done = write_cfg(tmp_path / "done.cfg", out_dir=tmp_path / "done", **common)
    boom = write_cfg(tmp_path / "boom.cfg", out_dir=tmp_path / "boom", stepsize=1e12, budget=3000, **common)
    assert main(["run", str(done)]) == 0
    assert main(["run", str(boom)]) == 3
    assert capsys.readouterr().err == ABORT_AT_ITERATION_24
    header, rows = read_rows(tmp_path / "boom" / "trace.csv")
    assert rows == []
    assert header == read_rows(tmp_path / "done" / "trace.csv")[0]
    assert "x0" in header


def test_abort_into_a_finished_run_dir_leaves_none_of_its_results(tmp_path, capsys):
    common = dict(task="analytic_qp", method="sequential", max_outer=4, out_dir=tmp_path / "out")
    assert main(["run", str(write_cfg(tmp_path / "done.cfg", **common))]) == 0
    assert main(["run", str(write_cfg(tmp_path / "boom.cfg", stepsize=1e12, budget=3000, **common))]) == 3
    assert capsys.readouterr().err == ABORT_AT_ITERATION_24
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "timeline.csv", "trace.csv"]
    capsys.readouterr()
    assert main(["compare", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: missing run artifacts: ")


def test_run_twice_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path / "qp.cfg",
        task="analytic_qp",
        method="sequential",
        seed=11,
        out_dir=tmp_path / "a",
        mode="theoretical",
        candidate_rule="uniform",
        batch_size=1,
        budget=300,
        stepsize=0.001,
        max_outer=8,
    )
    assert main(["run", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert main(["run", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert first == second


def test_enc_dec_objective_only_and_compare(tmp_path, data_root):
    common = dict(
        task="enc_dec",
        seed=4,
        data_root=data_root,
        train_limit=256,
        test_limit=64,
        epochs=2,
        warm_start_epochs=1,
        timeline="true",
    )
    cfg_obj = write_cfg(tmp_path / "obj.cfg", method="objective_only", out_dir=tmp_path / "obj", **common)
    cfg_fix = write_cfg(tmp_path / "fix.cfg", method="fixed", out_dir=tmp_path / "fix", **{**common, "lambda": 1000.0})
    assert main(["run", str(cfg_obj)]) == 0
    assert main(["run", str(cfg_fix)]) == 0

    header, rows = read_rows(tmp_path / "obj" / "results.csv")
    assert header == ["split", "ce_loss", "accuracy", "mse_loss", "mean_violation", "satisfied_fraction"]
    assert [r["split"] for r in rows] == ["train", "test"]
    # untouched decoder: essentially nothing satisfies the reconstruction constraint
    assert float(rows[0]["satisfied_fraction"]) <= 0.02

    _, timeline = read_rows(tmp_path / "obj" / "timeline.csv")
    assert [r["phase"] for r in timeline[:2]] == ["warm", "warm"]
    assert timeline[-1]["phase"] == "train"
    assert len(timeline) == 2 * 3  # (1 warm + 2 training) epochs x 2 splits

    _, hist = read_rows(tmp_path / "obj" / "violations_hist.csv")
    assert len(hist) == 256 + 64


def test_compare_table_and_mixed_task_guard(tmp_path, data_root, capsys):
    cfg_a = write_cfg(
        tmp_path / "a.cfg",
        task="analytic_qp",
        method="sequential",
        out_dir=tmp_path / "qa",
        max_outer=5,
    )
    cfg_b = write_cfg(
        tmp_path / "b.cfg",
        task="analytic_qp",
        method="fixed",
        out_dir=tmp_path / "qb",
        **{"lambda": 10.0},
    )
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    capsys.readouterr()

    assert main(["compare", str(tmp_path / "qa"), str(tmp_path / "qb")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:2] == ["method", "label"]
    assert len(out) == 3  # header + one row per run
    assert out[1].split()[0] == "fixed"
    assert out[2].split()[0] == "sequential"

    # mixed tasks are refused
    cfg_c = write_cfg(
        tmp_path / "c.cfg",
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / "qc",
        data_root=data_root,
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=0,
        timeline="false",
    )
    assert main(["run", str(cfg_c)]) == 0
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "qa"), str(tmp_path / "qc")]) == 1
    assert "refusing" in capsys.readouterr().err


def test_compare_missing_artifacts(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["compare", str(tmp_path / "empty")]) == 1
    assert "missing run artifacts" in capsys.readouterr().err


def test_grid_runs_all_configs(tmp_path):
    for idx, gamma in enumerate((1.5, 2.0)):
        write_cfg(
            tmp_path / f"g{idx}.cfg",
            task="analytic_qp",
            method="sequential",
            out_dir=tmp_path / f"gout{idx}",
            gamma=gamma,
            max_outer=4,
        )
    assert main(["grid", str(tmp_path / "g*.cfg"), "--jobs", "1"]) == 0
    assert (tmp_path / "gout0" / "results.csv").exists()
    assert (tmp_path / "gout1" / "results.csv").exists()


def test_grid_starts_at_most_one_worker_per_config(tmp_path, monkeypatch):
    asked = []

    class RecordingPool:
        """Records the pool size it is asked for and runs the configs in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli_mod.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for idx in range(2):
        write_cfg(tmp_path / f"g{idx}.cfg", task="analytic_qp", method="sequential",
                  out_dir=tmp_path / f"gout{idx}", max_outer=2)
    assert main(["grid", str(tmp_path / "g*.cfg"), "--jobs", "1000"]) == 0
    assert asked == [2]
    # one config runs in this process, whatever --jobs says
    assert main(["grid", str(tmp_path / "g0.cfg"), "--jobs", "8"]) == 0
    assert asked == [2]


def test_grid_runs_configs_in_worker_processes(tmp_path, capsys):
    for idx, gamma in enumerate((1.5, 2.0)):
        write_cfg(tmp_path / f"g{idx}.cfg", task="analytic_qp", method="sequential",
                  out_dir=tmp_path / f"gout{idx}", gamma=gamma, max_outer=2)
    assert main(["grid", str(tmp_path / "g*.cfg"), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if ": exit " in line] == [
        f"{tmp_path / f'g{idx}.cfg'}: exit 0" for idx in range(2)
    ]
    for idx in range(2):
        assert (tmp_path / f"gout{idx}" / "results.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    write_cfg(tmp_path / "g0.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "gout0")
    with pytest.raises(SystemExit) as exc:
        main(["grid", str(tmp_path / "g*.cfg"), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "gout0").exists()


def test_grid_isolates_a_failing_config(tmp_path, capsys, monkeypatch):
    for idx, gamma in enumerate((1.5, 3.0, 2.0)):
        write_cfg(
            tmp_path / f"g{idx}.cfg",
            task="analytic_qp",
            method="sequential",
            out_dir=tmp_path / f"gout{idx}",
            gamma=gamma,
            max_outer=4,
        )
    real_train = cli_mod.sequential_penalty_train

    def crash_on_middle_config(problem, kind, schedule, x0, **kwargs):
        if schedule.gamma == 3.0:
            raise RuntimeError("injected failure")
        return real_train(problem, kind, schedule, x0, **kwargs)

    monkeypatch.setattr(cli_mod, "sequential_penalty_train", crash_on_middle_config)
    assert main(["grid", str(tmp_path / "g*.cfg"), "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    summary = [line for line in out.splitlines() if ": exit " in line]
    assert summary == [f"{tmp_path / f'g{idx}.cfg'}: exit {code}" for idx, code in enumerate((0, 1, 0))]
    assert "injected failure" in err
    assert (tmp_path / "gout0" / "results.csv").exists()
    assert not (tmp_path / "gout1" / "results.csv").exists()
    assert (tmp_path / "gout2" / "results.csv").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"theta": 0}, "theta must be positive"),
        ({"method": "sequential", "gamma": 1.0}, "gamma must exceed 1"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"method": "sequential", "epochs": 0}, "max_outer must be >= 1"),
        ({"learning_rate": -1}, "stepsize must be positive"),
        ({"out_dir": "{tmp}/not_a_dir/out"}, "out_dir"),
        ({"method": "fixed", "lambda": -1, "warm_start_epochs": 1}, "tau must be finite and >= 0"),
        ({"warm_start_epochs": -1}, "budget must be >= 0"),
        ({"theta": "nan"}, "theta must be positive and finite"),
        ({"theta": "inf"}, "theta must be positive and finite"),
        ({"weight_decay": "nan"}, "weight_decay must be finite and >= 0"),
        ({"weight_decay": -1}, "weight_decay must be finite and >= 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_config_value_rejected_by_library_exits_2(tmp_path, data_root, capsys, monkeypatch, keys, message):
    # the first key other than method holds the rejected value, and the message names it
    key = next(k for k in keys if k != "method")
    inner_runs = _count_inner_runs(monkeypatch)
    (tmp_path / "not_a_dir").write_text("a file, not a directory\n")
    cfg = dict(
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / "out",
        data_root=data_root,
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=0,
        timeline="false",
    )
    cfg.update({k: str(v).format(tmp=tmp_path) for k, v in keys.items()})
    assert main(["run", str(write_cfg(tmp_path / "bad.cfg", **cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and message in err
    assert inner_runs == []


def _count_inner_runs(monkeypatch):
    """Record every inner run started by the warm start or the outer loop."""
    calls = []

    def counted(real):
        def run(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)

        return run

    monkeypatch.setattr(encdec_mod, "sgd_run", counted(encdec_mod.sgd_run))
    monkeypatch.setattr(outer_mod, "sgd_run", counted(outer_mod.sgd_run))
    return calls


@pytest.mark.parametrize("stepsize", ["auto", 0.1])
def test_qp_negative_lambda_exits_2_before_training(tmp_path, capsys, monkeypatch, stepsize):
    inner_runs = _count_inner_runs(monkeypatch)
    cfg = write_cfg(
        tmp_path / "qp.cfg",
        task="analytic_qp",
        method="fixed",
        out_dir=tmp_path / "out",
        stepsize=stepsize,
        **{"lambda": -1},
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: lambda: ") and "tau must be finite and >= 0" in err
    assert inner_runs == []


@pytest.mark.parametrize("method", ["sequential", "objective_only"])
def test_qp_negative_seed_exits_2_before_training(tmp_path, capsys, monkeypatch, method):
    inner_runs = _count_inner_runs(monkeypatch)
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method=method, out_dir=tmp_path / "out", seed=-1)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: seed: rng_seed must be >= 0, got -1\n"
    assert inner_runs == []


def test_qp_practical_uniform_candidate_rule_exits_2_before_training(tmp_path, capsys, monkeypatch):
    # practical mode returns the last iterate, so a uniform rule would be recorded but not run
    inner_runs = _count_inner_runs(monkeypatch)
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path / "qp.cfg",
        task="analytic_qp",
        method="sequential",
        out_dir=out,
        mode="practical",
        candidate_rule="uniform",
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: candidate_rule: ") and "'last' in practical mode" in err
    assert inner_runs == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_qp_non_finite_x0_exits_2_before_training(tmp_path, capsys, monkeypatch, x0):
    inner_runs = _count_inner_runs(monkeypatch)
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "out", x0=x0)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: x0 must be finite, got {x0}\n"
    assert inner_runs == []


@pytest.mark.parametrize("keys", [{"train_limit": -1}, {"test_limit": -400}])
def test_negative_limit_exits_2_before_training(tmp_path, data_root, capsys, monkeypatch, keys):
    inner_runs = _count_inner_runs(monkeypatch)
    cfg = dict(
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / "out",
        data_root=data_root,
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=1,
        timeline="false",
    )
    cfg.update(keys)
    assert main(["run", str(write_cfg(tmp_path / "limit.cfg", **cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {next(iter(keys))}: ") and "limit must be >= 0" in err
    assert inner_runs == []


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    # one Latin-1 byte, in a comment
    text = f"# café\ntask = analytic_qp\nmethod = sequential\nout_dir = {tmp_path / 'out'}\n"
    cfg.write_text(text, encoding="latin-1")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not UTF-8" in err
    assert not (tmp_path / "out").exists()
    # grid counts it as the config error it is, not as an unexpected failure
    assert main(["grid", str(cfg)]) == 2


def test_load_config_reads_the_file_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "out")
    opened = []

    def counting(real):
        def open_(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == cfg:
                opened.append(file)
            return real(file, *args, **kwargs)

        return open_

    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    loaded = cli_mod.load_config(cfg)
    assert len(opened) == 1
    assert loaded["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert loaded["config_raw"] == {"task": "analytic_qp", "method": "sequential", "out_dir": str(tmp_path / "out")}


QP_PARSED = {
    "qp_name": "x_sq_ge_1",
    "mode": "theoretical",
    "stepsize": "auto",
    "batch_size": 1,
    "budget": 50,
    "candidate_rule": "last",
}
QP_SEQUENTIAL_PARSED = {
    "tau0": 1.0,
    "gamma": 2.0,
    "eps0": 1.0,
    "eps_decay": 0.9,
    "penalty_kind": "quadratic",
    "max_outer": 20,
}
ENC_PARSED = {
    "data_root": "data",
    "warm_start_epochs": 5,
    "theta": 0.01,
    "batch_size": 128,
    "learning_rate": 0.001,
    "weight_decay": 0.001,
    "timeline": True,
}
ENC_SCALE_PARSED = {
    "desk": {"scale": "desk", "train_limit": 6000, "test_limit": 1000, "epochs": 25},
    "paper": {"scale": "paper", "train_limit": 0, "test_limit": 0, "epochs": 250},
}
ENC_SEQUENTIAL_PARSED = {
    "desk": {"tau0": 100.0, "gamma": 1.1, "penalty_kind": "linear"},
    "paper": {"tau0": 100.0, "gamma": 1.01, "penalty_kind": "linear"},
}
METHOD_PARSED = {"sequential": {}, "fixed": {"lambda": 10.0}, "objective_only": {}}


@pytest.mark.parametrize(
    "task, method, scale",
    [("analytic_qp", method, None) for method in ("sequential", "fixed", "objective_only")]
    + [("enc_dec", method, scale) for method in ("sequential", "fixed", "objective_only") for scale in ("desk", "paper")],
)
def test_minimal_config_parses_to_its_defaults(tmp_path, task, method, scale):
    keys = {"task": task, "method": method, "out_dir": "out"}
    if method == "fixed":
        keys["lambda"] = 10
    if task == "enc_dec":
        keys.update(data_root="data", scale=scale)
    loaded = cli_mod.load_config(write_cfg(tmp_path / "min.cfg", **keys))
    del loaded["config_sha256"], loaded["config_raw"]

    expected = {"task": task, "method": method, "out_dir": "out", "seed": 0, **METHOD_PARSED[method]}
    if task == "analytic_qp":
        expected.update(QP_PARSED, **(QP_SEQUENTIAL_PARSED if method == "sequential" else {}))
    else:
        expected.update(ENC_PARSED, **ENC_SCALE_PARSED[scale])
        expected.update(ENC_SEQUENTIAL_PARSED[scale] if method == "sequential" else {})
    assert loaded == expected


def test_data_root_env_fallback(tmp_path, data_root, monkeypatch):
    monkeypatch.setenv("SEQPEN_DATA", str(data_root))
    cfg = write_cfg(
        tmp_path / "env.cfg",
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / "envout",
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=0,
        timeline="false",
    )
    assert main(["run", str(cfg)]) == 0
    monkeypatch.delenv("SEQPEN_DATA")
    cfg2 = write_cfg(
        tmp_path / "env2.cfg",
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / "envout2",
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=0,
        timeline="false",
    )
    assert main(["run", str(cfg2)]) == 2


def test_synth_data_command(tmp_path):
    assert main(["synth-data", str(tmp_path / "d"), "--train", "40", "--test", "10", "--seed", "3"]) == 0
    from seqpen.tasks.data import dataset_paths, load_idx_dataset

    img, lbl = dataset_paths(tmp_path / "d", "train")
    assert load_idx_dataset(img, lbl).num_samples == 40


@pytest.mark.parametrize("option", ["--train", "--test", "--seed"])
def test_synth_data_negative_count_is_a_usage_error(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["synth-data", str(tmp_path / "d"), option, "-1"])
    assert exc.value.code == 2
    assert f"argument {option}: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _enc_cfg(tmp_path, data_root, name="enc"):
    return write_cfg(
        tmp_path / f"{name}.cfg",
        task="enc_dec",
        method="objective_only",
        out_dir=tmp_path / f"{name}_out",
        data_root=data_root,
        train_limit=64,
        test_limit=32,
        epochs=1,
        warm_start_epochs=0,
        timeline="false",
    )


def test_missing_dataset_is_a_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    cfg = _enc_cfg(tmp_path, tmp_path / "empty")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "train-images-idx3-ubyte" in err
    assert (tmp_path / "enc_out" / "manifest.json").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_empty_split_is_a_data_error_before_training(tmp_path, capsys, monkeypatch, split):
    inner_runs = _count_inner_runs(monkeypatch)
    root = tmp_path / "idx"
    write_synthetic_idx(root, num_train=0 if split == "train" else 64, num_test=0 if split == "test" else 32)
    assert main(["run", str(_enc_cfg(tmp_path, root))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {split} split is empty: ") and "holds no images" in err
    assert inner_runs == []
    assert (tmp_path / "enc_out" / "manifest.json").exists()


def test_data_error_into_a_finished_run_dir_leaves_only_the_manifest(tmp_path, data_root, capsys):
    assert main(["run", str(_enc_cfg(tmp_path, data_root))]) == 0
    (tmp_path / "empty").mkdir()
    assert main(["run", str(_enc_cfg(tmp_path, tmp_path / "empty"))]) == 2
    assert "data error" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "enc_out").iterdir()] == ["manifest.json"]


def test_corrupt_idx_file_is_a_data_error(tmp_path, capsys):
    root = tmp_path / "idx"
    write_synthetic_idx(root, num_train=64, num_test=32, rng_seed=0)
    images = root / "train-images-idx3-ubyte"
    images.write_bytes(images.read_bytes()[:1000])  # header intact, payload cut short
    cfg = _enc_cfg(tmp_path, root)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "payload" in err
    assert (tmp_path / "enc_out" / "manifest.json").exists()


def test_record_oracle_failure_exits_3_with_partial_trace(tmp_path, capsys, monkeypatch):
    qp = qp_registry()["x_sq_ge_1"]
    base = qp.problem

    def batch_constraints(indices, x):
        # candidates approach 1 from below; the oracle fails past 0.75 (outer iteration 3)
        g = base.batch_constraints(indices, x)
        return np.full_like(g, np.nan) if x[0] > 0.75 else g

    broken = dataclasses.replace(qp, problem=dataclasses.replace(base, batch_constraints=batch_constraints))
    monkeypatch.setattr(cli_mod, "qp_registry", lambda: {"x_sq_ge_1": broken})
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "out", max_outer=10)
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "numeric abort" in err and "non-finite constraint value" in err
    _, rows = read_rows(tmp_path / "out" / "trace.csv")
    assert [row["k"] for row in rows] == ["0", "1", "2"]


def _diverging_enc_cfg(tmp_path, data_root, warm_start_epochs):
    # One Adam step per epoch moves every weight by about the learning rate,
    # so the first step stays finite and the second overflows.
    return write_cfg(
        tmp_path / "diverge.cfg",
        task="enc_dec",
        method="sequential",
        out_dir=tmp_path / "diverge",
        data_root=data_root,
        train_limit=256,
        test_limit=64,
        epochs=2,
        warm_start_epochs=warm_start_epochs,
        batch_size=256,
        learning_rate=1e308,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_warm_start_exits_3_with_its_timeline(tmp_path, data_root, capsys):
    cfg = _diverging_enc_cfg(tmp_path, data_root, warm_start_epochs=4)
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "numeric abort: warm start aborted: non-finite iterate" in err
    out = tmp_path / "diverge"
    header, rows = read_rows(out / "trace.csv")
    assert header[:3] == ["k", "tau", "eps"] and rows == []
    _, timeline = read_rows(out / "timeline.csv")
    assert [(row["epoch"], row["phase"], row["split"]) for row in timeline] == [
        ("0", "warm", "train"),
        ("0", "warm", "test"),
    ]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "timeline.csv", "trace.csv"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_after_the_warm_start_exits_3_with_its_timeline(tmp_path, data_root, capsys):
    cfg = _diverging_enc_cfg(tmp_path, data_root, warm_start_epochs=1)
    assert main(["run", str(cfg)]) == 3
    assert "numeric abort: outer iteration 0 aborted" in capsys.readouterr().err
    _, timeline = read_rows(tmp_path / "diverge" / "timeline.csv")
    assert [(row["epoch"], row["phase"]) for row in timeline] == [("0", "warm"), ("0", "warm")]


def test_warm_start_candidate_is_freed_after_the_first_inner_run(tmp_path, data_root, monkeypatch):
    candidates, alive = [], []
    real_warm_start, real_sgd_run = cli_mod.warm_start, outer_mod.sgd_run

    def warm_start(*args, **kwargs):
        params = real_warm_start(*args, **kwargs)
        candidates.append(weakref.ref(params))
        return params

    def sgd_run(*args, **kwargs):
        alive.append(candidates[0]() is not None)
        return real_sgd_run(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "warm_start", warm_start)
    monkeypatch.setattr(outer_mod, "sgd_run", sgd_run)
    cfg = write_cfg(
        tmp_path / "seq.cfg", task="enc_dec", method="sequential", out_dir=tmp_path / "out", data_root=data_root,
        train_limit=128, test_limit=32, epochs=3, warm_start_epochs=1,
    )
    assert main(["run", str(cfg)]) == 0
    # only the first outer iteration's inner run starts from it
    assert alive == [True, False, False]


def test_enc_dec_abort_in_training_flushes_every_timeline_row_so_far(tmp_path, data_root, capsys, monkeypatch):
    keys = dict(
        task="enc_dec",
        method="sequential",
        data_root=data_root,
        train_limit=128,
        test_limit=32,
        epochs=3,
        warm_start_epochs=1,
    )
    assert main(["run", str(write_cfg(tmp_path / "done.cfg", out_dir=tmp_path / "done", **keys))]) == 0
    real_make_record = outer_mod._make_record

    def make_record(problem, spec, k, eps, report):
        if k == 1:
            raise outer_mod.OracleError("non-finite objective value for sample 0")
        return real_make_record(problem, spec, k, eps, report)

    monkeypatch.setattr(outer_mod, "_make_record", make_record)
    assert main(["run", str(write_cfg(tmp_path / "boom.cfg", out_dir=tmp_path / "boom", **keys))]) == 3
    assert "numeric abort: outer iteration 1 aborted" in capsys.readouterr().err
    done, boom = tmp_path / "done", tmp_path / "boom"
    # the warm epoch and the first two training epochs; the abort came in the second one's record
    timeline = (done / "timeline.csv").read_text(encoding="utf-8").splitlines()
    assert (boom / "timeline.csv").read_text(encoding="utf-8").splitlines() == timeline[:7]
    trace = (done / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert (boom / "trace.csv").read_text(encoding="utf-8").splitlines() == trace[:2]


def test_compare_empty_results_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "qa", max_outer=2)
    assert main(["run", str(cfg)]) == 0
    (tmp_path / "qa" / "results.csv").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "qa")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'qa' / 'results.csv'}: ")


def test_compare_non_utf8_results_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "qa", max_outer=2)
    assert main(["run", str(cfg)]) == 0
    results = tmp_path / "qa" / "results.csv"
    results.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "qa")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {results}: ")


def test_compare_corrupt_manifest_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "qa", max_outer=2)
    assert main(["run", str(cfg)]) == 0
    manifest = tmp_path / "qa" / "manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:40], encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "qa")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: ")


@pytest.mark.parametrize(
    "manifest_of",
    [lambda m: [], lambda m: {k: v for k, v in m.items() if k != "label"}],
    ids=["list", "no_label"],
)
def test_compare_rejects_a_manifest_that_is_not_a_run_manifest(tmp_path, capsys, manifest_of):
    cfg = write_cfg(tmp_path / "qp.cfg", task="analytic_qp", method="sequential", out_dir=tmp_path / "qa", max_outer=2)
    assert main(["run", str(cfg)]) == 0
    manifest = tmp_path / "qa" / "manifest.json"
    manifest.write_text(json.dumps(manifest_of(json.loads(manifest.read_text(encoding="utf-8")))), encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "qa")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: not a run manifest")


def test_readme_example_config_parses(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example `experiment.cfg` for the image task:", 1)[1].split("```")[1]
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(example.lstrip("\n"), encoding="utf-8")
    monkeypatch.setenv("SEQPEN_DATA", str(tmp_path / "data"))
    parsed = cli_mod.load_config(cfg)
    assert (parsed["task"], parsed["method"], parsed["scale"]) == ("enc_dec", "sequential", "desk")


def test_readme_lists_the_keys_each_task_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Keys accepted per task", 1)[1].split("\n\n")[1]
    documented = {}
    for bullet in section.split("\n* "):
        task, *keys = re.findall(r"`([a-z_0-9]+)`", bullet)
        documented[task] = set(keys)
    accepted = {
        task: set(cli_mod.TASK_KEYS[task]).union(*(cli_mod.METHOD_KEYS[task, method] for method in cli_mod.METHODS))
        for task in cli_mod.TASKS
    }
    assert documented == accepted
