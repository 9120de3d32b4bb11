"""Span tracing of the seqpen layers, installed from outside the library.

``Tracer.install()`` replaces the public entry points of each layer (and
the oracle fields of every ``FiniteSumProblem`` built while installed) by
thin wrappers that record a span: name, start, end, parent and a small
per-span payload (rows, FLOPs, penalty weight, ...). Every module of the
``seqpen`` package that imported a hooked function by name gets the wrapper
too, so calls are seen no matter which module makes them. ``uninstall()``
puts the originals back; untimed code pays nothing while uninstalled.

Spans stay in memory; ``layer_metrics`` reduces one rep's spans to the
per-layer metrics and ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

_now = time.perf_counter_ns

ORACLE_VALUE_FIELDS = ("batch_objective", "batch_constraints", "sample_objective", "sample_constraints")
CONSTRAINT_VALUE_FIELDS = ("batch_constraints", "sample_constraints")


def _rows(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape:
        return int(shape[0]) if len(shape) > 1 else 1
    return 1


def _mlp_flops_per_row(mlp) -> int:
    return sum(2 * spec.fan_in * spec.fan_out for spec in mlp.layers)


def _info_mlp_forward(args, kwargs, result):
    rows = _rows(result[0])
    return rows, rows * _mlp_flops_per_row(args[0])


def _info_mlp_backward(args, kwargs, result):
    # Each layer does one matmul for the weight gradient and one for the
    # input gradient, each the size of the forward matmul.
    rows = _rows(result[1])
    return rows, 2 * rows * _mlp_flops_per_row(args[0])


def _info_images(args, kwargs, result):
    return _rows(args[2])


def _info_grad_batch(args, kwargs, result):
    spec, indices = args[1], args[2]
    return len(indices), spec.tau == 0


def _info_steps(args, kwargs, result):
    return result.iterate_count - 1


def _info_records(args, kwargs, result):
    return len(result.records)


def _info_num_samples(args, kwargs, result):
    return args[0].num_samples


def _info_file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _info_manifest_bytes(args, kwargs, result):
    return os.path.getsize(os.path.join(args[0], "manifest.json"))


# (module, attribute path, span name, payload function). Missing targets are
# reported by ``install`` and their metrics read 0.
HOOKS = [
    ("seqpen.tasks.mlp", "Mlp.forward", "mlp.forward", _info_mlp_forward),
    ("seqpen.tasks.mlp", "Mlp.backward", "mlp.backward", _info_mlp_backward),
    ("seqpen.tasks.encdec", "EncDecModel.weighted_grad", "encdec.weighted_grad", _info_images),
    ("seqpen.tasks.encdec", "EncDecModel.reconstruct", "encdec.reconstruct", _info_images),
    ("seqpen.tasks.encdec", "EncDecModel.predict", "encdec.predict", _info_images),
    ("seqpen.tasks.encdec", "evaluate_enc_dec", "encdec.evaluate", None),
    ("seqpen.penalties", "penalty_grad_batch", "penalties.grad_batch", _info_grad_batch),
    ("seqpen.problems", "constraint_values", "problems.constraint_values", None),
    ("seqpen.problems", "objective_values", "problems.objective_values", None),
    ("seqpen.problems", "feasibility_stats", "problems.feasibility_stats", None),
    ("seqpen.inner", "sgd_run", "inner.sgd_run", _info_steps),
    ("seqpen.inner", "grad_norm_estimate", "inner.grad_norm", None),
    ("seqpen.outer", "sequential_penalty_train", "outer.train", _info_records),
    ("seqpen.outer", "fixed_penalty_train", "outer.train", _info_records),
    ("seqpen.outer", "_make_record", "outer.record", _info_num_samples),
    ("seqpen.diagnostics", "kkt_residual", "diagnostics.kkt_residual", None),
    ("seqpen.diagnostics", "elicq_check", "diagnostics.elicq_check", None),
    ("seqpen.diagnostics", "smoothness_estimate", "diagnostics.smoothness_estimate", None),
    ("seqpen.diagnostics", "sgc_estimate", "diagnostics.sgc_estimate", None),
    ("seqpen.tasks.qp", "build_analytic_qp", "qp.certify", None),
    ("seqpen.tasks.data", "load_idx_dataset", "data.load", None),
    ("seqpen.tasks.data", "read_idx", "data.read_idx", _info_file_bytes),
    ("seqpen.cli", "load_config", "cli.config", None),
    ("seqpen.cli", "write_csv", "cli.artifact", _info_file_bytes),
    ("seqpen.cli", "_write_manifest", "cli.artifact", _info_manifest_bytes),
]


class Tracer:
    """In-memory span recorder plus the hooks that feed it."""

    def __init__(self):
        self.missing = []
        self._patches = []  # (owner, attribute, original)
        self.clear()

    def clear(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.info = []
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.info.append(None)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int, info=None):
        self.end[i] = _now()
        self.info[i] = info
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; yields the span's index."""
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, name: str, fn, info_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i)
                raise
            tracer.close(i, info_fn(args, kwargs, result) if info_fn is not None else None)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        if self._patches:
            return
        self.missing = []
        for module_name, path, name, info_fn in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, info_fn)
            if owners:
                self._patch(owner, attr, wrapper)
            else:
                # Rebind the function in every module that imported it by name,
                # the benchmark's own included.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(attr) is original:
                        self._patch(mod, attr, wrapper)
        self._hook_problem_oracles()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hook_problem_oracles(self):
        from seqpen.problems import FiniteSumProblem

        original_post_init = FiniteSumProblem.__post_init__

        def post_init(problem):
            original_post_init(problem)
            for field_name in FiniteSumProblem.__dataclass_fields__:
                fn = getattr(problem, field_name)
                if callable(fn) and not hasattr(fn, "__perfbench_original__"):
                    setattr(problem, field_name, self.wrap(f"oracle.{field_name}", fn, _oracle_rows_info))

        self._patch(FiniteSumProblem, "__post_init__", post_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Write the spans as CSV: index, name, parent, start_ns, end_ns, info."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("index,name,parent,start_ns,end_ns,info\n")
            for i, name in enumerate(self.name):
                info = self.info[i]
                if isinstance(info, tuple):
                    info = "|".join(str(v) for v in info)
                f.write(f"{i},{name},{self.parent[i]},{self.start[i]},{self.end[i]},{'' if info is None else info}\n")


def _oracle_rows_info(args, kwargs, result):
    first = args[0]
    return 1 if isinstance(first, int) or getattr(first, "ndim", 1) == 0 else len(first)


def layer_metrics(tracer: Tracer, run_root: int) -> dict:
    """Per-layer metrics from the spans of one rep.

    ``run_root`` is the index of the span that encloses the workload run;
    diagnostics metrics count only spans inside it, so the diagnostics calls
    made while certifying inputs during set-up are excluded.
    """
    n = len(tracer.name)
    names, parents, info = tracer.name, tracer.parent, tracer.info
    dur = [(tracer.end[i] - tracer.start[i]) * 1e-9 for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]

    # Nearest enclosing span of a few kinds, found in one pass: a parent is
    # always opened, and so indexed, before its children.
    near_grad_batch = [-1] * n
    near_record = [-1] * n
    in_run = [False] * n
    in_diag = [False] * n
    in_sgd = [False] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            pn = names[p]
            near_grad_batch[i] = p if pn == "penalties.grad_batch" else near_grad_batch[p]
            near_record[i] = p if pn == "outer.record" else near_record[p]
            in_run[i] = p == run_root or in_run[p]
            in_diag[i] = pn.startswith("diagnostics.") or in_diag[p]
            in_sgd[i] = pn == "inner.sgd_run" or in_sgd[p]

    total = {}
    self_s = {}
    calls = {}
    for i in range(n):
        total[names[i]] = total.get(names[i], 0.0) + dur[i]
        self_s[names[i]] = self_s.get(names[i], 0.0) + dur[i] - child[i]
        calls[names[i]] = calls.get(names[i], 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def t_run(name):
        return sum(dur[i] for i in range(n) if names[i] == name and in_run[i])

    def ratio(a, b):
        return a / b if b else 0.0

    fwd_rows = fwd_flops = bwd_flops = 0
    enc_rows = {"encdec.weighted_grad": 0, "encdec.reconstruct": 0, "encdec.predict": 0}
    grad_rows = con_rows_in_grad = 0
    zero_weight_with_fwd = set()
    zero_weight_calls = []
    record_rows = 0
    record_samples = 0
    steps = records = 0
    sample_calls_in_diag = 0
    bytes_read = artifact_bytes = 0
    timeline_s = final_eval_s = 0.0
    for i in range(n):
        name = names[i]
        if name == "mlp.forward":
            fwd_rows += info[i][0]
            fwd_flops += info[i][1]
        elif name == "mlp.backward":
            bwd_flops += info[i][1]
        elif name in enc_rows:
            enc_rows[name] += info[i] or 0
        elif name == "penalties.grad_batch":
            grad_rows += info[i][0]
            if info[i][1]:
                zero_weight_calls.append(i)
        elif name.startswith("oracle."):
            field = name[len("oracle."):]
            if field in CONSTRAINT_VALUE_FIELDS and near_grad_batch[i] >= 0:
                con_rows_in_grad += info[i] or 0
                zero_weight_with_fwd.add(near_grad_batch[i])
            if field in ORACLE_VALUE_FIELDS and near_record[i] >= 0:
                record_rows += info[i] or 0
            if field.startswith("sample_") and in_diag[i] and in_run[i]:
                sample_calls_in_diag += 1
        elif name == "outer.record":
            record_samples += info[i] or 0
        elif name == "inner.sgd_run":
            steps += info[i] or 0
        elif name == "outer.train":
            records += info[i] or 0
        elif name == "data.read_idx":
            bytes_read += info[i] or 0
        elif name == "cli.artifact":
            artifact_bytes += info[i] or 0
        elif name == "encdec.evaluate" and in_run[i]:
            if in_sgd[i]:
                timeline_s += dur[i]
            else:
                final_eval_s += dur[i]

    gflop = (fwd_flops + bwd_flops) / 1e9
    mlp_s = t("mlp.forward") + t("mlp.backward")
    grad_calls = calls.get("penalties.grad_batch", 0)
    zero_with_fwd = sum(1 for i in zero_weight_calls if i in zero_weight_with_fwd)
    return {
        "mlp.forward_s": t("mlp.forward"),
        "mlp.forward_calls": calls.get("mlp.forward", 0),
        "mlp.forward_rows": fwd_rows,
        "mlp.backward_s": t("mlp.backward"),
        "mlp.backward_calls": calls.get("mlp.backward", 0),
        "mlp.gflop": gflop,
        "mlp.gflop_per_s": ratio(gflop, mlp_s),
        "encdec.weighted_grad_s": t("encdec.weighted_grad"),
        "encdec.weighted_grad_rows": enc_rows["encdec.weighted_grad"],
        "encdec.reconstruct_s": t("encdec.reconstruct"),
        "encdec.reconstruct_rows": enc_rows["encdec.reconstruct"],
        "encdec.predict_rows": enc_rows["encdec.predict"],
        "encdec.evaluate_s": t("encdec.evaluate"),
        "encdec.evaluate_calls": calls.get("encdec.evaluate", 0),
        "penalties.grad_batch_s": t("penalties.grad_batch"),
        "penalties.grad_batch_self_s": self_s.get("penalties.grad_batch", 0.0),
        "penalties.grad_batch_calls": grad_calls,
        "penalties.constraint_fwd_rows_per_grad_row": ratio(con_rows_in_grad, grad_rows),
        "penalties.zero_weight_fwd_share": ratio(zero_with_fwd, grad_calls),
        "problems.constraint_values_calls": calls.get("problems.constraint_values", 0),
        "problems.objective_values_calls": calls.get("problems.objective_values", 0),
        "problems.full_passes_per_record": ratio(record_rows, record_samples),
        "problems.feasibility_stats_s": t("problems.feasibility_stats"),
        "inner.sgd_run_s": t("inner.sgd_run"),
        "inner.self_s": self_s.get("inner.sgd_run", 0.0),
        "inner.steps": steps,
        "inner.step_self_us": ratio(self_s.get("inner.sgd_run", 0.0), steps) * 1e6,
        "inner.grad_norm_s": t("inner.grad_norm"),
        "outer.train_s": t("outer.train"),
        "outer.self_s": self_s.get("outer.train", 0.0),
        "outer.iterations": records,
        "outer.record_s_per_iter": ratio(t("outer.record"), records),
        "diagnostics.kkt_residual_s": t_run("diagnostics.kkt_residual"),
        "diagnostics.elicq_s": t_run("diagnostics.elicq_check"),
        "diagnostics.smoothness_s": t_run("diagnostics.smoothness_estimate"),
        "diagnostics.sgc_s": t_run("diagnostics.sgc_estimate"),
        "diagnostics.sample_oracle_calls": sample_calls_in_diag,
        "qp.certify_s": t("qp.certify"),
        "data.load_s": t("data.load"),
        "data.bytes_read": bytes_read,
        "cli.config_s": t("cli.config"),
        "cli.timeline_s": timeline_s,
        "cli.final_eval_s": final_eval_s,
        "cli.artifact_s": t("cli.artifact"),
        "cli.artifact_bytes": artifact_bytes,
    }
