"""Stochastic solvers for penalty subproblems.

Two modes:

* ``theoretical``: constant-stepsize SGD with samples drawn with replacement
  and, by default, a candidate drawn uniformly from the first ``budget``
  iterates. This is the regime the iteration-budget bound speaks about.
  When ``batch_size >= num_samples`` the full gradient is used exactly
  (no sampling), which makes full-batch runs deterministic descent.
* ``practical``: Adam over shuffled epochs (sampling without replacement
  within an epoch), candidate = last iterate. This is the regime used for
  the network experiments.

Sampled gradients are scaled to be unbiased estimates of the full penalty
gradient: batch mean under ``mean`` normalization, batch sum times
N / batch_size under ``sum`` normalization.

Runs are bit-deterministic given (problem, spec, x0, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from seqpen.penalties import PenaltySpec, penalty_grad_batch, penalty_grad_full, penalty_value_full
from seqpen.problems import Array, FiniteSumProblem, as_params, epoch_batches

MODES = ("theoretical", "practical")
CANDIDATE_RULES = ("uniform", "last")
GRAD_NORM_MODES = ("exact", "none")

# Coordinates per block of the practical-mode Adam step: the block's slices of
# z, m, v and the gradient plus two scratch buffers stay in cache together.
ADAM_BLOCK = 16384


class InnerSolverError(RuntimeError):
    """An iterate left the finite range; carries where it happened."""

    def __init__(self, message: str, iteration: int, coordinate: int):
        super().__init__(message)
        self.iteration = iteration
        self.coordinate = coordinate


@dataclass(frozen=True)
class AdamParams:
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps_hat > 0:
            raise ValueError(f"eps_hat must be positive, got {self.eps_hat}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class AdamState:
    """First/second moment accumulators; thread through runs to continue one."""

    m: Array
    v: Array
    step: int

    def copy(self) -> "AdamState":
        return AdamState(self.m.copy(), self.v.copy(), self.step)


@dataclass
class SGDConfig:
    """Configuration for one inner run.

    ``budget`` counts iterations in theoretical mode and epochs in practical
    mode. ``clip_box`` is an optional (lo, hi) per-coordinate projection
    standing in for the compact-set containment the theory assumes; the
    report counts how often it activated. ``candidate_rule`` defaults to
    uniform iterate sampling in theoretical mode and to the last iterate in
    practical mode.
    """

    stepsize: float
    batch_size: int
    mode: str = "theoretical"
    budget: int = 0
    clip_box: Optional[tuple] = None
    adam: AdamParams = field(default_factory=AdamParams)
    rng_seed: int = 0
    candidate_rule: Optional[str] = None
    track_penalty: bool = False
    track_iterates: bool = False
    grad_norm: str = "exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.isfinite(self.stepsize) or self.stepsize <= 0:
            raise ValueError("stepsize must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.candidate_rule is not None and self.candidate_rule not in CANDIDATE_RULES:
            raise ValueError(f"candidate_rule must be one of {CANDIDATE_RULES}")
        if self.mode == "practical" and self.candidate_rule == "uniform":
            raise ValueError("practical mode keeps no iterate pool; candidate_rule must be 'last'")
        if self.grad_norm not in GRAD_NORM_MODES:
            raise ValueError(f"grad_norm must be one of {GRAD_NORM_MODES}")

    def resolved_candidate_rule(self) -> str:
        if self.candidate_rule is not None:
            return self.candidate_rule
        return "uniform" if self.mode == "theoretical" else "last"


@dataclass
class InnerReport:
    """Outcome of one inner run."""

    candidate: Array
    iterate_count: int
    grad_norm_estimate: float
    sampled_index: Optional[int]
    trace: list
    clip_activations: int
    opt_state: Optional[AdamState] = None
    iterates: Optional[list] = None


def iteration_budget(rho: float, L: float, gap: float, eps: float) -> int:
    """Iteration count 2 * rho * L * gap / eps^2, rounded up.

    ``rho`` is the strong-growth constant, ``L`` the penalty smoothness
    constant, ``gap`` the initial penalty optimality gap and ``eps`` the
    target expected gradient norm.
    """
    for name, val in (("rho", rho), ("L", L), ("gap", gap), ("eps", eps)):
        if not np.isfinite(val) or val <= 0:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    t = 2.0 * rho * L * gap / (eps * eps)
    # Snap values that are integers up to float rounding before taking the ceiling.
    if abs(t - round(t)) < 1e-9 * max(1.0, abs(t)):
        return int(round(t))
    return int(math.ceil(t))


def grad_norm_estimate(problem: FiniteSumProblem, spec: PenaltySpec, x) -> float:
    """Norm of the full penalty gradient at x."""
    return float(np.linalg.norm(penalty_grad_full(problem, spec, x)))


def _check_finite(z: Array, iteration: int):
    if not np.isfinite(z).all():
        coord = int(np.flatnonzero(~np.isfinite(z))[0])
        raise InnerSolverError(
            f"non-finite iterate at iteration {iteration}, coordinate {coord}",
            iteration=iteration,
            coordinate=coord,
        )


def _clip(z: Array, box, count: int) -> tuple[Array, int]:
    lo, hi = box
    clipped = np.clip(z, lo, hi)
    if not np.array_equal(clipped, z):
        count += 1
    return clipped, count


def _report_grad_norm(problem, spec, x, config: SGDConfig) -> float:
    if config.grad_norm == "none":
        return float("nan")
    return grad_norm_estimate(problem, spec, x)


def sgd_run(
    problem: FiniteSumProblem,
    spec: PenaltySpec,
    x0,
    config: SGDConfig,
    opt_state: Optional[AdamState] = None,
    epoch_hook: Optional[Callable[[Array], None]] = None,
) -> InnerReport:
    """Run the configured solver on the penalty subproblem from x0.

    ``opt_state`` and ``epoch_hook`` apply to practical mode only: the state
    continues a previous Adam run, and the hook fires with the current
    parameters after every epoch.
    """
    x0 = as_params(problem, x0)
    _check_finite(x0, -1)
    if config.mode == "theoretical":
        return _run_theoretical(problem, spec, x0, config)
    return _run_practical(problem, spec, x0, config, opt_state, epoch_hook)


def _run_theoretical(problem, spec, x0, config: SGDConfig) -> InnerReport:
    rng = np.random.default_rng(config.rng_seed)
    n_samples = problem.num_samples
    budget = config.budget
    rule = config.resolved_candidate_rule()
    # The sampling pool is the first `budget` iterates z^0 .. z^{budget-1}
    # (just z^0 for an empty run); the index is drawn up front so only the
    # chosen iterate needs to be retained.
    pool = max(budget, 1)
    sampled_index: Optional[int] = None
    if rule == "uniform":
        sampled_index = int(rng.integers(pool))

    full_batch = config.batch_size >= n_samples
    if full_batch:
        batch = np.arange(n_samples)
        scale = problem.agg_scale
    else:
        scale = (1.0 / config.batch_size) if problem.normalization == "mean" else n_samples / config.batch_size

    z = x0.copy()
    candidate = x0.copy()
    trace = [penalty_value_full(problem, spec, z)] if config.track_penalty else []
    iterates = [z.copy()] if config.track_iterates else None
    clip_count = 0
    for t in range(budget):
        if sampled_index == t:
            candidate = z.copy()
        if not full_batch:
            batch = rng.integers(0, n_samples, size=config.batch_size)
        g = scale * penalty_grad_batch(problem, spec, batch, z)
        z = z - config.stepsize * g
        if config.clip_box is not None:
            z, clip_count = _clip(z, config.clip_box, clip_count)
        _check_finite(z, t)
        if config.track_penalty:
            trace.append(penalty_value_full(problem, spec, z))
        if iterates is not None:
            iterates.append(z.copy())
    if rule == "last":
        candidate = z.copy()
        sampled_index = None

    return InnerReport(
        candidate=candidate,
        iterate_count=budget + 1,
        grad_norm_estimate=_report_grad_norm(problem, spec, candidate, config),
        sampled_index=sampled_index,
        trace=trace,
        clip_activations=clip_count,
        iterates=iterates,
    )


def _run_practical(problem, spec, x0, config: SGDConfig, opt_state, epoch_hook) -> InnerReport:
    rng = np.random.default_rng(config.rng_seed)
    n_samples = problem.num_samples
    adam = config.adam
    state = opt_state.copy() if opt_state is not None else AdamState(np.zeros(problem.dim), np.zeros(problem.dim), 0)
    if state.m.shape != (problem.dim,):
        raise ValueError("opt_state does not match the problem dimension")

    z = x0.copy()
    trace = [penalty_value_full(problem, spec, z)] if config.track_penalty else []
    clip_count = 0
    steps = 0
    # The Adam step runs in place, one ADAM_BLOCK of coordinates at a time,
    # through two block-sized scratch buffers. Per coordinate it performs the
    # same operations, in the same order, as the textbook expressions
    #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2,
    #   z = z - lr (m / c1) / (sqrt(v / c2) + eps),
    # so the iterates are bit-identical to them.
    g_buf = np.empty(min(ADAM_BLOCK, problem.dim))
    tmp_buf = np.empty_like(g_buf)
    for _ in range(config.budget):
        for batch in epoch_batches(n_samples, config.batch_size, rng):
            gsum = penalty_grad_batch(problem, spec, batch, z)
            scale = (1.0 / batch.size) if problem.normalization == "mean" else n_samples / batch.size
            state.step += 1
            c1 = 1.0 - adam.beta1**state.step
            c2 = 1.0 - adam.beta2**state.step
            for lo in range(0, problem.dim, ADAM_BLOCK):
                blk = slice(lo, lo + ADAM_BLOCK)
                zb, mb, vb = z[blk], state.m[blk], state.v[blk]
                g, tmp = g_buf[: zb.size], tmp_buf[: zb.size]
                np.multiply(gsum[blk], scale, out=g)
                if adam.weight_decay:
                    np.multiply(zb, adam.weight_decay, out=tmp)
                    g += tmp
                mb *= adam.beta1
                np.multiply(g, 1.0 - adam.beta1, out=tmp)
                mb += tmp
                vb *= adam.beta2
                np.multiply(g, g, out=tmp)
                tmp *= 1.0 - adam.beta2
                vb += tmp
                np.divide(mb, c1, out=g)
                g *= config.stepsize
                np.divide(vb, c2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += adam.eps_hat
                g /= tmp
                zb -= g
            if config.clip_box is not None:
                z, clip_count = _clip(z, config.clip_box, clip_count)
            _check_finite(z, steps)
            steps += 1
        # The last batch gradient is not held through the epoch hook. Within an
        # epoch each one lives until the next replaces it: freed right after its
        # step, it would go back to the OS and be faulted in again every step.
        gsum = None
        if config.track_penalty:
            trace.append(penalty_value_full(problem, spec, z))
        if epoch_hook is not None:
            epoch_hook(z.copy())

    return InnerReport(
        candidate=z,
        iterate_count=steps + 1,
        grad_norm_estimate=_report_grad_norm(problem, spec, z, config),
        sampled_index=None,
        trace=trace,
        clip_activations=clip_count,
        opt_state=state,
    )
