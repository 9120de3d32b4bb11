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

Sampled gradients are scaled by ``FiniteSumProblem.estimator_scale`` to be
unbiased estimates of the full penalty gradient.

Runs are bit-deterministic given (problem, spec, x0, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from seqpen.penalties import PenaltySpec, penalty_grad_batch, penalty_grad_full
from seqpen.problems import Array, FiniteSumProblem, as_params, epoch_batches

MODES = ("theoretical", "practical")
CANDIDATE_RULES = ("uniform", "last")
GRAD_NORM_MODES = ("exact", "none")

# Adam's moment decay rates and denominator offset, at the values of
# Kingma & Ba (arXiv:1412.6980), Alg. 1.
BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8

# Coordinates per block of the practical-mode Adam step: the block's slices of
# z, m, v and the gradient plus two scratch buffers stay in cache together.
ADAM_BLOCK = 16384


class InnerSolverError(RuntimeError):
    """An iterate left the finite range; the message says at which iteration and coordinate."""


@dataclass
class AdamState:
    """Adam's moment accumulators and step count; ``sgd_run`` advances a state it is given in place."""

    m: Array
    v: Array
    step: int


@dataclass
class SGDConfig:
    """Configuration for one inner run.

    ``budget`` counts iterations in theoretical mode and epochs in practical
    mode. ``candidate_rule`` defaults to uniform iterate sampling in
    theoretical mode; practical mode returns the last iterate and rejects
    ``'uniform'``. ``weight_decay`` is read in practical mode only, where it
    adds ``weight_decay * z`` to each sampled gradient before the Adam step.
    """

    stepsize: float
    batch_size: int
    mode: str = "theoretical"
    budget: int = 0
    weight_decay: float = 0.0
    rng_seed: int = 0
    candidate_rule: Optional[str] = None
    grad_norm: str = "exact"

    def __post_init__(self):
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
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
            raise ValueError("candidate_rule must be 'last' in practical mode, which keeps no iterate pool")
        if self.grad_norm not in GRAD_NORM_MODES:
            raise ValueError(f"grad_norm must be one of {GRAD_NORM_MODES}")


@dataclass
class InnerReport:
    """Outcome of one inner run."""

    candidate: Array
    iterate_count: int
    grad_norm_estimate: float


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
        raise InnerSolverError(f"non-finite iterate at iteration {iteration}, coordinate {coord}")


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
    hook: Optional[Callable[[Array], None]] = None,
) -> InnerReport:
    """Run the configured solver on the penalty subproblem from x0.

    ``hook(z)`` fires after every unit of ``config.budget``: after each
    iteration in theoretical mode (once the iterate is checked finite) and
    after each epoch in practical mode. It receives a copy of the current
    iterate that the run never writes again. ``opt_state`` applies to
    practical mode only: the run continues it in place (pass a copy to keep
    yours); without one it starts from zero moments and drops them at return.
    """
    x0 = as_params(problem, x0)
    _check_finite(x0, -1)
    if config.mode == "theoretical":
        return _run_theoretical(problem, spec, x0, config, hook)
    return _run_practical(problem, spec, x0, config, opt_state, hook)


def _run_theoretical(problem, spec, x0, config: SGDConfig, hook) -> InnerReport:
    rng = np.random.default_rng(config.rng_seed)
    n_samples = problem.num_samples
    budget = config.budget
    rule = config.candidate_rule or "uniform"
    # The sampling pool is the first `budget` iterates z^0 .. z^{budget-1}
    # (just z^0 for an empty run); the index is drawn up front so only the
    # chosen iterate needs to be retained.
    sampled_index = int(rng.integers(max(budget, 1))) if rule == "uniform" else None

    full_batch = config.batch_size >= n_samples
    batch = np.arange(n_samples) if full_batch else None
    scale = problem.estimator_scale(min(config.batch_size, n_samples))

    z = x0.copy()
    candidate = x0.copy()
    # One gradient buffer per run and an in-place step, bit-identical to
    # z - stepsize * (scale * g) since multiplication commutes. A finite sum
    # of z clears the step in one pass; otherwise _check_finite decides.
    g = np.empty(problem.dim)
    for t in range(budget):
        if sampled_index == t:
            candidate = z.copy()
        if not full_batch:
            batch = rng.integers(0, n_samples, size=config.batch_size)
        penalty_grad_batch(problem, spec, batch, z, out=g)
        g *= scale
        g *= config.stepsize
        z -= g
        if not math.isfinite(np.add.reduce(z)):
            _check_finite(z, t)
        if hook is not None:
            hook(z.copy())
    if rule == "last":
        candidate = z.copy()

    return InnerReport(
        candidate=candidate,
        iterate_count=budget + 1,
        grad_norm_estimate=_report_grad_norm(problem, spec, candidate, config),
    )


def _run_practical(problem, spec, x0, config: SGDConfig, opt_state, hook) -> InnerReport:
    rng = np.random.default_rng(config.rng_seed)
    n_samples = problem.num_samples
    state = opt_state if opt_state is not None else AdamState(np.zeros(problem.dim), np.zeros(problem.dim), 0)
    if state.m.shape != (problem.dim,):
        raise ValueError("opt_state does not match the problem dimension")

    z = x0.copy()
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
        # Every minibatch gradient of an epoch is written into one buffer, so a
        # step allocates no parameter-size array; the hook runs without it.
        gsum = np.empty(problem.dim)
        for batch in epoch_batches(n_samples, config.batch_size, rng):
            penalty_grad_batch(problem, spec, batch, z, out=gsum)
            scale = problem.estimator_scale(batch.size)
            state.step += 1
            c1 = 1.0 - BETA1**state.step
            c2 = 1.0 - BETA2**state.step
            for lo in range(0, problem.dim, ADAM_BLOCK):
                blk = slice(lo, lo + ADAM_BLOCK)
                zb, mb, vb = z[blk], state.m[blk], state.v[blk]
                g, tmp = g_buf[: zb.size], tmp_buf[: zb.size]
                np.multiply(gsum[blk], scale, out=g)
                if config.weight_decay:
                    np.multiply(zb, config.weight_decay, out=tmp)
                    g += tmp
                mb *= BETA1
                np.multiply(g, 1.0 - BETA1, out=tmp)
                mb += tmp
                vb *= BETA2
                np.multiply(g, g, out=tmp)
                tmp *= 1.0 - BETA2
                vb += tmp
                np.divide(mb, c1, out=g)
                g *= config.stepsize
                np.divide(vb, c2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += EPS_HAT
                g /= tmp
                zb -= g
            _check_finite(z, steps)
            steps += 1
        del gsum
        if hook is not None:
            hook(z.copy())

    return InnerReport(
        candidate=z,
        iterate_count=steps + 1,
        grad_norm_estimate=_report_grad_norm(problem, spec, z, config),
    )
