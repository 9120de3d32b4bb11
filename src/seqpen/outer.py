"""Sequential penalty outer loop and the fixed-penalty baseline.

The outer loop solves a sequence of penalty subproblems with geometrically
growing coefficient tau_k = tau0 * gamma^k and shrinking stationarity
targets eps_k = eps0 * eps_decay^k, warm-starting each inner run at the
previous candidate. The loop stops early only when both the gradient-norm
estimate falls below eps_k and the worst violation falls below the
feasibility tolerance; otherwise it runs max_outer iterations (the theory is
asymptotic and prescribes no stopping rule).

In practical (Adam) mode the optimizer moments are threaded from one outer
iteration into the next, so a schedule with a one-epoch inner budget is one
continuous training run whose penalty weight increases every epoch.

The fixed-penalty baseline is the degenerate single-subproblem case with the
linear penalty and constant tau = lambda; lambda = 0 gives the plain
unconstrained run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from seqpen.inner import InnerReport, InnerSolverError, SGDConfig, sgd_run
from seqpen.penalties import PenaltySpec, constraint_weights, penalty_value_from_values
from seqpen.problems import (
    Array,
    FeasibilityStats,
    FiniteSumProblem,
    OracleError,
    as_params,
    constraint_values,
    feasibility_from_values,
    objective_values,
)


class OuterAbort(RuntimeError):
    """Inner solver or record failure, annotated with the outer iteration and the trace so far."""

    def __init__(self, outer_index: int, partial: "OuterTrace", cause: Union[InnerSolverError, OracleError]):
        super().__init__(f"outer iteration {outer_index} aborted: {cause}")
        self.outer_index = outer_index
        self.partial = partial
        self.cause = cause


def derived_seed(base: int, index: int) -> int:
    """Stable per-iteration RNG seed derived from a base seed."""
    if base < 0:
        raise ValueError(f"seed must be >= 0, got {base}")
    return int(np.random.SeedSequence([int(base), int(index)]).generate_state(1, np.uint64)[0])


@dataclass
class Schedule:
    """Outer-loop parameters plus the inner solver configuration.

    ``stepsize_fn(tau)`` and ``budget_fn(tau, eps, x)`` optionally override
    the fixed inner stepsize/budget per subproblem; they exist because the
    theoretically motivated values depend on tau-dependent constants the
    caller may know analytically or estimate.
    """

    tau0: float
    gamma: float
    max_outer: int
    inner: SGDConfig
    eps0: float = 1.0
    eps_decay: float = 0.9
    feasibility_tol: float = 1e-6
    stepsize_fn: Optional[Callable[[float], float]] = None
    budget_fn: Optional[Callable[[float, float, Array], int]] = None

    def __post_init__(self):
        if not np.isfinite(self.tau0) or self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if not np.isfinite(self.gamma) or self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1 so tau grows without bound")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not np.isfinite(self.eps0) or self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not (0.0 < self.eps_decay < 1.0):
            raise ValueError("eps_decay must lie in (0, 1) so eps shrinks to 0")

    def tau_at(self, k: int) -> float:
        return self.tau0 * self.gamma**k

    def eps_at(self, k: int) -> float:
        return self.eps0 * self.eps_decay**k


@dataclass
class OuterRecord:
    """Snapshot of one outer iteration."""

    k: int
    tau: float
    eps: float
    candidate: Array
    penalty_value: float
    objective_value: float
    grad_norm: float
    feasibility: FeasibilityStats
    multiplier_max: float
    multiplier_mean: float
    iterate_count: int
    clip_activations: int


@dataclass
class OuterTrace:
    kind: str
    records: list = field(default_factory=list)
    stopped: str = "max_outer"

    def final(self) -> OuterRecord:
        if not self.records:
            raise ValueError("trace is empty")
        return self.records[-1]


def _make_record(problem, spec, k, eps, report: InnerReport) -> OuterRecord:
    # One pass over the training set for f and one for g; every recorded
    # quantity is derived from these two arrays. The candidate is kept
    # uncopied: each inner run returns a fresh array and never touches it again.
    x = report.candidate
    f = objective_values(problem, x)
    g = constraint_values(problem, x)
    lam = constraint_weights(spec, g)
    return OuterRecord(
        k=k,
        tau=spec.tau,
        eps=eps,
        candidate=x,
        penalty_value=penalty_value_from_values(problem, spec, f, g),
        objective_value=float(problem.agg_scale * f.sum()),
        grad_norm=report.grad_norm_estimate,
        feasibility=feasibility_from_values(g),
        multiplier_max=float(lam.max()),
        multiplier_mean=float(lam.mean()),
        iterate_count=report.iterate_count,
        clip_activations=report.clip_activations,
    )


def _outer_step(problem, spec, k, eps, x, config, trace, epoch_hook, opt_state=None) -> InnerReport:
    """Run outer iteration ``k`` from ``x`` and append its record to ``trace``.

    A failure of the inner run or of the record aborts with the trace so far.
    """
    try:
        report = sgd_run(problem, spec, x, config, opt_state=opt_state, epoch_hook=epoch_hook)
        trace.records.append(_make_record(problem, spec, k, eps, report))
    except (InnerSolverError, OracleError) as err:
        raise OuterAbort(k, trace, err) from err
    return report


def sequential_penalty_train(
    problem: FiniteSumProblem,
    kind: str,
    schedule: Schedule,
    x0,
    epoch_hook: Optional[Callable[[Array], None]] = None,
) -> OuterTrace:
    """Run the outer loop; returns the per-iteration trace.

    Each inner run starts exactly at the previous candidate. RNG seeds for
    the inner runs are derived per iteration from the configured seed so
    epochs do not repeat the same shuffles.
    """
    PenaltySpec(kind, schedule.tau0)  # rejects an unknown kind before any inner run
    x = as_params(problem, x0)
    trace = OuterTrace(kind=kind)
    opt_state = None
    for k in range(schedule.max_outer):
        tau = schedule.tau_at(k)
        eps = schedule.eps_at(k)
        spec = PenaltySpec(kind, tau)
        config = replace(schedule.inner, rng_seed=derived_seed(schedule.inner.rng_seed, k))
        if schedule.stepsize_fn is not None:
            config = replace(config, stepsize=schedule.stepsize_fn(tau))
        if schedule.budget_fn is not None:
            config = replace(config, budget=int(schedule.budget_fn(tau, eps, x)))
        report = _outer_step(problem, spec, k, eps, x, config, trace, epoch_hook, opt_state)
        x, opt_state = report.candidate, report.opt_state
        rec = trace.final()
        if rec.grad_norm <= eps and rec.feasibility.max_violation <= schedule.feasibility_tol:
            trace.stopped = "tolerance"
            break
    return trace


def fixed_penalty_train(
    problem: FiniteSumProblem,
    lam: float,
    inner: SGDConfig,
    x0,
    epoch_hook: Optional[Callable[[Array], None]] = None,
) -> OuterTrace:
    """Single inner run on the objective plus lambda times the violation measure.

    Uses the linear penalty with constant tau = lambda so the baseline and
    the sequential method share the same code path and diagnostics; lambda
    may be zero (plain unconstrained training).
    """
    if not np.isfinite(lam) or lam < 0:
        raise ValueError("lambda must be finite and >= 0")
    x = as_params(problem, x0)
    spec = PenaltySpec("linear", lam)
    trace = OuterTrace(kind="linear", stopped="budget")
    _outer_step(problem, spec, 0, float("nan"), x, inner, trace, epoch_hook)
    return trace
