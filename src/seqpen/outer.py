"""Sequential penalty outer loop and the fixed-penalty baseline.

The outer loop solves a sequence of penalty subproblems with geometrically
growing coefficient tau_k = tau0 * gamma^k and shrinking stationarity
targets eps_k = eps0 * eps_decay^k, warm-starting each inner run at the
previous candidate. The loop stops early only when both the gradient-norm
estimate falls below eps_k and the worst violation falls below
FEASIBILITY_TOL; otherwise it runs max_outer iterations (the theory is
asymptotic and prescribes no stopping rule).

Like ``sgd_run``, both loops step the ``x0`` they are given to their result.
In practical (Adam) mode the outer loop creates one Adam state and every
inner run continues it, so a schedule with a one-epoch inner budget is one
continuous training run whose penalty weight increases every epoch.

The fixed-penalty baseline is the degenerate single-subproblem case with the
linear penalty and constant tau = lambda; lambda = 0 gives the plain
unconstrained run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from seqpen.inner import AdamState, InnerReport, InnerSolverError, SGDConfig, check_x0, sgd_run
from seqpen.penalties import PenaltySpec, constraint_weights, penalty_value_from_values
from seqpen.problems import (
    Array,
    FeasibilityStats,
    FiniteSumProblem,
    OracleError,
    feasibility_from_values,
    full_values,
)

# A record keeps a copy of its candidate only up to this dimension (the
# trace.csv writer appends those candidates as columns); above it no record
# keeps one, the result is in the stepped x0 alone, and a run's memory does
# not grow with its length.
MAX_TRACE_DIM = 16

# The worst violation at which the outer loop may stop early (see above).
FEASIBILITY_TOL = 1e-6


class OuterAbort(RuntimeError):
    """Inner solver or record failure (its ``__cause__``), with the trace so far as ``partial``."""

    def __init__(self, partial: "OuterTrace", cause: Union[InnerSolverError, OracleError]):
        super().__init__(f"outer iteration {len(partial.records)} aborted: {cause}")
        self.partial = partial


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
    caller may know analytically or estimate. Under ``grad_norm = 'none'``
    the loop never stops early, and eps_k only labels the trace.
    """

    tau0: float
    gamma: float
    max_outer: int
    inner: SGDConfig
    eps0: float = 1.0
    eps_decay: float = 0.9
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
        try:
            last_tau = self.tau_at(self.max_outer - 1)
        except OverflowError:
            last_tau = float("inf")
        if not np.isfinite(last_tau):
            raise ValueError(f"max_outer = {self.max_outer} takes tau0 * gamma**(max_outer - 1) past the largest float")

    def tau_at(self, k: int) -> float:
        return self.tau0 * self.gamma**k

    def eps_at(self, k: int) -> float:
        return self.eps0 * self.eps_decay**k


@dataclass
class OuterRecord:
    """Snapshot of one outer iteration.

    ``candidate`` is a copy of the inner run's result up to ``MAX_TRACE_DIM``
    and None above it, where the result is read from the ``x0`` that was stepped.
    """

    k: int
    tau: float
    eps: float
    candidate: Optional[Array]
    penalty_value: float
    objective_value: float
    grad_norm: float
    feasibility: FeasibilityStats
    multiplier_max: float
    multiplier_mean: float
    iterate_count: int


@dataclass
class OuterTrace:
    records: list = field(default_factory=list)

    def final(self) -> OuterRecord:
        if not self.records:
            raise ValueError("trace is empty")
        return self.records[-1]


def _make_record(problem, spec, k, eps, x, report: InnerReport) -> OuterRecord:
    # One pass over the training set gives f and g; every recorded quantity
    # is derived from these two arrays.
    f, g = full_values(problem, x)
    lam = constraint_weights(spec, g)
    return OuterRecord(
        k=k,
        tau=spec.tau,
        eps=eps,
        candidate=x.copy() if problem.dim <= MAX_TRACE_DIM else None,
        penalty_value=penalty_value_from_values(problem, spec, f, g),
        objective_value=float(problem.agg_scale * f.sum()),
        grad_norm=report.grad_norm_estimate,
        feasibility=feasibility_from_values(g),
        multiplier_max=float(lam.max()),
        multiplier_mean=float(lam.mean()),
        iterate_count=report.iterate_count,
    )


def _outer_step(problem, spec, k, eps, x, config, trace, hook, opt_state=None):
    """Run outer iteration ``k``, stepping ``x`` in place, and append its record to ``trace``.

    A failure of the run or of the record aborts with the trace so far.
    """
    try:
        report = sgd_run(problem, spec, x, config, opt_state=opt_state, hook=hook)
        record = _make_record(problem, spec, k, eps, x, report)
    except (InnerSolverError, OracleError) as err:
        raise OuterAbort(trace, err) from err
    trace.records.append(record)


def sequential_penalty_train(
    problem: FiniteSumProblem,
    kind: str,
    schedule: Schedule,
    x0,
    hook: Optional[Callable[[Array], None]] = None,
) -> OuterTrace:
    """Run the outer loop; returns the per-iteration trace.

    Every inner run steps ``x0`` in place, from the previous candidate. RNG
    seeds for the inner runs are derived per iteration from the configured
    seed so epochs do not repeat the same shuffles. ``hook`` is passed to
    every inner run (see ``sgd_run``). In practical mode every inner run
    continues the one Adam state that this loop creates.
    """
    check_x0(problem, x0)
    trace = OuterTrace()
    opt_state = None
    if schedule.inner.mode == "practical":
        opt_state = AdamState(np.zeros(problem.dim), np.zeros(problem.dim), 0)
    for k in range(schedule.max_outer):
        tau = schedule.tau_at(k)
        eps = schedule.eps_at(k)
        spec = PenaltySpec(kind, tau)
        config = replace(schedule.inner, rng_seed=derived_seed(schedule.inner.rng_seed, k))
        if schedule.stepsize_fn is not None:
            config = replace(config, stepsize=schedule.stepsize_fn(tau))
        if schedule.budget_fn is not None:
            config = replace(config, budget=int(schedule.budget_fn(tau, eps, x0)))
        _outer_step(problem, spec, k, eps, x0, config, trace, hook, opt_state)
        rec = trace.final()
        if rec.grad_norm <= eps and rec.feasibility.max_violation <= FEASIBILITY_TOL:
            break
    return trace


def fixed_penalty_train(
    problem: FiniteSumProblem,
    lam: float,
    inner: SGDConfig,
    x0,
    hook: Optional[Callable[[Array], None]] = None,
) -> OuterTrace:
    """Single inner run on the objective plus lambda times the violation measure.

    Uses the linear penalty with constant tau = lambda so the baseline and
    the sequential method share the same code path and diagnostics; lambda
    may be zero (plain unconstrained training). The run ends with its result
    in ``x0``.
    """
    spec = PenaltySpec("linear", lam)
    trace = OuterTrace()
    _outer_step(problem, spec, 0, float("nan"), x0, inner, trace, hook)
    return trace
