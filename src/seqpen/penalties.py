"""Penalty functions over finite-sum constrained problems.

Two kinds are supported. With per-sample terms f_j and constraints g_ij:

* quadratic:  p_j(x) = f_j(x) + (tau / 2) * sum_i max(0, g_ij(x))^2
* linear:     p_j(x) = f_j(x) + tau * sum_i max(0, g_ij(x))

The full penalty aggregates p_j per the problem's normalization, so it
coincides with the objective on the feasible set for any tau. The quadratic
kind is continuously differentiable; the linear kind is not, and we take the
subgradient 0 on the boundary g = 0 so feasible points stay unpenalized.

The multiplier estimate tau * max(0, g) (quadratic kind) is the penalty
method's built-in approximation of the KKT multipliers; for the linear kind
we use tau * 1{g > 0}, the weight the subgradient actually applies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from seqpen.problems import (
    Array,
    FiniteSumProblem,
    as_params,
    constraint_values,
    objective_values,
)

PENALTY_KINDS = ("quadratic", "linear")


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind plus coefficient tau, immutable for one subproblem.

    tau == 0 is allowed as a degenerate case (the penalty is then exactly the
    objective); it backs the unconstrained baseline. Outer-loop schedules
    require a strictly positive starting tau.
    """

    kind: str
    tau: float

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"penalty kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")


def violation_term(spec: PenaltySpec, g: Array) -> float:
    """Penalty contribution of raw constraint values: one sample's row or a whole matrix."""
    v = np.maximum(0.0, g)
    if spec.kind == "quadratic":
        return 0.5 * spec.tau * float((v * v).sum())
    return spec.tau * float(v.sum())


def constraint_weights(spec: PenaltySpec, g: Array) -> Array:
    """Weights w_ij such that the penalty gradient is grad f + sum w_ij grad g_ij."""
    g = np.asarray(g, dtype=float)
    if spec.kind == "quadratic":
        return spec.tau * np.maximum(0.0, g)
    return spec.tau * (g > 0).astype(float)


def penalty_value_full(problem: FiniteSumProblem, spec: PenaltySpec, x) -> float:
    """Aggregate penalty value per the problem's normalization."""
    x = as_params(problem, x)
    return penalty_value_from_values(problem, spec, objective_values(problem, x), constraint_values(problem, x))


def penalty_value_from_values(problem: FiniteSumProblem, spec: PenaltySpec, f: Array, g: Array) -> float:
    """Aggregate penalty from per-sample objective values f and the raw constraint matrix g."""
    return float(problem.agg_scale * (f.sum() + violation_term(spec, g)))


@functools.lru_cache(maxsize=8)
def _unit_weights(size: int) -> Array:
    """Objective weights of 1 for a batch of ``size``, shared and read-only."""
    w = np.ones(size)
    w.flags.writeable = False
    return w


def penalty_grad_batch(problem: FiniteSumProblem, spec: PenaltySpec, indices, x, out=None) -> Array:
    """Sum over the given samples of the per-sample penalty gradients, written into ``out``.

    No normalization scaling is applied; callers own the estimator scaling.
    ``out`` is a caller-owned buffer of shape (dim,), or None for a fresh one.
    """
    x = as_params(problem, x)
    indices = np.asarray(indices, dtype=int)
    # The oracle maps the constraint values of its own forward pass to
    # weights; at tau = 0 every weight is zero and no value is needed.
    if spec.tau == 0:
        con_w = np.zeros((indices.size, problem.num_constraints))
    else:
        con_w = functools.partial(constraint_weights, spec)
    return problem.weighted_grad(indices, x, _unit_weights(indices.size), con_w, out=out)


def penalty_grad_full(problem: FiniteSumProblem, spec: PenaltySpec, x) -> Array:
    """Gradient of the aggregate penalty (exact, all samples)."""
    idx = np.arange(problem.num_samples)
    return problem.agg_scale * penalty_grad_batch(problem, spec, idx, x)


def multiplier_estimate(problem: FiniteSumProblem, spec: PenaltySpec, x) -> Array:
    """Per-(sample, constraint) multiplier estimates as an (N, m) matrix.

    Entries are nonnegative and vanish wherever the constraint is strictly
    satisfied, so complementarity holds by construction at the point where
    the estimate is taken.
    """
    g = constraint_values(problem, x)
    return constraint_weights(spec, g)
