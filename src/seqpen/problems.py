"""Finite-sum problems with a block of inequality constraints per sample.

The central abstraction of the library: a problem

    min_x  agg_j f_j(x)    s.t.  g_ij(x) <= 0  for all i, j

where ``agg`` is either a plain sum over samples or the sample mean.
Penalty coefficients are not transferable between the two scalings, so the
choice is an explicit attribute of the problem rather than a convention.

Oracles are per-sample callables. Vectorized batch oracles may be attached
for speed; when present they are used by the hot paths and are checked
against the per-sample oracles in the test suite.

Oracles are treated as read-only with respect to the problem definition and
must be safe to call concurrently; every reduction over samples here runs in
a fixed order, so results are bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

NORMALIZATIONS = ("sum", "mean")


class OracleError(RuntimeError):
    """A problem oracle returned a non-finite value."""


@dataclass
class FiniteSumProblem:
    """Per-sample objective and constraint oracles for a finite-sum problem.

    ``sample_constraints(j, x)`` returns the raw constraint values g_ij(x)
    for sample ``j`` as a vector of length ``num_constraints``; a sample is
    feasible when all of them are <= 0. ``sample_constraint_jacobian(j, x)``
    stacks the corresponding gradients as rows of an
    (num_constraints, dim) matrix.

    Optional batch oracles:

    * ``batch_objective(indices, x)`` -> per-sample objective values.
    * ``batch_constraints(indices, x)`` -> (len(indices), num_constraints)
      raw constraint values.
    * ``batch_weighted_grad(indices, x, obj_weights, con_weights)`` ->
      sum over the batch of obj_w[j] * grad f_j + sum_i con_w[j, i] * grad g_ij,
      as one flat vector. This single hook is what the solvers need: plain
      objective gradients, penalty gradients of either kind, and KKT
      stationarity terms are all weighted sums of this shape.
      ``con_weights`` is either a (len(indices), num_constraints) array or a
      function mapping the batch's raw constraint values g, shaped
      (len(indices), num_constraints), to such an array. The function form
      lets the oracle take g from the forward pass it already runs, so a
      penalty gradient costs one pass over the batch; the oracle must call
      it exactly once, with the same values ``batch_constraints`` returns.
    """

    dim: int
    num_samples: int
    num_constraints: int
    sample_objective: Callable[[int, Array], float]
    sample_objective_grad: Callable[[int, Array], Array]
    sample_constraints: Callable[[int, Array], Array]
    sample_constraint_jacobian: Callable[[int, Array], Array]
    normalization: str = "sum"
    batch_objective: Optional[Callable[[Array, Array], Array]] = None
    batch_constraints: Optional[Callable[[Array, Array], Array]] = None
    batch_weighted_grad: Optional[Callable[[Array, Array, Array, Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1 or self.num_samples < 1 or self.num_constraints < 1:
            raise ValueError("dim, num_samples and num_constraints must be positive")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}")

    @property
    def agg_scale(self) -> float:
        """Factor turning a plain sum over samples into the problem's aggregate."""
        return 1.0 if self.normalization == "sum" else 1.0 / self.num_samples

    def with_normalization(self, normalization: str) -> "FiniteSumProblem":
        return replace(self, normalization=normalization)


def as_params(problem: FiniteSumProblem, x) -> Array:
    """Validate and convert a parameter vector for ``problem``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({problem.dim},)")
    return x


def objective_values(problem: FiniteSumProblem, x) -> Array:
    """Per-sample objective values f_j(x) for all samples."""
    x = as_params(problem, x)
    if problem.batch_objective is not None:
        vals = np.asarray(problem.batch_objective(np.arange(problem.num_samples), x), dtype=float)
    else:
        vals = np.array([problem.sample_objective(j, x) for j in range(problem.num_samples)], dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise OracleError(f"non-finite objective value for sample {bad[0]}")
    return vals


def full_objective(problem: FiniteSumProblem, x) -> float:
    """Aggregate objective per the problem's normalization."""
    return float(problem.agg_scale * objective_values(problem, x).sum())


def objective_grad_full(problem: FiniteSumProblem, x) -> Array:
    """Gradient of the aggregate objective."""
    x = as_params(problem, x)
    if problem.batch_weighted_grad is not None:
        idx = np.arange(problem.num_samples)
        g = problem.batch_weighted_grad(
            idx, x, np.ones(problem.num_samples), np.zeros((problem.num_samples, problem.num_constraints))
        )
    else:
        g = np.zeros(problem.dim)
        for j in range(problem.num_samples):
            g += np.asarray(problem.sample_objective_grad(j, x), dtype=float)
    return problem.agg_scale * np.asarray(g, dtype=float)


def constraint_values(problem: FiniteSumProblem, x) -> Array:
    """Raw constraint values as an (num_samples, num_constraints) matrix."""
    x = as_params(problem, x)
    if problem.batch_constraints is not None:
        g = np.asarray(problem.batch_constraints(np.arange(problem.num_samples), x), dtype=float)
        g = g.reshape(problem.num_samples, problem.num_constraints)
    else:
        g = np.empty((problem.num_samples, problem.num_constraints))
        for j in range(problem.num_samples):
            g[j] = np.asarray(problem.sample_constraints(j, x), dtype=float)
    if not np.isfinite(g).all():
        j, i = np.argwhere(~np.isfinite(g))[0]
        raise OracleError(f"non-finite constraint value at sample {j}, constraint {i}")
    return g


def violation_vector(problem: FiniteSumProblem, x) -> Array:
    """Elementwise violations max(0, g_ij(x)); zero exactly on the feasible set."""
    return np.maximum(0.0, constraint_values(problem, x))


@dataclass(frozen=True)
class FeasibilityStats:
    mean_violation: float
    satisfied_fraction: float
    max_violation: float


def feasibility_stats(problem: FiniteSumProblem, x, threshold_tol: float = 0.0) -> FeasibilityStats:
    """Violation summary; a constraint counts satisfied iff g <= threshold_tol."""
    return feasibility_from_values(constraint_values(problem, x), threshold_tol)


def feasibility_from_values(g: Array, threshold_tol: float = 0.0) -> FeasibilityStats:
    """Violation summary of an (num_samples, num_constraints) matrix of raw constraint values."""
    if threshold_tol < 0:
        raise ValueError("threshold_tol must be >= 0")
    viol = np.maximum(0.0, g)
    return FeasibilityStats(
        mean_violation=float(viol.mean()),
        satisfied_fraction=float((g <= threshold_tol).mean()),
        max_violation=float(viol.max()),
    )


def epoch_batches(num_samples: int, batch_size: int, rng: np.random.Generator) -> list[Array]:
    """Shuffled partition of range(num_samples) into batches of batch_size.

    The final batch may be smaller. Batches within one epoch are disjoint and
    jointly cover every sample exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = rng.permutation(num_samples)
    return [perm[lo : lo + batch_size] for lo in range(0, num_samples, batch_size)]
