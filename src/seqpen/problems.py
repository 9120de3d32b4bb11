"""Finite-sum problems with a block of inequality constraints per sample.

The central abstraction of the library: a problem

    min_x  agg_j f_j(x)    s.t.  g_ij(x) <= 0  for all i, j

where ``agg`` is either a plain sum over samples or the sample mean.
Penalty coefficients are not transferable between the two scalings, so the
choice is an explicit attribute of the problem rather than a convention.

The library evaluates a problem only through three batch methods:
``objective``, ``constraints`` and ``weighted_grad``. Each quantity can be
supplied either as a batch oracle or as per-sample oracles, which the method
then loops over; these methods are the one place that reads an oracle.

Oracles are treated as read-only with respect to the problem definition and
must be safe to call concurrently; every reduction over samples here runs in
a fixed order, so results are bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

NORMALIZATIONS = ("sum", "mean")


class OracleError(RuntimeError):
    """A problem oracle returned a non-finite value."""


@dataclass
class FiniteSumProblem:
    """Objective and constraint oracles for a finite-sum problem.

    The library calls three methods, each over a batch of sample indices:

    * ``objective(indices, x)`` -> per-sample objective values f_j(x).
    * ``constraints(indices, x)`` -> (len(indices), num_constraints) raw
      constraint values g_ij(x); a sample is feasible when all are <= 0.
    * ``weighted_grad(indices, x, obj_weights, con_weights, out=None)`` ->
      sum over the batch of obj_w[j] * grad f_j + sum_i con_w[j, i] *
      grad g_ij, as one flat vector. Plain objective gradients, penalty
      gradients of either kind, KKT stationarity terms and Jacobian rows are
      all weighted sums of this shape. ``con_weights`` is either a
      (len(indices), num_constraints) array or a function mapping the
      batch's raw constraint values g to such an array. The function form
      lets a fused oracle take g from the forward pass it already runs, so a
      penalty gradient costs one pass over the batch. The sum is written
      into ``out``, a float array of shape (dim,) that the caller owns, or
      into a fresh one when ``out`` is None, and returned.

    Each quantity comes from a batch oracle when one is set and otherwise
    from per-sample oracles:

    * objective: ``batch_objective(indices, x)`` or ``sample_objective(j, x)``;
    * constraints: ``batch_constraints(indices, x)`` or
      ``sample_constraints(j, x)`` (a vector of length ``num_constraints``);
    * weighted gradient: ``batch_weighted_grad(indices, x, obj_w, con_w, out)``,
      with the ``con_weights`` forms of ``weighted_grad`` (a function must be
      called exactly once, with the values ``constraints`` returns), which
      overwrites the given ``out`` array with the sum; or
      ``sample_objective_grad(j, x)`` together with
      ``sample_constraint_jacobian(j, x)`` (an (num_constraints, dim) matrix
      of constraint gradients as rows).

    Oracles must not write their weight arguments: ``penalty_grad_batch``
    passes one shared, read-only array of unit objective weights per batch size.
    """

    dim: int
    num_samples: int
    num_constraints: int
    sample_objective: Optional[Callable[[int, Array], float]] = None
    sample_objective_grad: Optional[Callable[[int, Array], Array]] = None
    sample_constraints: Optional[Callable[[int, Array], Array]] = None
    sample_constraint_jacobian: Optional[Callable[[int, Array], Array]] = None
    normalization: str = "sum"
    batch_objective: Optional[Callable[[Array, Array], Array]] = None
    batch_constraints: Optional[Callable[[Array, Array], Array]] = None
    batch_weighted_grad: Optional[Callable[[Array, Array, Array, Array, Array], None]] = None

    def __post_init__(self):
        if self.dim < 1 or self.num_samples < 1 or self.num_constraints < 1:
            raise ValueError("dim, num_samples and num_constraints must be positive")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}")
        sources = {
            "objective": (self.batch_objective, self.sample_objective),
            "constraints": (self.batch_constraints, self.sample_constraints),
            "weighted_grad": (self.batch_weighted_grad, self.sample_objective_grad, self.sample_constraint_jacobian),
        }
        missing = [name for name, (batch, *sample) in sources.items() if batch is None and None in sample]
        if missing:
            raise ValueError(f"no oracle for {', '.join(missing)}: set its batch_* oracle or its sample_* oracles")

    @property
    def agg_scale(self) -> float:
        """Factor turning a plain sum over samples into the problem's aggregate."""
        return 1.0 if self.normalization == "sum" else 1.0 / self.num_samples

    def estimator_scale(self, batch_size: int) -> float:
        """Factor turning a sum over ``batch_size`` sampled terms into an unbiased estimate of the aggregate.

        For the full batch it equals ``agg_scale``.
        """
        return 1.0 / batch_size if self.normalization == "mean" else self.num_samples / batch_size

    def objective(self, indices, x) -> Array:
        """Objective values f_j(x) for the samples in ``indices``."""
        if self.batch_objective is not None:
            return np.asarray(self.batch_objective(indices, x), dtype=float)
        return np.array([self.sample_objective(int(j), x) for j in indices], dtype=float)

    def constraints(self, indices, x) -> Array:
        """Raw constraint values as a (len(indices), num_constraints) matrix."""
        if self.batch_constraints is not None:
            g = self.batch_constraints(indices, x)
        else:
            g = [self.sample_constraints(j, x) for j in np.asarray(indices).tolist()]
        return np.asarray(g, dtype=float).reshape(len(indices), self.num_constraints)

    def weighted_grad(self, indices, x, obj_weights, con_weights, out=None) -> Array:
        """sum_j obj_w[j] * grad f_j + sum_i con_w[j, i] * grad g_ij over the batch, written into ``out``."""
        total = np.empty(self.dim) if out is None else out
        if self.batch_weighted_grad is not None:
            self.batch_weighted_grad(indices, x, obj_weights, con_weights, total)
            return total
        if callable(con_weights):
            con_weights = con_weights(self.constraints(indices, x))
        obj_w = np.asarray(obj_weights, dtype=float).reshape(len(indices))
        con_w = np.asarray(con_weights, dtype=float).reshape(len(indices), self.num_constraints)
        total.fill(0.0)
        for j, wf, wc in zip(np.asarray(indices).tolist(), obj_w.tolist(), con_w):
            # Each sample's term is summed first and then added to the total,
            # and only the oracles with a nonzero weight are called.
            active = wc.nonzero()[0]
            if not wf and not active.size:
                continue
            term = wf * np.asarray(self.sample_objective_grad(j, x), dtype=float) if wf else 0.0
            if active.size:
                jac = np.asarray(self.sample_constraint_jacobian(j, x), dtype=float)
                term = term + wc[active] @ jac.reshape(self.num_constraints, self.dim)[active]
            total += term
        return total


def as_params(problem: FiniteSumProblem, x) -> Array:
    """Validate and convert a parameter vector for ``problem``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({problem.dim},)")
    return x


def objective_values(problem: FiniteSumProblem, x) -> Array:
    """Per-sample objective values f_j(x) for all samples."""
    vals = problem.objective(np.arange(problem.num_samples), as_params(problem, x))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise OracleError(f"non-finite objective value for sample {bad[0]}")
    return vals


def full_objective(problem: FiniteSumProblem, x) -> float:
    """Aggregate objective per the problem's normalization."""
    return float(problem.agg_scale * objective_values(problem, x).sum())


def objective_grad_full(problem: FiniteSumProblem, x) -> Array:
    """Gradient of the aggregate objective."""
    n, m = problem.num_samples, problem.num_constraints
    g = problem.weighted_grad(np.arange(n), as_params(problem, x), np.ones(n), np.zeros((n, m)))
    return problem.agg_scale * g


def constraint_jacobian(problem: FiniteSumProblem, j: int, x) -> Array:
    """Gradients of sample j's constraints as rows of a (num_constraints, dim) matrix."""
    x = as_params(problem, x)
    idx = np.array([j])
    onehot = np.eye(problem.num_constraints)
    return np.stack([problem.weighted_grad(idx, x, np.zeros(1), row[None, :]) for row in onehot])


def constraint_values(problem: FiniteSumProblem, x) -> Array:
    """Raw constraint values as an (num_samples, num_constraints) matrix."""
    g = problem.constraints(np.arange(problem.num_samples), as_params(problem, x))
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
