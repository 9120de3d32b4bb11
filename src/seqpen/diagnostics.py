"""Optimality and regularity diagnostics.

KKT residuals, an extended-LICQ rank check that also covers infeasible
points, and probe-based estimators for the two constants that drive the
inner iteration budget: the penalty smoothness constant and the
strong-growth ratio.

Multipliers follow the problem's aggregation convention: the stationarity
residual is || grad f + agg_j sum_i lambda_ij grad g_ij || with the same
sum-or-mean aggregation as the objective. Under that convention the
stationarity residual at the penalty's own multiplier estimate equals the
penalty gradient norm identically.

Both estimators probe finitely many points, so they report lower bounds of
the true sup-based constants; consumers that need safe values should apply
a safety factor (see ``suggested_stepsize``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from seqpen.penalties import PenaltySpec, penalty_grad_batch
from seqpen.problems import (
    Array,
    FiniteSumProblem,
    as_params,
    constraint_jacobian,
    constraint_values,
    full_weighted_grad,
    objective_grad_full,
)

# Singular values at or below RANK_TOL times the largest count as zero in
# the extended-LICQ rank check.
RANK_TOL = 1e-8
# A full penalty gradient with norm at or below ZERO_TOL makes the
# strong-growth ratio undefined; such probes are skipped.
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class KKTReport:
    stationarity_residual: float
    feasibility_residual: float
    complementarity_residual: float
    dual_feasibility: bool

    def is_eps_kkt(self, eps: float) -> bool:
        return (
            self.dual_feasibility
            and self.stationarity_residual <= eps
            and self.feasibility_residual <= eps
            and self.complementarity_residual <= eps
        )


@dataclass(frozen=True)
class ElicqReport:
    holds: bool
    num_active_plus: int
    min_singular_value: float


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Probe-based estimates of the penalty smoothness constant.

    ``grad_sup`` and ``violation_sup`` are per-(sample, constraint) maxima of
    the constraint gradient norm and of the positive part of the constraint
    value over the probe set; ``constraint_lipschitz`` and
    ``objective_lipschitz`` are max secant slopes of the respective
    gradients over probe pairs. ``penalty_lipschitz`` composes them:

        L = Lf + tau * scale * sum_ij (grad_sup_ij^2 + violation_sup_ij * Lg_ij)

    where scale is the problem's aggregation factor.
    """

    objective_lipschitz: float
    grad_sup: Array
    violation_sup: Array
    constraint_lipschitz: Array
    penalty_lipschitz: float
    tau: float


@dataclass(frozen=True)
class SGCEstimate:
    rho_est: float
    ratios: tuple
    num_skipped: int


def kkt_residual(problem: FiniteSumProblem, x, lambdas) -> KKTReport:
    """KKT residuals at x for the given (N, m) multiplier matrix."""
    x = as_params(problem, x)
    lam = np.asarray(lambdas, dtype=float).reshape(problem.num_samples, problem.num_constraints)
    g = constraint_values(problem, x)
    stat_vec = full_weighted_grad(problem, x, lam)
    return KKTReport(
        stationarity_residual=float(np.linalg.norm(stat_vec)),
        feasibility_residual=float(np.maximum(0.0, g).max()),
        complementarity_residual=float(np.abs(lam * g).max()),
        dual_feasibility=bool((lam >= 0).all()),
    )


def elicq_check(problem: FiniteSumProblem, x, act_tol: float = 1e-6) -> ElicqReport:
    """Rank check of the active-plus-violated constraint gradients at x.

    Stacks the gradients of all constraints with g >= -act_tol and tests
    whether they are numerically linearly independent (singular values above
    ``RANK_TOL`` times the largest). Vacuously true when no constraint is
    active or violated.
    """
    x = as_params(problem, x)
    g = constraint_values(problem, x)
    rows = []
    for j in range(problem.num_samples):
        hit = np.flatnonzero(g[j] >= -act_tol)
        if hit.size:
            rows.append(constraint_jacobian(problem, j, x)[hit])
    if not rows:
        return ElicqReport(holds=True, num_active_plus=0, min_singular_value=float("inf"))
    mat = np.vstack(rows)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return ElicqReport(holds=False, num_active_plus=mat.shape[0], min_singular_value=0.0)
    rank = int((sv > RANK_TOL * sv[0]).sum())
    return ElicqReport(
        holds=rank == mat.shape[0],
        num_active_plus=mat.shape[0],
        min_singular_value=float(sv[-1]) if mat.shape[0] <= problem.dim else 0.0,
    )


def _probe_points(lo: Array, hi: Array, num_probes: int, rng: np.random.Generator) -> Array:
    # Box corners lo and hi are always probed so that 1-D sup examples with
    # extrema on the boundary are recovered exactly.
    return np.vstack([lo, hi, lo + (hi - lo) * rng.random((num_probes - 2, lo.size))])


def smoothness_estimate(
    problem: FiniteSumProblem,
    spec: PenaltySpec,
    probe_box,
    num_probes: int = 16,
    rng_seed: int = 0,
) -> SmoothnessEstimate:
    """Estimate the penalty smoothness constant over a box by probing.

    ``probe_box`` is a (lo, hi) pair of per-coordinate bounds (scalars are
    broadcast). Requires num_probes >= 2; cost grows quadratically with the
    number of probes because Lipschitz slopes use all pairs.
    """
    if num_probes < 2:
        raise ValueError("num_probes must be >= 2")
    lo = np.broadcast_to(np.asarray(probe_box[0], dtype=float), (problem.dim,)).copy()
    hi = np.broadcast_to(np.asarray(probe_box[1], dtype=float), (problem.dim,)).copy()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("probe_box must be finite")
    if (hi <= lo).any():
        raise ValueError("probe_box is degenerate: every upper bound must exceed the lower bound")

    rng = np.random.default_rng(rng_seed)
    probes = _probe_points(lo, hi, num_probes, rng)
    n_probes = probes.shape[0]
    n_s, n_c = problem.num_samples, problem.num_constraints

    obj_grads = np.stack([objective_grad_full(problem, p) for p in probes])
    g_vals = np.stack([constraint_values(problem, p) for p in probes])  # (P, N, m)
    violation_sup = np.maximum(0.0, g_vals).max(axis=0)  # (N, m)

    lf, pairs = 0.0, []  # pairs: (a, b, distance) of the probe pairs a < b at distinct points
    for a in range(n_probes):
        for b in range(a + 1, n_probes):
            dist = float(np.linalg.norm(probes[a] - probes[b]))
            if dist == 0.0:
                continue
            lf = max(lf, float(np.linalg.norm(obj_grads[a] - obj_grads[b])) / dist)
            pairs.append((a, b, dist))

    # One sample's Jacobians at every probe, (P, m, dim), at a time: never the (P, N, m, dim) stack.
    grad_sup = np.empty((n_s, n_c))
    lg = np.zeros((n_s, n_c))
    for j in range(n_s):
        jacs = np.stack([constraint_jacobian(problem, j, p) for p in probes])
        grad_sup[j] = np.linalg.norm(jacs, axis=2).max(axis=0)
        for a, b, dist in pairs:
            lg[j] = np.maximum(lg[j], np.linalg.norm(jacs[a] - jacs[b], axis=1) / dist)

    penalty_l = lf + spec.tau * problem.agg_scale * float((grad_sup**2 + violation_sup * lg).sum())
    return SmoothnessEstimate(
        objective_lipschitz=lf,
        grad_sup=grad_sup,
        violation_sup=violation_sup,
        constraint_lipschitz=lg,
        penalty_lipschitz=penalty_l,
        tau=spec.tau,
    )


def suggested_stepsize(estimate: SmoothnessEstimate, rho: float = 1.0, safety: float = 2.0) -> float:
    """Stepsize 1 / (safety * rho * L_est); the safety factor covers the
    estimator reporting a lower bound of the true constant."""
    if estimate.penalty_lipschitz <= 0:
        raise ValueError("estimated smoothness constant is not positive")
    return 1.0 / (safety * rho * estimate.penalty_lipschitz)


def sgc_estimate(problem: FiniteSumProblem, spec: PenaltySpec, probe_points: Sequence) -> SGCEstimate:
    """Strong-growth ratio estimated by exact enumeration over samples.

    At each probe x the ratio E_j ||est_j||^2 / ||grad P||^2 is computed,
    where est_j is the unbiased single-sample gradient estimator under the
    problem's normalization. Probes where the full gradient norm is at most
    ``ZERO_TOL`` are skipped with a warning (the ratio is undefined there).
    """
    ratios = []
    skipped = 0
    n_s = problem.num_samples
    # Per-sample gradients are summed in sample order beside their squared norms: two buffers, not N.
    total, grad = np.empty(problem.dim), np.empty(problem.dim)
    for x in probe_points:
        x = as_params(problem, x)
        total.fill(0.0)
        sum_sq = 0.0
        for j in range(n_s):
            penalty_grad_batch(problem, spec, [j], x, out=grad)
            total += grad
            sum_sq += float(grad @ grad)
        total *= problem.agg_scale
        full_sq = float(total @ total)
        if np.sqrt(full_sq) <= ZERO_TOL:
            warnings.warn("skipping probe with near-zero full penalty gradient", RuntimeWarning)
            skipped += 1
            continue
        mean_sq = sum_sq / n_s * problem.estimator_scale(1) ** 2
        ratios.append(mean_sq / full_sq)
    if not ratios:
        raise ValueError("all probe points had near-zero full gradients; no ratio defined")
    return SGCEstimate(rho_est=float(max(ratios)), ratios=tuple(ratios), num_skipped=skipped)
