"""Analytic quadratic programs with certified KKT solutions.

Problems have the form

    min 0.5 x'Qx + b'x   s.t.  A x <= c

with Q positive definite. The exact solution is found at construction time
by brute force over active sets: for each subset of constraints the equality
KKT system is solved and the candidate is kept if it is primal and dual
feasible. The stored pair (x*, lambda*) is certified against the KKT
residual checker, which makes these problems reliable oracles for solver
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from seqpen.diagnostics import elicq_check, kkt_residual
from seqpen.problems import Array, FiniteSumProblem

MAX_BRUTE_FORCE_CONSTRAINTS = 10
# A candidate KKT pair is kept when its multipliers are >= -FEAS_TOL and its
# constraint values <= FEAS_TOL, and certified when it is a CERT_TOL-KKT point.
FEAS_TOL = 1e-9
CERT_TOL = 1e-10


class QPCertificationError(RuntimeError):
    """No KKT point passed certification for the requested QP."""


@dataclass
class AnalyticQP:
    Q: Array
    b: Array
    A: Array
    c: Array
    x_star: Array
    lambda_star: Array
    problem: FiniteSumProblem

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def penalty_lipschitz(self, tau: float) -> float:
        """Global smoothness constant of the quadratic penalty.

        Constraints are linear, so their gradient Lipschitz constants vanish
        and the bound is eig_max(Q) + tau * sum_i ||a_i||^2.
        """
        lf = float(np.linalg.eigvalsh(self.Q).max())
        return lf + tau * float((self.A * self.A).sum())


def _qp_problem(Q: Array, b: Array, A: Array, c: Array) -> FiniteSumProblem:
    n = Q.shape[0]
    m = A.shape[0]

    def batch_weighted_grad(indices, x, obj_w, con_w, out):
        # Single-sample problem: the batch is some multiset of index 0. A
        # weight function gets g alone; the objective value is not needed.
        if callable(con_w):
            con_w = con_w(constraint_rows(indices, x))
        con_w = np.asarray(con_w, dtype=float).reshape(len(indices), m)
        # A one-row batch skips the reductions: they differ from the row only
        # on -0.0, and the matmul (summing from 0.0) gives both the same bits.
        if len(indices) == 1:
            total_obj, total_con = float(obj_w[0]), con_w[0]
        else:
            total_obj, total_con = float(np.sum(obj_w)), con_w.sum(axis=0)
        # total_obj * (Q x + b) + total_con A, computed in place in out.
        np.matmul(Q, x, out=out)
        out += b
        out *= total_obj
        out += total_con @ A

    def constraint_rows(indices, x):
        g = A @ x - c
        return g[None, :] if len(indices) == 1 else np.tile(g, (len(indices), 1))

    def batch_values(indices, x):
        v = 0.5 * float(x @ Q @ x) + float(b @ x)
        return np.full(len(indices), v), constraint_rows(indices, x)

    return FiniteSumProblem(
        dim=n,
        num_samples=1,
        num_constraints=m,
        normalization="sum",
        batch_values=batch_values,
        batch_weighted_grad=batch_weighted_grad,
    )


def build_analytic_qp(Q, b, A, c) -> AnalyticQP:
    """Construct a QP and certify its exact solution.

    Raises QPCertificationError when no active subset yields a primal/dual
    feasible KKT pair (e.g. the constraints are infeasible), and ValueError
    for structurally invalid inputs.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.asarray(c, dtype=float).ravel()
    n = Q.shape[0]
    m = A.shape[0]
    if Q.shape != (n, n) or b.shape != (n,) or A.shape != (m, n) or c.shape != (m,):
        raise ValueError("inconsistent QP dimensions")
    if m > MAX_BRUTE_FORCE_CONSTRAINTS:
        raise ValueError(f"brute-force certification supports at most {MAX_BRUTE_FORCE_CONSTRAINTS} constraints")
    try:
        np.linalg.cholesky(0.5 * (Q + Q.T))
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None

    best = None
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = Q
            rhs = np.concatenate([-b, c[idx]])
            if size:
                kkt[:n, n:] = A[idx].T
                kkt[n:, :n] = A[idx]
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = np.zeros(m)
            lam[idx] = sol[n:]
            if (lam < -FEAS_TOL).any():
                continue
            if (A @ x - c > FEAS_TOL).any():
                continue
            value = 0.5 * x @ Q @ x + b @ x
            if best is None or value < best[0] - 1e-12:
                best = (value, x, np.maximum(lam, 0.0))
    if best is None:
        raise QPCertificationError("no feasible KKT point found; the QP may be infeasible")

    _, x_star, lambda_star = best
    problem = _qp_problem(Q, b, A, c)
    report = kkt_residual(problem, x_star, lambda_star.reshape(1, m))
    if not report.is_eps_kkt(CERT_TOL):
        raise QPCertificationError(f"candidate solution failed KKT certification: {report}")
    if not elicq_check(problem, x_star, act_tol=1e-8).holds:
        raise QPCertificationError("constraint gradients are dependent at the solution (LICQ fails)")
    return AnalyticQP(Q=Q, b=b, A=A, c=c, x_star=x_star, lambda_star=lambda_star, problem=problem)


def qp_registry() -> dict:
    """Named QP instances with hand-checkable solutions."""
    return {
        # min x^2 s.t. x >= 1: solution x = 1 with multiplier 2.
        "x_sq_ge_1": build_analytic_qp([[2.0]], [0.0], [[-1.0]], [-1.0]),
        # min ||x||^2 s.t. x1 + x2 >= 2: solution (1, 1) with multiplier 2.
        "sum_ge_2": build_analytic_qp(2.0 * np.eye(2), np.zeros(2), [[-1.0, -1.0]], [-2.0]),
        # min (x - 0.5)^2 s.t. x <= 1: the constraint is slack at x = 0.5.
        "inactive_box": build_analytic_qp([[2.0]], [-1.0], [[1.0]], [1.0]),
    }
