import numpy as np
import pytest

from seqpen import FiniteSumProblem
from seqpen.tasks.data import synthetic_digits
from seqpen.tasks.encdec import build_enc_dec_task
from seqpen.tasks.qp import qp_registry


def make_scalar_problem(f, fgrad, g, ggrad, normalization="sum"):
    """One-sample, one-constraint problem over a single variable."""
    return FiniteSumProblem(
        dim=1,
        num_samples=1,
        num_constraints=1,
        sample_objective=lambda j, x: f(x[0]),
        sample_objective_grad=lambda j, x: np.array([fgrad(x[0])]),
        sample_constraints=lambda j, x: np.array([g(x[0])]),
        sample_constraint_jacobian=lambda j, x: np.array([[ggrad(x[0])]]),
        normalization=normalization,
    )


def make_random_problem(dim, num_samples, num_constraints, seed, normalization="sum", oracles="sample"):
    """Smooth quadratic objective/constraint samples with analytic gradients.

    ``oracles="sample"`` supplies the four per-sample oracles; ``"batch"``
    builds the same problem from the two vectorized batch oracles instead.
    """
    rng = np.random.default_rng(seed)
    obj_h = rng.normal(size=(num_samples, dim, dim))
    obj_h = obj_h @ obj_h.transpose(0, 2, 1) / dim + 0.1 * np.eye(dim)
    obj_d = rng.normal(size=(num_samples, dim))
    con_h = rng.normal(size=(num_samples, num_constraints, dim, dim)) / dim
    con_h = con_h + con_h.transpose(0, 1, 3, 2)
    con_e = rng.normal(size=(num_samples, num_constraints, dim))
    con_s = rng.normal(size=(num_samples, num_constraints))
    shape = dict(dim=dim, num_samples=num_samples, num_constraints=num_constraints, normalization=normalization)

    if oracles == "batch":

        def constraint_rows(indices, x):
            return 0.5 * np.einsum("i,bkij,j->bk", x, con_h[indices], x) + con_e[indices] @ x + con_s[indices]

        def batch_weighted_grad(indices, x, obj_w, con_w, out):
            if callable(con_w):
                con_w = con_w(constraint_rows(indices, x))
            obj_grads = obj_h[indices] @ x + obj_d[indices]
            con_grads = np.einsum("bkij,j->bki", con_h[indices], x) + con_e[indices]
            out[:] = np.asarray(obj_w) @ obj_grads + np.einsum("bk,bki->i", np.asarray(con_w), con_grads)

        def batch_values(indices, x):
            f = 0.5 * np.einsum("i,bij,j->b", x, obj_h[indices], x) + obj_d[indices] @ x
            return f, constraint_rows(indices, x)

        return FiniteSumProblem(
            **shape,
            batch_values=batch_values,
            batch_weighted_grad=batch_weighted_grad,
        )

    def sample_objective(j, x):
        return 0.5 * float(x @ obj_h[j] @ x) + float(obj_d[j] @ x)

    def sample_objective_grad(j, x):
        return obj_h[j] @ x + obj_d[j]

    def sample_constraints(j, x):
        return 0.5 * np.einsum("i,kij,j->k", x, con_h[j], x) + con_e[j] @ x + con_s[j]

    def sample_constraint_jacobian(j, x):
        return np.einsum("kij,j->ki", con_h[j], x) + con_e[j]

    return FiniteSumProblem(
        **shape,
        sample_objective=sample_objective,
        sample_objective_grad=sample_objective_grad,
        sample_constraints=sample_constraints,
        sample_constraint_jacobian=sample_constraint_jacobian,
    )


def make_per_sample_vertex_problem(seed, num_samples=8, dim=4):
    """Mean-normalized problem given only per-sample oracles, with a known KKT point.

    Sample j < dim's active constraint balances its own objective at x*, with
    multiplier lambda*_j; the other samples' constraints are slack. The active
    normals are orthonormal, so x* is a vertex at which LICQ holds. Returns
    (problem, x*, lambda* as an (num_samples, 1) matrix, largest sample weight).
    """
    rng = np.random.default_rng(seed)
    x_star = rng.normal(size=dim)
    normals = np.vstack([np.linalg.qr(rng.normal(size=(dim, dim)))[0], rng.normal(size=(num_samples - dim, dim))])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    lam = np.zeros(num_samples)
    lam[:dim] = rng.uniform(0.5, 1.5, size=dim)
    offsets = normals @ x_star
    offsets[dim:] += rng.uniform(0.5, 1.0, size=num_samples - dim)
    weights = rng.uniform(0.5, 1.5, size=num_samples)
    centers = x_star + lam[:, None] * normals / weights[:, None]
    problem = FiniteSumProblem(
        dim=dim, num_samples=num_samples, num_constraints=1, normalization="mean",
        sample_objective=lambda j, x: 0.5 * weights[j] * float((x - centers[j]) @ (x - centers[j])),
        sample_objective_grad=lambda j, x: weights[j] * (x - centers[j]),
        sample_constraints=lambda j, x: np.array([normals[j] @ x - offsets[j]]),
        sample_constraint_jacobian=lambda j, x: normals[j : j + 1],
    )
    return problem, x_star, lam.reshape(-1, 1), float(weights.max())


@pytest.fixture(scope="session")
def qps():
    return qp_registry()


@pytest.fixture(scope="session")
def qp_x_sq(qps):
    """min x^2 s.t. x >= 1 with x* = 1, lambda* = 2."""
    return qps["x_sq_ge_1"]


@pytest.fixture(scope="session")
def tiny_digits():
    """Small synthetic split pair for fast image-task tests."""
    return synthetic_digits(96, 32, rng_seed=5)


@pytest.fixture(scope="session")
def tiny_encdec():
    """Down-scaled encoder/decoder task whose exact gradients are cheap to audit."""
    rng = np.random.default_rng(11)
    images = np.clip(rng.random((12, 36)), 0.0, 1.0)
    labels = rng.integers(0, 10, size=12)

    from seqpen.tasks.data import ImageDataset

    ds = ImageDataset(images, labels, split="train")
    return build_enc_dec_task(ds, theta=0.01, hidden_dim=14, code_dim=6, decoder_hidden_dim=10)
