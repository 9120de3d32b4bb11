import numpy as np
import pytest

from seqpen import constraint_jacobian, elicq_check, kkt_residual
from seqpen.tasks.qp import QPCertificationError, build_analytic_qp, qp_registry


def test_registry_solutions():
    reg = qp_registry()
    assert reg["x_sq_ge_1"].x_star == pytest.approx([1.0])
    assert reg["x_sq_ge_1"].lambda_star == pytest.approx([2.0])
    assert reg["sum_ge_2"].x_star == pytest.approx([1.0, 1.0])
    assert reg["sum_ge_2"].lambda_star == pytest.approx([2.0])
    assert reg["inactive_box"].x_star == pytest.approx([0.5])
    assert reg["inactive_box"].lambda_star == pytest.approx([0.0])


def test_certification_holds(qps):
    for name, qp in qps.items():
        rep = kkt_residual(qp.problem, qp.x_star, qp.lambda_star.reshape(1, -1))
        assert rep.is_eps_kkt(1e-10), name
        assert elicq_check(qp.problem, qp.x_star, act_tol=1e-8).holds, name


def test_multi_constraint_certification():
    # min ||x - (2, 2)||^2 s.t. x <= 1 componentwise: solution (1, 1), multipliers (2, 2)
    qp = build_analytic_qp(2 * np.eye(2), [-4.0, -4.0], np.eye(2), [1.0, 1.0])
    assert qp.x_star == pytest.approx([1.0, 1.0])
    assert qp.lambda_star == pytest.approx([2.0, 2.0])


def test_non_positive_definite_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        build_analytic_qp([[0.0]], [1.0], [[1.0]], [1.0])


def test_infeasible_problem_rejected():
    # x <= -1 and x >= 1 cannot both hold
    with pytest.raises(QPCertificationError):
        build_analytic_qp([[2.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0])


def test_objective_and_lipschitz():
    qp = qp_registry()["x_sq_ge_1"]
    x = np.array([3.0])
    reference = 0.5 * x @ qp.Q @ x + qp.b @ x  # x^2
    assert reference == 9.0
    assert qp.problem.values([0], x)[0][0] == pytest.approx(reference)
    # eig_max(Q) + tau * ||a||^2 = 2 + 10
    assert qp.penalty_lipschitz(10.0) == pytest.approx(12.0)


def test_problem_batch_oracles_consistent():
    qp = qp_registry()["sum_ge_2"]
    prob = qp.problem
    x = np.array([0.3, -0.7])
    idx = np.array([0, 0, 0])
    f, g = prob.values(idx, x)
    assert np.allclose(f, np.full(3, 0.5 * x @ qp.Q @ x + qp.b @ x))
    assert np.allclose(g, np.tile(qp.A @ x - qp.c, (3, 1)))
    assert np.array_equal(prob.constraints(idx, x), g)
    obj_w = np.array([1.0, 2.0, 0.5])
    con_w = np.array([[0.1], [0.0], [2.0]])
    expected = sum(w * (qp.Q @ x + qp.b) + c[0] * qp.A[0] for w, c in zip(obj_w, con_w))
    assert np.allclose(prob.weighted_grad(idx, x, obj_w, con_w), expected)
    assert np.allclose(constraint_jacobian(prob, 0, x), qp.A)


@pytest.mark.parametrize("rows", [1, 3])
def test_batch_oracles_equal_the_tile_and_sum_reference_bit_for_bit(qps, rows):
    # the signed zeros check the one-row path where numpy's sum of -0.0 reads 0.0
    rng = np.random.default_rng(rows)
    idx = np.zeros(rows, dtype=int)
    for name, qp in qps.items():
        n, m = qp.dim, qp.A.shape[0]
        for x in (rng.normal(size=n), np.zeros(n), np.full(n, -0.0), qp.x_star):
            g = np.tile(qp.A @ x - qp.c, (rows, 1))
            assert qp.problem.batch_values(idx, x)[1].tobytes() == g.tobytes(), name
            for obj_w, con_w in (
                (rng.uniform(size=rows), rng.normal(size=(rows, m))),
                (np.full(rows, -0.0), np.full((rows, m), -0.0)),
                (np.ones(rows), lambda g: 4.0 * np.maximum(0.0, g)),
            ):
                con = con_w(g) if callable(con_w) else con_w
                want = float(np.sum(obj_w)) * (qp.Q @ x + qp.b) + con.sum(axis=0) @ qp.A
                out = np.empty(n)
                qp.problem.batch_weighted_grad(idx, x, obj_w, con_w, out)
                assert out.tobytes() == want.tobytes(), name
