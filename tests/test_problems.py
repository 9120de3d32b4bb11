from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from seqpen import (
    FiniteSumProblem,
    OracleError,
    PenaltySpec,
    constraint_values,
    epoch_batches,
    feasibility_stats,
    full_objective,
    kkt_residual,
    objective_grad_full,
    penalty_grad_full,
    penalty_value_full,
)
from seqpen.penalties import constraint_weights, penalty_grad_batch
from seqpen.problems import SPLIT_CHUNK
from gradcheck import central_diff_gradient, gradient_rel_error

from conftest import make_random_problem, make_scalar_problem


def test_full_objective_single_quadratic():
    prob = make_scalar_problem(lambda x: x * x, lambda x: 2 * x, lambda x: 1 - x, lambda x: -1.0)
    assert full_objective(prob, np.array([2.0])) == 4.0


def test_full_objective_zero_contributions():
    prob = make_scalar_problem(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0, lambda x: 0.0)
    assert full_objective(prob, np.array([3.0])) == 0.0


def test_full_objective_sum_vs_mean():
    # f_j(x) = j * x with j in {1, 2, 3}
    def build(norm):
        return FiniteSumProblem(
            dim=1,
            num_samples=3,
            num_constraints=1,
            sample_objective=lambda j, x: (j + 1) * x[0],
            sample_objective_grad=lambda j, x: np.array([j + 1.0]),
            sample_constraints=lambda j, x: np.array([-1.0]),
            sample_constraint_jacobian=lambda j, x: np.zeros((1, 1)),
            normalization=norm,
        )

    x = np.array([1.0])
    assert full_objective(build("sum"), x) == 6.0
    assert full_objective(build("mean"), x) == 2.0


def test_aggregation_linearity():
    prob = make_random_problem(dim=4, num_samples=7, num_constraints=2, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=4)
        total = full_objective(prob, x)
        mean = full_objective(replace(prob, normalization="mean"), x)
        assert total == pytest.approx(prob.num_samples * mean, rel=1e-12)


def test_dimension_mismatch_rejected():
    prob = make_scalar_problem(lambda x: x, lambda x: 1.0, lambda x: -x, lambda x: -1.0)
    with pytest.raises(ValueError, match="shape"):
        full_objective(prob, np.zeros(2))


def test_non_finite_objective_identifies_sample():
    def bad_objective(j, x):
        return float("nan") if j == 2 else 0.0

    prob = FiniteSumProblem(
        dim=1,
        num_samples=4,
        num_constraints=1,
        sample_objective=bad_objective,
        sample_objective_grad=lambda j, x: np.zeros(1),
        sample_constraints=lambda j, x: np.array([-1.0]),
        sample_constraint_jacobian=lambda j, x: np.zeros((1, 1)),
    )
    with pytest.raises(OracleError, match="sample 2"):
        full_objective(prob, np.zeros(1))


def test_feasibility_stats_count_only_violated_entries():
    prob = make_random_problem(dim=3, num_samples=5, num_constraints=2, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=3)
        g = constraint_values(prob, x)
        assert (g <= 0).any() and (g > 0).any()
        stats = feasibility_stats(prob, x)
        # a satisfied entry adds nothing to the violation, however slack it is
        assert stats.mean_violation == pytest.approx(g[g > 0].sum() / g.size, rel=1e-12)
        assert stats.max_violation == g.max()
        assert stats.satisfied_fraction == (g <= 0).mean()


def test_non_finite_constraint_identifies_entry():
    def bad_constraints(j, x):
        g = np.array([-1.0, -1.0])
        if j == 1:
            g[1] = np.inf
        return g

    prob = FiniteSumProblem(
        dim=1,
        num_samples=3,
        num_constraints=2,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(1),
        sample_constraints=bad_constraints,
        sample_constraint_jacobian=lambda j, x: np.zeros((2, 1)),
    )
    for full_pass in (constraint_values, lambda p, x: penalty_value_full(p, PenaltySpec("linear", 1.0), x)):
        with pytest.raises(OracleError, match="sample 1, constraint 1"):
            full_pass(prob, np.zeros(1))


def test_feasibility_stats_arithmetic():
    # Raw constraint values [0, 0.5, -0.3]: violations [0, 0.5, 0].
    vals = {0: 0.0, 1: 0.5, 2: -0.3}
    prob = FiniteSumProblem(
        dim=1,
        num_samples=3,
        num_constraints=1,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(1),
        sample_constraints=lambda j, x: np.array([vals[j]]),
        sample_constraint_jacobian=lambda j, x: np.zeros((1, 1)),
    )
    stats = feasibility_stats(prob, np.zeros(1), threshold_tol=0.0)
    assert stats.mean_violation == pytest.approx(0.1667, abs=1e-4)
    assert stats.satisfied_fraction == pytest.approx(2 / 3)
    assert stats.max_violation == 0.5


def test_feasibility_stats_all_feasible():
    prob = make_scalar_problem(lambda x: 0.0, lambda x: 0.0, lambda x: -x * x - 1, lambda x: -2 * x)
    stats = feasibility_stats(prob, np.array([1.0]))
    assert stats.mean_violation == 0.0
    assert stats.satisfied_fraction == 1.0


def test_oracle_gradients_match_finite_differences():
    prob = make_random_problem(dim=4, num_samples=6, num_constraints=2, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=4)
        fd = central_diff_gradient(lambda p: full_objective(prob, p), x)
        assert gradient_rel_error(objective_grad_full(prob, x), fd) <= 1e-5
        for j in range(prob.num_samples):
            fd_j = central_diff_gradient(lambda p: prob.sample_objective(j, p), x)
            assert gradient_rel_error(prob.sample_objective_grad(j, x), fd_j) <= 1e-5
            jac = np.asarray(prob.sample_constraint_jacobian(j, x))
            for i in range(prob.num_constraints):
                fd_c = central_diff_gradient(lambda p: prob.sample_constraints(j, p)[i], x)
                assert gradient_rel_error(jac[i], fd_c) <= 1e-5


def test_epoch_batches_partition():
    rng = np.random.default_rng(0)
    batches = epoch_batches(103, 16, rng)
    sizes = [b.size for b in batches]
    assert sizes == [16] * 6 + [7]
    combined = np.concatenate(batches)
    assert np.array_equal(np.sort(combined), np.arange(103))
    for b in batches:
        assert np.unique(b).size == b.size


# ---------------------------------------------------------------------------
# the three batch methods over per-sample and batch oracles


@pytest.fixture
def twins():
    """The same problem given as per-sample oracles and as batch oracles."""
    return [make_random_problem(dim=4, num_samples=6, num_constraints=3, seed=41, oracles=o) for o in ("sample", "batch")]


def test_methods_agree_on_per_sample_and_batch_twins(twins):
    per_sample, batched = twins
    assert per_sample.batch_weighted_grad is None and batched.sample_objective_grad is None
    rng = np.random.default_rng(42)
    idx = np.array([5, 0, 3, 3, 1])
    for _ in range(5):
        x = rng.normal(size=4)
        obj_w = rng.normal(size=idx.size)
        con_w = rng.normal(size=(idx.size, 3))
        (f, g), (f_batched, g_batched) = per_sample.values(idx, x), batched.values(idx, x)
        assert f.shape == (idx.size,) and g.shape == (idx.size, 3)
        assert np.abs(f - f_batched).max() <= 1e-12
        assert np.abs(g - g_batched).max() <= 1e-12
        assert np.array_equal(per_sample.constraints(idx, x), g)
        assert np.array_equal(batched.constraints(idx, x), g_batched)
        array_form = per_sample.weighted_grad(idx, x, obj_w, con_w)
        assert np.abs(array_form - batched.weighted_grad(idx, x, obj_w, con_w)).max() <= 1e-12

        seen = []

        def weights(g_batch):
            seen.append(g_batch.copy())
            return 2.0 * np.maximum(0.0, g_batch)

        fn_form = [prob.weighted_grad(idx, x, obj_w, weights) for prob in twins]
        assert len(seen) == 2
        assert np.abs(seen[0] - seen[1]).max() <= 1e-12
        assert np.abs(fn_form[0] - fn_form[1]).max() <= 1e-12
        assert np.array_equal(fn_form[0], per_sample.weighted_grad(idx, x, obj_w, weights(g)))


def test_per_sample_weighted_grad_calls_only_weighted_oracles():
    calls = []
    prob = FiniteSumProblem(
        dim=2,
        num_samples=3,
        num_constraints=2,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: calls.append(("f", j)) or np.array([1.0, 0.0]),
        sample_constraints=lambda j, x: np.zeros(2),
        sample_constraint_jacobian=lambda j, x: calls.append(("g", j)) or np.eye(2),
    )
    con_w = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    got = prob.weighted_grad(np.arange(3), np.zeros(2), np.array([0.0, 2.0, 0.0]), con_w)
    assert np.array_equal(got, [2.0, 3.0])
    assert calls == [("f", 1), ("g", 2)]


def test_gradient_written_into_a_caller_buffer_equals_the_fresh_array(tiny_encdec, qp_x_sq):
    # the image task's and a QP's batch oracles, and the per-sample fallback
    per_sample = make_random_problem(dim=4, num_samples=6, num_constraints=3, seed=41, oracles="sample")
    rng = np.random.default_rng(8)
    cases = [
        (tiny_encdec.problem, tiny_encdec.model.init_params(rng), np.array([3, 0, 7, 7])),
        (qp_x_sq.problem, np.array([0.4]), np.array([0, 0])),
        (per_sample, rng.normal(size=4), np.array([5, 0, 3, 3, 1])),
    ]
    for prob, x, idx in cases:
        obj_w = rng.uniform(0.5, 1.5, size=idx.size)
        con_w = rng.uniform(0.0, 2.0, size=(idx.size, prob.num_constraints))
        for weights in (con_w, lambda g: 3.0 * np.maximum(0.0, g) + 0.5):
            fresh = prob.weighted_grad(idx, x, obj_w, weights)
            out = np.full(prob.dim, np.nan)
            assert prob.weighted_grad(idx, x, obj_w, weights, out=out) is out
            assert out.tobytes() == fresh.tobytes()
        # the penalty gradient, as the practical inner run asks for it
        spec = PenaltySpec("linear", 5.0)
        out = np.full(prob.dim, np.nan)
        assert penalty_grad_batch(prob, spec, idx, x, out=out) is out
        assert out.tobytes() == penalty_grad_batch(prob, spec, idx, x).tobytes()


def test_constraint_jacobian_rows_match_per_sample_oracle(twins):
    from seqpen import constraint_jacobian

    per_sample, batched = twins
    x = np.random.default_rng(43).normal(size=4)
    for j in range(per_sample.num_samples):
        expected = per_sample.sample_constraint_jacobian(j, x)
        assert np.array_equal(constraint_jacobian(per_sample, j, x), expected)
        assert np.abs(constraint_jacobian(batched, j, x) - expected).max() <= 1e-12


@pytest.mark.parametrize(
    "missing, quantity",
    [
        ("sample_objective", "values"),
        ("sample_constraints", "values"),
        ("sample_objective_grad", "weighted_grad"),
        ("sample_constraint_jacobian", "weighted_grad"),
    ],
)
def test_problem_without_a_source_for_a_quantity_is_rejected(missing, quantity):
    oracles = dict(
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(1),
        sample_constraints=lambda j, x: np.array([-1.0]),
        sample_constraint_jacobian=lambda j, x: np.zeros((1, 1)),
    )
    FiniteSumProblem(dim=1, num_samples=2, num_constraints=1, **oracles)
    del oracles[missing]
    with pytest.raises(ValueError, match=f"no oracle for {quantity}"):
        FiniteSumProblem(dim=1, num_samples=2, num_constraints=1, **oracles)
    with pytest.raises(ValueError, match="no oracle for values, weighted_grad"):
        FiniteSumProblem(dim=1, num_samples=2, num_constraints=1)


# ---------------------------------------------------------------------------
# whole-split gradients in SPLIT_CHUNK-row oracle calls


def _recording(problem):
    """``problem`` whose batch gradient oracle records each call's rows and each weight-function call's g."""
    calls, mapped = [], []
    oracle = problem.batch_weighted_grad

    def batch_weighted_grad(indices, x, obj_w, con_w, out):
        calls.append(np.array(indices))
        if callable(con_w):
            weights_of_g = con_w
            con_w = lambda g: mapped.append(g.copy()) or weights_of_g(g)
        oracle(indices, x, obj_w, con_w, out)

    return replace(problem, batch_weighted_grad=batch_weighted_grad), calls, mapped


def _one_call(problem, x, obj_w, con_w):
    """The whole-split sum as one ``weighted_grad`` call, as before chunking."""
    return problem.agg_scale * problem.weighted_grad(np.arange(problem.num_samples), x, obj_w, con_w)


def _whole_split_gradients(problem, x, lam, spec):
    """(chunked, one-call) pairs of the three whole-split gradients; the KKT one as its norm."""
    n, m = problem.num_samples, problem.num_constraints
    return [
        (penalty_grad_full(problem, spec, x), _one_call(problem, x, np.ones(n), partial(constraint_weights, spec))),
        (objective_grad_full(problem, x), _one_call(problem, x, np.ones(n), np.zeros((n, m)))),
        (kkt_residual(problem, x, lam).stationarity_residual, np.linalg.norm(_one_call(problem, x, np.ones(n), lam))),
    ]


@pytest.mark.parametrize("normalization", ["sum", "mean"])
@pytest.mark.parametrize("num_samples", [1, 127, SPLIT_CHUNK])
def test_whole_split_gradients_of_at_most_one_chunk_are_one_call_and_bit_identical(num_samples, normalization):
    prob, calls, mapped = _recording(
        make_random_problem(dim=3, num_samples=num_samples, num_constraints=2, seed=91,
                            normalization=normalization, oracles="batch")
    )
    rng = np.random.default_rng(92)
    x, lam = rng.normal(size=3), np.abs(rng.normal(size=(num_samples, 2)))
    for chunked, whole in _whole_split_gradients(prob, x, lam, PenaltySpec("quadratic", 3.0)):
        assert np.array_equal(chunked, whole)
    # penalty, objective and KKT term, then the three one-call references
    assert len(calls) == 6 and all(np.array_equal(c, np.arange(num_samples)) for c in calls)
    assert len(mapped) == 2


@pytest.mark.parametrize("oracles", ["batch", "sample"])
@pytest.mark.parametrize("normalization", ["sum", "mean"])
def test_whole_split_gradients_run_in_chunks_that_map_their_own_g_once(oracles, normalization):
    n = 2 * SPLIT_CHUNK + 44
    prob = make_random_problem(dim=4, num_samples=n, num_constraints=2, seed=93, normalization=normalization,
                               oracles=oracles)
    if oracles == "batch":
        prob, calls, mapped = _recording(prob)
    rng = np.random.default_rng(94)
    x, lam = rng.normal(size=4), np.abs(rng.normal(size=(n, 2)))
    spec = PenaltySpec("linear", 2.0)
    for chunked, whole in _whole_split_gradients(prob, x, lam, spec):
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()
    if oracles == "batch":
        chunks = [np.arange(lo, min(lo + SPLIT_CHUNK, n)) for lo in range(0, n, SPLIT_CHUNK)]
        # three chunked gradients, each followed by its one-call reference
        expected = [c for _ in range(3) for c in chunks + [np.arange(n)]]
        assert len(calls) == len(expected) and all(np.array_equal(a, b) for a, b in zip(calls, expected))
        # the penalty's weight function maps each chunk's own g, once per call
        assert [g.shape for g in mapped] == [(c.size, 2) for c in chunks] + [(n, 2)]
        assert np.array_equal(np.vstack(mapped[:3]), mapped[3])
    # tau = 0 passes sliced zero weights: the objective gradient, bit for bit
    assert np.array_equal(penalty_grad_full(prob, PenaltySpec("linear", 0.0), x), objective_grad_full(prob, x))
