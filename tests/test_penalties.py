from dataclasses import replace

import numpy as np
import pytest

from seqpen import (
    PenaltySpec,
    constraint_values,
    full_objective,
    multiplier_estimate,
    penalty_grad_full,
    penalty_value_full,
    violation_vector,
)
from gradcheck import central_diff_gradient, gradient_rel_error
from seqpen.penalties import constraint_weights, penalty_grad_batch, penalty_value_from_values

from conftest import make_random_problem, make_scalar_problem


@pytest.fixture
def qp1d():
    # f = x^2, g = 1 - x (the constraint x >= 1)
    return make_scalar_problem(lambda x: x * x, lambda x: 2 * x, lambda x: 1 - x, lambda x: -1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec("cubic", 1.0)
    with pytest.raises(ValueError):
        PenaltySpec("quadratic", -1.0)
    assert PenaltySpec("linear", 0.0).tau == 0.0


def penalty_value_sample(prob, spec, j, x):
    """Penalty term p_j(x) of one sample."""
    f, g = prob.objective([j], x), prob.constraints([j], x)
    return penalty_value_from_values(replace(prob, normalization="sum"), spec, f, g)


def test_penalty_value_sample_hand_cases(qp1d):
    x0 = np.array([0.0])
    assert penalty_value_sample(qp1d, PenaltySpec("quadratic", 2.0), 0, x0) == pytest.approx(1.0)
    assert penalty_value_sample(qp1d, PenaltySpec("linear", 2.0), 0, x0) == pytest.approx(2.0)
    feasible = np.array([2.0])
    for kind in ("quadratic", "linear"):
        assert penalty_value_sample(qp1d, PenaltySpec(kind, 2.0), 0, feasible) == pytest.approx(4.0)


def test_penalty_value_full_cases(qp1d):
    assert penalty_value_full(qp1d, PenaltySpec("quadratic", 2.0), np.array([0.0])) == pytest.approx(1.0)
    # doubling tau doubles the violation term at a fixed infeasible point
    assert penalty_value_full(qp1d, PenaltySpec("quadratic", 4.0), np.array([0.0])) == pytest.approx(2.0)
    x = np.array([3.0])
    for kind in ("quadratic", "linear"):
        assert penalty_value_full(qp1d, PenaltySpec(kind, 17.0), x) == full_objective(qp1d, x)


def test_penalty_grad_sample_hand_cases(qp1d):
    x0 = np.array([0.0])
    assert penalty_grad_batch(qp1d, PenaltySpec("quadratic", 2.0), [0], x0)[0] == pytest.approx(-2.0)
    assert penalty_grad_batch(qp1d, PenaltySpec("linear", 2.0), [0], x0)[0] == pytest.approx(-2.0)
    assert penalty_grad_batch(qp1d, PenaltySpec("quadratic", 2.0), [0], np.array([2.0]))[0] == pytest.approx(4.0)


def test_multiplier_estimate_cases(qp1d):
    spec = PenaltySpec("quadratic", 2.0)
    assert multiplier_estimate(qp1d, spec, np.array([0.0]))[0, 0] == pytest.approx(2.0)
    assert multiplier_estimate(qp1d, spec, np.array([2.0]))[0, 0] == 0.0
    # linear kind applies tau itself wherever the constraint is violated
    assert multiplier_estimate(qp1d, PenaltySpec("linear", 3.0), np.array([0.0]))[0, 0] == pytest.approx(3.0)


def test_multiplier_estimate_properties():
    prob = make_random_problem(dim=3, num_samples=5, num_constraints=2, seed=7)
    rng = np.random.default_rng(8)
    for kind in ("quadratic", "linear"):
        spec = PenaltySpec(kind, 3.5)
        for _ in range(5):
            x = rng.normal(size=3)
            lam = multiplier_estimate(prob, spec, x)
            v = violation_vector(prob, x)
            assert (lam >= 0).all()
            assert np.all(lam[v == 0] == 0.0)


def test_penalty_dominates_objective_with_equality_iff_feasible():
    prob = make_random_problem(dim=3, num_samples=4, num_constraints=2, seed=9)
    rng = np.random.default_rng(10)
    for kind in ("quadratic", "linear"):
        spec = PenaltySpec(kind, 2.5)
        for _ in range(10):
            x = rng.normal(size=3)
            p = penalty_value_full(prob, spec, x)
            f = full_objective(prob, x)
            feasible = violation_vector(prob, x).max() == 0.0
            assert p >= f - 1e-12
            if feasible:
                assert p == pytest.approx(f, abs=1e-12)
            else:
                assert p > f


def test_penalty_monotone_in_tau_at_infeasible_point():
    prob = make_random_problem(dim=3, num_samples=4, num_constraints=2, seed=11)
    rng = np.random.default_rng(12)
    taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    found_infeasible = 0
    for _ in range(20):
        x = rng.normal(size=3)
        if violation_vector(prob, x).max() == 0.0:
            continue
        found_infeasible += 1
        for kind in ("quadratic", "linear"):
            vals = [penalty_value_full(prob, PenaltySpec(kind, t), x) for t in taus]
            assert all(b > a for a, b in zip(vals, vals[1:]))
    assert found_infeasible >= 5


def test_penalty_grad_matches_finite_differences():
    prob = make_random_problem(dim=4, num_samples=5, num_constraints=2, seed=13)
    rng = np.random.default_rng(14)
    spec_q = PenaltySpec("quadratic", 3.0)
    spec_l = PenaltySpec("linear", 3.0)
    checked_linear = 0
    for _ in range(10):
        x = rng.normal(size=4)
        fd = central_diff_gradient(lambda p: penalty_value_full(prob, spec_q, p), x)
        assert gradient_rel_error(penalty_grad_full(prob, spec_q, x), fd) <= 1e-5
        # the linear kind is only differentiable away from the kinks g = 0
        g = constraint_values(prob, x)
        if np.abs(g).min() > 1e-3:
            fd = central_diff_gradient(lambda p: penalty_value_full(prob, spec_l, p), x)
            assert gradient_rel_error(penalty_grad_full(prob, spec_l, x), fd) <= 1e-5
            checked_linear += 1
    assert checked_linear >= 5


def test_quadratic_gradient_continuous_across_boundary():
    prob = make_scalar_problem(lambda x: x * x, lambda x: 2 * x, lambda x: 1 - x, lambda x: -1.0)
    spec = PenaltySpec("quadratic", 2.0)
    delta = 1e-10
    inside = penalty_grad_full(prob, spec, np.array([1.0 - delta]))[0]
    outside = penalty_grad_full(prob, spec, np.array([1.0 + delta]))[0]
    assert abs(inside - outside) <= 1e-8


def test_penalty_grad_batch_consistent_with_samples():
    spec = PenaltySpec("quadratic", 1.5)
    x = np.random.default_rng(16).normal(size=3)
    batch = np.array([0, 2, 2, 5])
    prob = make_random_problem(dim=3, num_samples=6, num_constraints=2, seed=15)
    # per sample: grad f_j + sum_i tau * max(0, g_ij) * grad g_ij
    expected = sum(
        prob.sample_objective_grad(j, x)
        + constraint_weights(spec, prob.sample_constraints(j, x)) @ prob.sample_constraint_jacobian(j, x)
        for j in batch
    )
    for oracles in ("sample", "batch"):
        prob = make_random_problem(dim=3, num_samples=6, num_constraints=2, seed=15, oracles=oracles)
        assert np.allclose(penalty_grad_batch(prob, spec, batch, x), expected, atol=1e-12)


def _two_pass_grad(prob, spec, idx, x):
    """The reference the fused path must reproduce: constraint values first, then the weighted gradient."""
    g = prob.constraints(idx, x)
    return prob.weighted_grad(idx, x, np.ones(idx.size), constraint_weights(spec, g))


@pytest.mark.parametrize("kind", ["quadratic", "linear"])
@pytest.mark.parametrize("tau", [0.0, 7.0])
def test_fused_penalty_grad_batch_matches_two_pass(tiny_encdec, qps, kind, tau):
    spec = PenaltySpec(kind, tau)
    enc = tiny_encdec.problem
    params = tiny_encdec.model.init_params(np.random.default_rng(3))
    qp = qps["sum_ge_2"].problem
    cases = [
        (enc, np.array([0, 3, 3, 7, 11]), params),
        (qp, np.array([0, 0, 0]), np.array([0.2, -0.4])),
    ]
    for prob, idx, x in cases:
        fused = penalty_grad_batch(prob, spec, idx, x)
        assert np.array_equal(fused, _two_pass_grad(prob, spec, idx, x))
    # the encoder/decoder case must actually exercise active constraint weights
    g = enc.constraints(np.arange(enc.num_samples), params)
    assert (g > 0).any()


def test_zero_tau_penalty_grad_calls_no_constraint_oracle(tiny_encdec, qps):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)

        return wrapped

    params = tiny_encdec.model.init_params(np.random.default_rng(4))
    per_sample = make_random_problem(dim=2, num_samples=3, num_constraints=2, seed=17)
    cases = [
        (tiny_encdec.problem, "batch_constraints", params),
        (qps["x_sq_ge_1"].problem, "batch_constraints", np.array([0.0])),
        (per_sample, "sample_constraints", np.array([0.3, -0.2])),
    ]
    for prob, field, x in cases:
        counted = replace(prob, **{field: counting(getattr(prob, field))})
        got = penalty_grad_batch(counted, PenaltySpec("linear", 0.0), np.arange(prob.num_samples), x)
        assert np.array_equal(got, _two_pass_grad(prob, PenaltySpec("linear", 0.0), np.arange(prob.num_samples), x))
    assert calls == []


def test_weighted_grad_weight_function_sees_constraint_values(tiny_encdec):
    prob = tiny_encdec.problem
    params = tiny_encdec.model.init_params(np.random.default_rng(5))
    idx = np.array([1, 4, 6])
    seen = []

    def weights(g):
        seen.append(g.copy())
        return np.full(g.shape, 2.0)

    fused = prob.weighted_grad(idx, params, np.ones(3), weights)
    assert len(seen) == 1
    assert np.array_equal(seen[0], prob.constraints(idx, params))
    assert np.array_equal(fused, prob.weighted_grad(idx, params, np.ones(3), np.full((3, 1), 2.0)))


def test_penalty_grad_batch_objective_weights_are_read_only():
    # an oracle that writes its weight arguments fails loudly instead of
    # changing the weights of every later batch of the same size
    def weighted_grad(indices, x, obj_w, con_w, out):
        obj_w *= 2.0
        out.fill(0.0)

    prob = make_random_problem(2, 4, 1, seed=0, oracles="batch")
    prob = replace(prob, batch_weighted_grad=weighted_grad)
    with pytest.raises(ValueError, match="read-only"):
        penalty_grad_batch(prob, PenaltySpec("quadratic", 1.0), np.arange(3), np.zeros(2))
