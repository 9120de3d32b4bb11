import tracemalloc

import numpy as np
import pytest

from seqpen import (
    FiniteSumProblem,
    PenaltySpec,
    elicq_check,
    kkt_residual,
    multiplier_estimate,
    penalty_grad_full,
    sgc_estimate,
    smoothness_estimate,
    suggested_stepsize,
)
from seqpen.diagnostics import SmoothnessEstimate, _probe_points
from seqpen.penalties import penalty_grad_batch
from seqpen.problems import constraint_jacobian, constraint_values, objective_grad_full
from seqpen.tasks.qp import qp_registry

from conftest import make_per_sample_vertex_problem, make_random_problem, make_scalar_problem


def constant_grad_problem(grads, constraints=None, normalization="mean"):
    """Linear per-sample objectives with fixed gradients; optional constant constraints."""
    grads = [np.asarray(g, dtype=float) for g in grads]
    dim = grads[0].size
    if constraints is None:
        constraints = [np.array([-1.0])] * len(grads)

    return FiniteSumProblem(
        dim=dim,
        num_samples=len(grads),
        num_constraints=constraints[0].size,
        sample_objective=lambda j, x: float(grads[j] @ x),
        sample_objective_grad=lambda j, x: grads[j],
        sample_constraints=lambda j, x: constraints[j],
        sample_constraint_jacobian=lambda j, x: np.zeros((constraints[j].size, dim)),
        normalization=normalization,
    )


# ---------------------------------------------------------------------------
# KKT residuals


def test_kkt_zero_at_analytic_solution(qp_x_sq):
    rep = kkt_residual(qp_x_sq.problem, np.array([1.0]), np.array([[2.0]]))
    assert rep.stationarity_residual <= 1e-12
    assert rep.feasibility_residual == 0.0
    assert rep.complementarity_residual <= 1e-12
    assert rep.dual_feasibility
    assert rep.is_eps_kkt(1e-10)


def test_kkt_perturbed_multiplier(qp_x_sq):
    rep = kkt_residual(qp_x_sq.problem, np.array([1.0]), np.array([[3.0]]))
    # stationarity |2 * 1 + 3 * (-1)| = 1
    assert rep.stationarity_residual == pytest.approx(1.0)


def test_kkt_unconstrained_minimum_with_slack_constraints():
    prob = make_scalar_problem(lambda x: (x - 2) ** 2, lambda x: 2 * (x - 2), lambda x: x - 10, lambda x: 1.0)
    rep = kkt_residual(prob, np.array([0.0]), np.zeros((1, 1)))
    assert rep.stationarity_residual == pytest.approx(4.0)
    assert rep.complementarity_residual == 0.0
    assert rep.feasibility_residual == 0.0
    assert rep.dual_feasibility


def test_kkt_rejects_negative_multiplier(qp_x_sq):
    rep = kkt_residual(qp_x_sq.problem, np.array([1.0]), np.array([[-0.5]]))
    assert not rep.dual_feasibility


@pytest.mark.parametrize("normalization", ["sum", "mean"])
def test_stationarity_equals_penalty_gradient_identity(normalization):
    prob = make_random_problem(dim=4, num_samples=5, num_constraints=2, seed=31, normalization=normalization)
    spec = PenaltySpec("quadratic", 7.0)
    rng = np.random.default_rng(32)
    for _ in range(6):
        x = rng.normal(size=4)
        lam = multiplier_estimate(prob, spec, x)
        rep = kkt_residual(prob, x, lam)
        assert rep.stationarity_residual == pytest.approx(
            float(np.linalg.norm(penalty_grad_full(prob, spec, x))), abs=1e-12
        )


# ---------------------------------------------------------------------------
# E-LICQ


def test_elicq_excludes_slack_constraints():
    vals = np.array([0.0, 0.5, -0.5])

    prob = FiniteSumProblem(
        dim=2,
        num_samples=1,
        num_constraints=3,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(2),
        sample_constraints=lambda j, x: vals,
        sample_constraint_jacobian=lambda j, x: np.eye(3, 2),
    )
    rep = elicq_check(prob, np.zeros(2), act_tol=1e-6)
    # the active row g = 0 and the violated row g = 0.5 count; the slack row g = -0.5 does not
    assert rep.num_active_plus == 2
    assert rep.holds


def test_elicq_single_nonzero_gradient():
    prob = FiniteSumProblem(
        dim=2,
        num_samples=1,
        num_constraints=1,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(2),
        sample_constraints=lambda j, x: np.array([0.5]),  # violated
        sample_constraint_jacobian=lambda j, x: np.array([[1.0, 0.0]]),
    )
    rep = elicq_check(prob, np.zeros(2))
    assert rep.holds
    assert rep.num_active_plus == 1
    assert rep.min_singular_value == pytest.approx(1.0)


def test_elicq_duplicate_gradients_fail():
    prob = FiniteSumProblem(
        dim=2,
        num_samples=1,
        num_constraints=2,
        sample_objective=lambda j, x: 0.0,
        sample_objective_grad=lambda j, x: np.zeros(2),
        sample_constraints=lambda j, x: np.array([0.5, 0.5]),
        sample_constraint_jacobian=lambda j, x: np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    rep = elicq_check(prob, np.zeros(2))
    assert not rep.holds
    assert rep.num_active_plus == 2


def test_elicq_vacuous_when_strictly_feasible():
    prob = make_scalar_problem(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0, lambda x: 0.0)
    rep = elicq_check(prob, np.zeros(1))
    assert rep.holds
    assert rep.num_active_plus == 0
    assert np.isinf(rep.min_singular_value)


def test_elicq_invariant_under_constraint_permutation():
    rows = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
    vals = np.array([0.2, 0.1])

    def build(order):
        return FiniteSumProblem(
            dim=3,
            num_samples=1,
            num_constraints=2,
            sample_objective=lambda j, x: 0.0,
            sample_objective_grad=lambda j, x: np.zeros(3),
            sample_constraints=lambda j, x: vals[order],
            sample_constraint_jacobian=lambda j, x: rows[order],
        )

    rep_a = elicq_check(build(np.array([0, 1])), np.zeros(3))
    rep_b = elicq_check(build(np.array([1, 0])), np.zeros(3))
    assert rep_a.holds == rep_b.holds
    assert rep_a.min_singular_value == pytest.approx(rep_b.min_singular_value)


# ---------------------------------------------------------------------------
# smoothness estimation


@pytest.fixture
def one_d_constrained():
    # f = x^2, g = 1 - x on [0, 2]
    return make_scalar_problem(lambda x: x * x, lambda x: 2 * x, lambda x: 1 - x, lambda x: -1.0)


def test_smoothness_hand_case(one_d_constrained):
    est = smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 3.0), (0.0, 2.0), num_probes=12, rng_seed=0)
    assert est.grad_sup[0, 0] == pytest.approx(1.0)
    assert est.violation_sup[0, 0] == pytest.approx(1.0)  # attained at the box corner x = 0
    assert est.objective_lipschitz == pytest.approx(2.0)
    assert est.constraint_lipschitz[0, 0] == pytest.approx(0.0, abs=1e-12)
    # composed bound: Lf + tau * (M1^2 + M2 * Lg) = 2 + 3 * 1 = 5
    assert est.penalty_lipschitz == pytest.approx(5.0)


def test_smoothness_tau_zero_reduces_to_objective(one_d_constrained):
    est = smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 0.0), (0.0, 2.0), num_probes=8, rng_seed=0)
    assert est.penalty_lipschitz == pytest.approx(est.objective_lipschitz)


def test_smoothness_monotone_in_tau_and_box(one_d_constrained):
    taus = [0.5, 1.0, 2.0, 4.0]
    ls = [
        smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", t), (0.0, 2.0), num_probes=10, rng_seed=3).penalty_lipschitz
        for t in taus
    ]
    assert all(b > a for a, b in zip(ls, ls[1:]))
    small = smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 2.0), (0.0, 2.0), num_probes=10, rng_seed=3)
    large = smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 2.0), (-2.0, 4.0), num_probes=10, rng_seed=3)
    assert large.penalty_lipschitz >= small.penalty_lipschitz


def test_smoothness_composition_identity():
    prob = make_random_problem(dim=3, num_samples=4, num_constraints=2, seed=33)
    spec = PenaltySpec("quadratic", 5.0)
    est = smoothness_estimate(prob, spec, (-1.0, 1.0), num_probes=8, rng_seed=1)
    composed = est.objective_lipschitz + spec.tau * prob.agg_scale * float(
        (est.grad_sup**2 + est.violation_sup * est.constraint_lipschitz).sum()
    )
    assert est.penalty_lipschitz == pytest.approx(composed, rel=1e-12)


def test_smoothness_degenerate_box_rejected(one_d_constrained):
    with pytest.raises(ValueError, match="degenerate"):
        smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="num_probes"):
        smoothness_estimate(one_d_constrained, PenaltySpec("quadratic", 1.0), (0.0, 1.0), num_probes=1)


def _two_branch_probe_points(lo, hi, num_probes, rng):
    """The probe set as first written, with a branch for the corners-only case."""
    pts = [lo, hi]
    if num_probes > 2:
        pts.append(lo + (hi - lo) * rng.random((num_probes - 2, lo.size)))
        return np.vstack([np.atleast_2d(p) for p in pts])
    return np.vstack([lo, hi])


@pytest.mark.parametrize("num_probes", [2, 6, 16])
def test_probe_points_are_bit_identical_to_the_two_branch_form(num_probes):
    lo, hi = np.array([-1.0, 0.0, 2.5]), np.array([1.0, 0.5, 4.0])
    probes = _probe_points(lo, hi, num_probes, np.random.default_rng(7))
    expected = _two_branch_probe_points(lo, hi, num_probes, np.random.default_rng(7))
    assert probes.shape == (num_probes, 3)
    assert probes.tobytes() == expected.tobytes()


def test_suggested_stepsize_uses_safety():
    est = SmoothnessEstimate(
        objective_lipschitz=2.0,
        grad_sup=np.zeros((1, 1)),
        violation_sup=np.zeros((1, 1)),
        constraint_lipschitz=np.zeros((1, 1)),
        penalty_lipschitz=4.0,
        tau=1.0,
    )
    assert suggested_stepsize(est) == pytest.approx(1.0 / 8.0)
    assert suggested_stepsize(est, rho=2.0, safety=1.0) == pytest.approx(1.0 / 8.0)


# ---------------------------------------------------------------------------
# strong-growth estimation


def test_sgc_single_sample_is_one():
    prob = constant_grad_problem([np.array([2.0, 1.0])], normalization="sum")
    est = sgc_estimate(prob, PenaltySpec("quadratic", 1.0), [np.zeros(2), np.ones(2)])
    assert est.rho_est == pytest.approx(1.0)


def test_sgc_hand_computed_two_sample_case():
    # per-sample gradients (2, 0) and (0, 0); mean gradient (1, 0)
    prob = constant_grad_problem([np.array([2.0, 0.0]), np.array([0.0, 0.0])])
    est = sgc_estimate(prob, PenaltySpec("quadratic", 1.0), [np.zeros(2)])
    assert est.rho_est == pytest.approx(2.0)


def test_sgc_interpolation_case_is_one():
    prob = constant_grad_problem([np.array([1.0, 2.0]), np.array([1.0, 2.0])])
    est = sgc_estimate(prob, PenaltySpec("quadratic", 1.0), [np.zeros(2)])
    assert est.rho_est == pytest.approx(1.0)


def test_sgc_ratio_invariant_to_normalization():
    grads = [np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    probe = [np.zeros(2)]
    spec = PenaltySpec("quadratic", 1.0)
    est_mean = sgc_estimate(constant_grad_problem(grads, normalization="mean"), spec, probe)
    est_sum = sgc_estimate(constant_grad_problem(grads, normalization="sum"), spec, probe)
    assert est_mean.rho_est == pytest.approx(est_sum.rho_est)


def quadratic_pair_problem(signs):
    """Two-sample problem with f_j = signs[j] * 0.5 ||x||^2 (+ x_1 shift on sample 1)."""

    def grad(j, x):
        g = signs[j] * x.astype(float)
        if j == 1:
            g = g - np.array([1.0, 0.0])
        return g

    return FiniteSumProblem(
        dim=2,
        num_samples=2,
        num_constraints=1,
        sample_objective=lambda j, x: signs[j] * 0.5 * float(x @ x) - (x[0] if j == 1 else 0.0),
        sample_objective_grad=grad,
        sample_constraints=lambda j, x: np.array([-1.0]),
        sample_constraint_jacobian=lambda j, x: np.zeros((1, 2)),
        normalization="mean",
    )


def test_sgc_skips_stationary_probes_and_errors_when_all_skipped():
    spec = PenaltySpec("quadratic", 1.0)
    # mean gradient is x - (0.5, 0): stationary exactly at (0.5, 0)
    prob = quadratic_pair_problem([1.0, 1.0])
    with pytest.warns(RuntimeWarning, match="near-zero"):
        est = sgc_estimate(prob, spec, [np.array([0.5, 0.0]), np.array([2.0, 1.0])])
    assert est.num_skipped == 1
    assert len(est.ratios) == 1
    with pytest.raises(ValueError, match="no ratio"):
        with pytest.warns(RuntimeWarning):
            sgc_estimate(prob, spec, [np.array([0.5, 0.0])])


def test_sgc_at_least_one_on_random_problems():
    prob = make_random_problem(dim=3, num_samples=6, num_constraints=2, seed=35, normalization="mean")
    spec = PenaltySpec("quadratic", 2.0)
    rng = np.random.default_rng(36)
    probes = [rng.normal(size=3) for _ in range(8)]
    est = sgc_estimate(prob, spec, probes)
    assert est.rho_est >= 1.0 - 1e-12
    assert all(r >= 1.0 - 1e-12 for r in est.ratios)


def _stacked_rho(problem, spec, probes):
    """The strong-growth ratio from every per-sample gradient stacked as an N x dim array."""
    ratios = []
    for x in probes:
        per_sample = np.stack([penalty_grad_batch(problem, spec, [j], x) for j in range(problem.num_samples)])
        full = problem.agg_scale * per_sample.sum(axis=0)
        mean_sq = float((per_sample * per_sample).sum()) / problem.num_samples * problem.estimator_scale(1) ** 2
        ratios.append(mean_sq / float(full @ full))
    return max(ratios)


def test_sgc_matches_the_stacked_formula_on_the_tier1_problems(qps):
    problems = [qp.problem for _, qp in sorted(qps.items())]
    problems += [make_random_problem(dim=3, num_samples=6, num_constraints=2, seed=71, normalization=norm, oracles=o)
                 for norm in ("sum", "mean") for o in ("sample", "batch")]
    problems.append(make_per_sample_vertex_problem(72)[0])
    rng = np.random.default_rng(73)
    for prob in problems:
        for spec in (PenaltySpec("quadratic", 2.0), PenaltySpec("linear", 2.0)):
            probes = [rng.normal(size=prob.dim) for _ in range(3)]
            assert sgc_estimate(prob, spec, probes).rho_est == pytest.approx(_stacked_rho(prob, spec, probes), rel=1e-12)


def test_sgc_holds_two_parameter_size_buffers():
    # f_j = a_j ||x||^2 / 2 and g_j = s_j x_0 - 1, from a batch oracle that
    # writes its sum into out and allocates nothing of size dim. sgc_estimate
    # then holds the running sum and one sample's gradient (0.4 MB each);
    # stacking the 300 per-sample gradients took 120 MB.
    dim, n = 50_000, 300
    rng = np.random.default_rng(74)
    a, s = rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)

    def constraint_rows(indices, x):
        return (s[indices] * x[0] - 1.0).reshape(-1, 1)

    def batch_weighted_grad(indices, x, obj_w, con_w, out):
        if callable(con_w):
            con_w = con_w(constraint_rows(indices, x))
        np.multiply(x, float(np.asarray(obj_w) @ a[indices]), out=out)
        out[0] += float(np.asarray(con_w).ravel() @ s[indices])

    prob = FiniteSumProblem(
        dim=dim, num_samples=n, num_constraints=1, normalization="mean",
        batch_values=lambda indices, x: (0.5 * a[indices] * float(x @ x), constraint_rows(indices, x)),
        batch_weighted_grad=batch_weighted_grad,
    )
    spec, probes = PenaltySpec("quadratic", 1.0), [np.full(dim, 0.5), np.linspace(-1.0, 1.0, dim)]
    sgc_estimate(prob, spec, probes)
    tracemalloc.start()
    try:
        est = sgc_estimate(prob, spec, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dim * 8 + 64 * 1024
    assert est.rho_est >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# per-sample and batch oracles give the same diagnostics


@pytest.mark.parametrize("normalization", ["sum", "mean"])
def test_diagnostics_agree_on_per_sample_and_batch_twins(normalization):
    twins = [
        make_random_problem(dim=3, num_samples=4, num_constraints=2, seed=61, normalization=normalization, oracles=o)
        for o in ("sample", "batch")
    ]
    spec = PenaltySpec("quadratic", 4.0)
    rng = np.random.default_rng(62)
    x = rng.normal(size=3)
    lam = np.abs(rng.normal(size=(4, 2)))

    kkt = [kkt_residual(prob, x, lam) for prob in twins]
    assert kkt[0].stationarity_residual == pytest.approx(kkt[1].stationarity_residual, abs=1e-12)
    assert kkt[0].feasibility_residual == pytest.approx(kkt[1].feasibility_residual, abs=1e-12)
    assert kkt[0].complementarity_residual == pytest.approx(kkt[1].complementarity_residual, abs=1e-12)

    elicq = [elicq_check(prob, x, act_tol=10.0) for prob in twins]
    assert elicq[0].num_active_plus == elicq[1].num_active_plus == 8
    assert elicq[0].holds == elicq[1].holds
    assert elicq[0].min_singular_value == pytest.approx(elicq[1].min_singular_value, abs=1e-12)

    smooth = [smoothness_estimate(prob, spec, (x - 1.0, x + 1.0), num_probes=5, rng_seed=3) for prob in twins]
    assert smooth[0].penalty_lipschitz == pytest.approx(smooth[1].penalty_lipschitz, rel=1e-12)
    assert np.allclose(smooth[0].grad_sup, smooth[1].grad_sup, rtol=0.0, atol=1e-12)
    assert np.allclose(smooth[0].constraint_lipschitz, smooth[1].constraint_lipschitz, rtol=0.0, atol=1e-12)

    probes = [x, x + 0.5]
    sgc = [sgc_estimate(prob, spec, probes) for prob in twins]
    assert np.allclose(sgc[0].ratios, sgc[1].ratios, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# smoothness estimation, one sample's Jacobians at a time


def _stacked_smoothness(problem, spec, probes):
    """The smoothness fields from the (probes, N, m, dim) stack of every constraint Jacobian, as first written."""
    obj_grads = np.stack([objective_grad_full(problem, p) for p in probes])
    g_vals = np.stack([constraint_values(problem, p) for p in probes])
    jacs = np.array([[constraint_jacobian(problem, j, p) for j in range(problem.num_samples)] for p in probes])
    grad_sup = np.linalg.norm(jacs, axis=3).max(axis=0)
    violation_sup = np.maximum(0.0, g_vals).max(axis=0)
    lf, lg = 0.0, np.zeros((problem.num_samples, problem.num_constraints))
    for a in range(len(probes)):
        for b in range(a + 1, len(probes)):
            dist = float(np.linalg.norm(probes[a] - probes[b]))
            if dist == 0.0:
                continue
            lf = max(lf, float(np.linalg.norm(obj_grads[a] - obj_grads[b])) / dist)
            lg = np.maximum(lg, np.linalg.norm(jacs[a] - jacs[b], axis=2) / dist)
    penalty_l = lf + spec.tau * problem.agg_scale * float((grad_sup**2 + violation_sup * lg).sum())
    return lf, grad_sup, violation_sup, lg, penalty_l


@pytest.mark.parametrize("case", ["per_sample_sum", "batch_mean", "vertex", "certified_qp"])
def test_smoothness_estimate_is_bit_identical_to_the_stacked_formula(case):
    prob, kind = {
        "per_sample_sum": lambda: (make_random_problem(4, 7, 3, seed=1), "quadratic"),
        "batch_mean": lambda: (make_random_problem(5, 9, 2, seed=2, normalization="mean", oracles="batch"), "linear"),
        "vertex": lambda: (make_per_sample_vertex_problem(3)[0], "quadratic"),
        "certified_qp": lambda: (qp_registry()["sum_ge_2"].problem, "linear"),
    }[case]()
    spec, lo, hi = PenaltySpec(kind, 3.0), np.full(prob.dim, -1.0), np.full(prob.dim, 1.5)
    est = smoothness_estimate(prob, spec, (lo, hi), num_probes=6, rng_seed=2)
    want = _stacked_smoothness(prob, spec, _probe_points(lo, hi, 6, np.random.default_rng(2)))
    got = (est.objective_lipschitz, est.grad_sup, est.violation_sup, est.constraint_lipschitz, est.penalty_lipschitz)
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    assert est.penalty_lipschitz > est.objective_lipschitz > 0.0


def test_smoothness_estimate_holds_one_samples_jacobians_at_a_time():
    # 300 samples of a 5,000-parameter batch-oracle problem at 4 probes: the
    # (probes, N, m, dim) stack of every constraint Jacobian is 48 MB (the
    # estimate peaked at 96.6 MB with it), one sample's is 160 kB. The
    # problem's own passes hold O(dim) arrays, so the estimate peaks at
    # 0.9 MB, about five parameter-size arrays per probe.
    dim, n, n_probes = 5000, 300, 4
    rng = np.random.default_rng(75)
    a, s = rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)

    def constraint_rows(indices, x):
        return (s[indices] * x[0] - 1.0).reshape(-1, 1)

    def batch_weighted_grad(indices, x, obj_w, con_w, out):
        if callable(con_w):
            con_w = con_w(constraint_rows(indices, x))
        np.multiply(x, float(np.asarray(obj_w) @ a[indices]), out=out)
        out[0] += float(np.asarray(con_w).ravel() @ s[indices])

    prob = FiniteSumProblem(
        dim=dim, num_samples=n, num_constraints=1, normalization="mean",
        batch_values=lambda indices, x: (0.5 * a[indices] * float(x @ x), constraint_rows(indices, x)),
        batch_weighted_grad=batch_weighted_grad,
    )
    spec = PenaltySpec("quadratic", 1.0)
    smoothness_estimate(prob, spec, (-1.0, 1.0), num_probes=n_probes)
    tracemalloc.start()
    try:
        est = smoothness_estimate(prob, spec, (-1.0, 1.0), num_probes=n_probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_probes * dim * 8 + 64 * 1024
    assert est.grad_sup.shape == (n, 1) and est.penalty_lipschitz > 0.0
