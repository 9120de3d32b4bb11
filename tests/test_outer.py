import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import seqpen.outer as outer_mod
from seqpen import (
    InnerSolverError,
    OracleError,
    OuterAbort,
    PenaltySpec,
    SGDConfig,
    Schedule,
    feasibility_stats,
    fixed_penalty_train,
    full_objective,
    grad_norm_estimate,
    iteration_budget,
    kkt_residual,
    multiplier_estimate,
    penalty_value_full,
    sequential_penalty_train,
    sgd_run,
)
from seqpen.inner import InnerReport
from seqpen.tasks.data import ImageDataset
from seqpen.tasks.encdec import build_enc_dec_task
from seqpen.tasks.qp import qp_registry


def qp_problem():
    return qp_registry()["x_sq_ge_1"].problem


def exact_inner(budget=30):
    return SGDConfig(stepsize=1.0, batch_size=1, budget=budget, candidate_rule="last", grad_norm="exact")


def qp_schedule(max_outer=20, **kwargs):
    defaults = dict(
        tau0=1.0,
        gamma=2.0,
        max_outer=max_outer,
        inner=exact_inner(),
        stepsize_fn=lambda tau: 1.0 / (2.0 + tau),
    )
    defaults.update(kwargs)
    return Schedule(**defaults)


def test_schedule_validation():
    with pytest.raises(ValueError, match="gamma"):
        qp_schedule(gamma=1.0)
    with pytest.raises(ValueError, match="tau0"):
        qp_schedule(tau0=0.0)
    with pytest.raises(ValueError, match="eps_decay"):
        qp_schedule(eps_decay=1.0)


def test_qp_sequential_converges_to_kkt():
    prob = qp_problem()
    trace = sequential_penalty_train(prob, "quadratic", qp_schedule(), np.array([0.0]))
    assert len(trace.records) == 20
    final = trace.final()
    assert abs(final.candidate[0] - 1.0) <= 1e-3
    assert final.multiplier_max == pytest.approx(2.0, rel=0.05)
    rep = kkt_residual(
        prob, final.candidate, multiplier_estimate(prob, PenaltySpec("quadratic", final.tau), final.candidate)
    )
    assert rep.is_eps_kkt(1e-3)


def test_single_outer_iteration():
    trace = sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(max_outer=1), np.array([0.0]))
    assert len(trace.records) == 1
    assert trace.records[0].tau == 1.0
    assert trace.stopped == "max_outer"


def test_tau_and_eps_schedules_exact():
    sched = qp_schedule(tau0=3.0, gamma=1.5, eps0=0.7, eps_decay=0.8, max_outer=12)
    trace = sequential_penalty_train(qp_problem(), "quadratic", sched, np.array([0.0]))
    for rec in trace.records:
        assert rec.tau == 3.0 * 1.5**rec.k
        assert rec.eps == 0.7 * 0.8**rec.k
    taus = [rec.tau for rec in trace.records]
    epss = [rec.eps for rec in trace.records]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(b < a for a, b in zip(epss, epss[1:]))


def test_warm_start_identity(monkeypatch):
    starts = []
    real_sgd_run = outer_mod.sgd_run

    def recording_sgd_run(problem, spec, x0, config, **kwargs):
        starts.append(np.array(x0, copy=True))
        return real_sgd_run(problem, spec, x0, config, **kwargs)

    monkeypatch.setattr(outer_mod, "sgd_run", recording_sgd_run)
    trace = sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(max_outer=6), np.array([0.25]))
    assert np.array_equal(starts[0], np.array([0.25]))
    for k in range(1, len(starts)):
        assert np.array_equal(starts[k], trace.records[k - 1].candidate)


def test_candidates_monotone_toward_solution():
    trace = sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(), np.array([0.0]))
    xs = [rec.candidate[0] for rec in trace.records]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert all(x < 1.0 for x in xs)
    # per-tau penalty minimizers tau / (2 + tau)
    for rec in trace.records:
        assert rec.candidate[0] == pytest.approx(rec.tau / (2.0 + rec.tau), abs=1e-9)


def test_max_violation_shrinks_to_zero():
    trace = sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(), np.array([0.0]))
    mv = [rec.feasibility.max_violation for rec in trace.records]
    assert all(b <= a + 1e-15 for a, b in zip(mv[1:], mv[2:]))
    assert mv[-1] <= 1e-4


def test_budgets_from_iteration_bound_meet_eps_chain():
    """With inner budgets from the 2 rho L gap / eps^2 bound and the exact
    smoothness constants, every outer candidate satisfies its stationarity
    target, which is the hypothesis the outer convergence statement needs."""
    qp = qp_registry()["sum_ge_2"]
    prob = qp.problem

    def penalty_min_value(tau):
        # minimizer lies on the ray x = t * (1, 1); see the active-region stationarity
        t = tau / (1.0 + tau)
        return 2.0 * t * t + 0.5 * tau * max(0.0, 2.0 - 2.0 * t) ** 2

    def budget_fn(tau, eps, x):
        gap = penalty_value_full(prob, PenaltySpec("quadratic", tau), x) - penalty_min_value(tau)
        gap = max(gap, 1e-12)
        return iteration_budget(1.0, qp.penalty_lipschitz(tau), gap, eps)

    sched = Schedule(
        tau0=1.0,
        gamma=2.0,
        max_outer=16,
        inner=exact_inner(),
        eps0=1.0,
        eps_decay=0.9,
        stepsize_fn=lambda tau: 1.0 / qp.penalty_lipschitz(tau),
        budget_fn=budget_fn,
    )
    trace = sequential_penalty_train(prob, "quadratic", sched, np.zeros(2))
    for rec in trace.records:
        exact = grad_norm_estimate(prob, PenaltySpec("quadratic", rec.tau), rec.candidate)
        assert exact <= rec.eps + 1e-12, (rec.k, exact, rec.eps)


def test_tolerance_termination_fires():
    # generous eps plus an achievable feasibility tolerance stops the loop early
    sched = qp_schedule(max_outer=60, eps0=10.0, eps_decay=0.99, feasibility_tol=1e-4)
    trace = sequential_penalty_train(qp_problem(), "quadratic", sched, np.array([0.0]))
    assert trace.stopped == "tolerance"
    assert len(trace.records) < 60
    assert trace.final().feasibility.max_violation <= 1e-4


def test_fixed_penalty_lambda_zero_unconstrained():
    prob = qp_problem()
    inner = SGDConfig(stepsize=0.25, batch_size=1, budget=200, candidate_rule="last", grad_norm="exact")
    trace = fixed_penalty_train(prob, 0.0, inner, np.array([0.8]))
    assert len(trace.records) == 1
    final = trace.final()
    assert final.candidate[0] == pytest.approx(0.0, abs=1e-6)
    assert final.feasibility.max_violation == pytest.approx(1.0, abs=1e-5)


def test_fixed_penalty_large_lambda_reaches_feasibility():
    # the subgradient step jumps by stepsize * lambda at the kink, so the
    # stepsize must keep that product below the target tolerance
    prob = qp_problem()
    inner = SGDConfig(stepsize=5e-10, batch_size=1, budget=4000, candidate_rule="last", grad_norm="exact")
    trace = fixed_penalty_train(prob, 1e6, inner, np.array([0.0]))
    assert trace.final().candidate[0] == pytest.approx(1.0, abs=1e-3)


def test_unknown_penalty_kind_rejected_before_any_inner_run(monkeypatch):
    calls = []
    monkeypatch.setattr(outer_mod, "sgd_run", lambda *args, **kwargs: calls.append("sgd_run"))
    sched = qp_schedule(stepsize_fn=lambda tau: calls.append("stepsize_fn") or 1.0)
    with pytest.raises(ValueError, match="penalty kind must be one of .* got 'cubic'"):
        sequential_penalty_train(qp_problem(), "cubic", sched, np.array([0.0]))
    assert calls == []


def test_fixed_penalty_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lambda"):
        fixed_penalty_train(qp_problem(), -1.0, exact_inner(), np.array([0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_outer_abort_carries_partial_trace():
    sched = qp_schedule(max_outer=10, stepsize_fn=None, inner=SGDConfig(stepsize=1e9, batch_size=1, budget=2000, candidate_rule="last"))
    with pytest.raises(OuterAbort) as err:
        sequential_penalty_train(qp_problem(), "quadratic", sched, np.array([0.0]))
    abort = err.value
    assert isinstance(abort.cause, InnerSolverError)
    assert abort.outer_index >= 0
    assert len(abort.partial.records) == abort.outer_index


def test_linear_kind_drives_feasibility():
    # linear penalty with tau past the exact-penalty threshold pins x at the
    # boundary; the stepsize shrinks with tau to bound the kink oscillation
    prob = qp_problem()
    sched = Schedule(
        tau0=0.5,
        gamma=2.0,
        max_outer=8,
        inner=SGDConfig(stepsize=1e-3, batch_size=1, budget=3000, candidate_rule="last", grad_norm="exact"),
        stepsize_fn=lambda tau: 1e-3 / tau,
    )
    trace = sequential_penalty_train(prob, "linear", sched, np.array([0.0]))
    assert trace.final().candidate[0] == pytest.approx(1.0, abs=5e-3)


def test_adam_state_threads_across_outer_iterations(monkeypatch, tiny_encdec):
    passed_states = []
    real_sgd_run = outer_mod.sgd_run

    def recording_sgd_run(problem, spec, x0, config, opt_state=None, **kwargs):
        passed_states.append(opt_state)
        return real_sgd_run(problem, spec, x0, config, opt_state=opt_state, **kwargs)

    monkeypatch.setattr(outer_mod, "sgd_run", recording_sgd_run)
    inner = SGDConfig(stepsize=1e-3, batch_size=4, mode="practical", budget=1, rng_seed=0, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=1.5, max_outer=3, inner=inner)
    params0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    sequential_penalty_train(tiny_encdec.problem, "linear", sched, params0)
    assert passed_states[0] is None
    steps_per_epoch = int(np.ceil(tiny_encdec.problem.num_samples / 4))
    assert passed_states[1] is not None and passed_states[1].step == steps_per_epoch
    assert passed_states[2].step == 2 * steps_per_epoch


def _counting(fn, calls, name):
    def wrapped(*args):
        calls.append(name)
        return fn(*args)

    return wrapped


def test_record_makes_one_objective_and_one_constraint_pass(tiny_encdec):
    calls = []
    base = tiny_encdec.problem
    prob = replace(
        base,
        batch_objective=_counting(base.batch_objective, calls, "f"),
        batch_constraints=_counting(base.batch_constraints, calls, "g"),
    )
    x = tiny_encdec.model.init_params(np.random.default_rng(7))
    report = InnerReport(candidate=x, iterate_count=1, grad_norm_estimate=0.5, sampled_index=None, trace=[],
                         clip_activations=0)
    for kind in ("quadratic", "linear"):
        spec = PenaltySpec(kind, 3.0)
        calls.clear()
        rec = outer_mod._make_record(prob, spec, 2, 0.1, report)
        assert sorted(calls) == ["f", "g"]
        # every quantity equals the one computed by its own full pass
        lam = multiplier_estimate(base, spec, x)
        assert rec.penalty_value == penalty_value_full(base, spec, x)
        assert rec.objective_value == full_objective(base, x)
        assert rec.feasibility == feasibility_stats(base, x)
        assert rec.multiplier_max == float(lam.max()) and rec.multiplier_mean == float(lam.mean())


def _qp_with_nan_constraints_after(x_limit):
    """The x >= 1 QP whose constraint value oracle turns non-finite once x exceeds x_limit."""
    base = qp_problem()

    def batch_constraints(indices, x):
        g = base.batch_constraints(indices, x)
        return np.full_like(g, np.nan) if x[0] > x_limit else g

    return replace(base, batch_constraints=batch_constraints)


def test_record_oracle_failure_aborts_with_partial_trace():
    # candidates are tau / (2 + tau) for tau = 2^k: 1/3, 1/2, 2/3, 4/5, ...
    prob = _qp_with_nan_constraints_after(0.75)
    with pytest.raises(OuterAbort) as err:
        sequential_penalty_train(prob, "quadratic", qp_schedule(max_outer=10), np.array([0.0]))
    abort = err.value
    assert isinstance(abort.cause, OracleError)
    assert abort.outer_index == 3
    assert [rec.k for rec in abort.partial.records] == [0, 1, 2]

    with pytest.raises(OuterAbort) as err:
        fixed_penalty_train(prob, 0.0, exact_inner(), np.array([2.0]))
    assert isinstance(err.value.cause, OracleError)
    assert err.value.outer_index == 0 and err.value.partial.records == []


def test_practical_sequential_run_holds_no_redundant_parameter_copies():
    # Two outer iterations of one practical epoch each at the desk network
    # shapes (413,174 parameters, 3.3 MB per parameter-size array) on 256
    # samples. The run peaks at 34.7 MB in the second iteration's second
    # step, which holds nine parameter-size arrays: the Adam moments of both
    # iterations, the iterate, the first candidate, the memo's parameters and
    # two minibatch gradients. The bound sits 1.6 MB above that, so one more
    # parameter-size array fails it; copying each candidate into its record
    # peaked at 38.0 MB.
    rng = np.random.default_rng(5)
    task = build_enc_dec_task(ImageDataset(rng.random((256, 784)), rng.integers(0, 10, size=256)), theta=0.03)
    x0 = task.model.init_params(rng)
    inner = SGDConfig(stepsize=1e-3, batch_size=128, mode="practical", budget=1, rng_seed=1, grad_norm="none")
    sched = Schedule(tau0=100.0, gamma=1.1, max_outer=2, inner=inner)
    sequential_penalty_train(task.problem, "linear", sched, x0)
    tracemalloc.start()
    try:
        trace = sequential_penalty_train(task.problem, "linear", sched, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 2
    assert peak < 36.3e6
