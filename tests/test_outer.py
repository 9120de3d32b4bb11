import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import seqpen.cli as cli_mod
import seqpen.inner as inner_mod
import seqpen.outer as outer_mod
from seqpen import (
    FiniteSumProblem,
    InnerSolverError,
    OracleError,
    OuterAbort,
    PenaltySpec,
    SGDConfig,
    Schedule,
    elicq_check,
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
from seqpen.tasks.encdec import build_enc_dec_task, evaluate_enc_dec, warm_start
from seqpen.tasks.qp import qp_registry

from conftest import make_per_sample_vertex_problem


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


def test_schedule_rejects_a_last_tau_that_overflows():
    # 2**1023 is the largest power of two a float holds
    assert qp_schedule(max_outer=1024).tau_at(1023) == 2.0**1023
    with pytest.raises(ValueError, match=r"^max_outer = 1025 takes tau0 \* gamma\*\*\(max_outer - 1\) past"):
        qp_schedule(max_outer=1025)
    # the power itself overflows, or only its product with tau0 does
    with pytest.raises(ValueError, match="^max_outer = 40 "):
        qp_schedule(gamma=1e10, max_outer=40)
    with pytest.raises(ValueError, match="^max_outer = 40 "):
        qp_schedule(tau0=1e300, gamma=1e10, max_outer=40)


def test_qp_sequential_converges_to_kkt():
    prob = qp_problem()
    hooked = []
    trace = sequential_penalty_train(prob, "quadratic", qp_schedule(), np.array([0.0]), hook=hooked.append)
    assert len(trace.records) == 20
    # the hook reaches every theoretical-mode inner run, once per iteration
    assert len(hooked) == sum(rec.iterate_count - 1 for rec in trace.records)
    final = trace.final()
    assert abs(final.candidate[0] - 1.0) <= 1e-3
    assert final.multiplier_max == pytest.approx(2.0, rel=0.05)
    rep = kkt_residual(
        prob, final.candidate, multiplier_estimate(prob, PenaltySpec("quadratic", final.tau), final.candidate)
    )
    assert rep.is_eps_kkt(1e-3)


@pytest.mark.parametrize("seed", [0, 4242])
def test_multi_sample_minibatch_run_reaches_the_certified_kkt_point(seed):
    # perfbench's multi-sample qp_theory run: one constraint per sample, drawn
    # with replacement two at a time, 150 steps per subproblem
    prob, x_star, lam_star, max_weight = make_per_sample_vertex_problem(seed)
    assert kkt_residual(prob, x_star, lam_star).is_eps_kkt(1e-10)
    inner = SGDConfig(stepsize=1.0, batch_size=2, budget=150, candidate_rule="last", rng_seed=seed)
    # each sample's quadratic penalty is (w_j + tau)-smooth, since its constraint normal has unit length
    schedule = qp_schedule(inner=inner, stepsize_fn=lambda tau: 1.0 / (max_weight + tau))
    final = sequential_penalty_train(prob, "quadratic", schedule, np.zeros(prob.dim)).final()
    x = final.candidate
    assert np.abs(x - x_star).max() <= 1e-3
    assert kkt_residual(prob, x, multiplier_estimate(prob, PenaltySpec("quadratic", final.tau), x)).is_eps_kkt(1e-3)
    assert elicq_check(prob, x).holds


def test_single_outer_iteration():
    trace = sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(max_outer=1), np.array([0.0]))
    assert len(trace.records) == 1
    assert trace.records[0].tau == 1.0


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
        budget = iteration_budget(1.0, qp.penalty_lipschitz(tau), gap, eps)
        # A correct run asks for at most 189 iterations per subproblem. A defect
        # that keeps x infeasible grows the bound with tau^2 / eps^2, so stop it
        # here: uncapped, this test runs for hours instead of failing.
        assert budget <= 2000, (tau, budget)
        return budget

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
    sched = qp_schedule(max_outer=60, eps0=10.0, eps_decay=0.99)
    trace = sequential_penalty_train(qp_problem(), "quadratic", sched, np.array([0.0]))
    assert len(trace.records) < sched.max_outer
    assert trace.final().feasibility.max_violation <= outer_mod.FEASIBILITY_TOL


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
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        fixed_penalty_train(qp_problem(), -1.0, exact_inner(), np.array([0.0]))


def test_outer_loops_reject_a_read_only_start_before_any_inner_step(monkeypatch):
    # a ValueError naming x0, not an OuterAbort and not numpy's write error from inside a mode loop
    steps = []
    real_grad = inner_mod.penalty_grad_batch

    def counting_grad(*args, **kwargs):
        steps.append(1)
        return real_grad(*args, **kwargs)

    monkeypatch.setattr(inner_mod, "penalty_grad_batch", counting_grad)
    x0 = np.array([0.25])
    x0.flags.writeable = False
    with pytest.raises(ValueError, match=r"^x0 is read-only: "):
        sequential_penalty_train(qp_problem(), "quadratic", qp_schedule(max_outer=3), x0)
    with pytest.raises(ValueError, match=r"^x0 is read-only: "):
        fixed_penalty_train(qp_problem(), 1.0, exact_inner(), x0)
    assert steps == [] and x0[0] == 0.25


def _unsteppable_x0s():
    read_only = np.array([0.25])
    read_only.flags.writeable = False
    return {
        "list": ([0.25], r"^x0 must be a float64 ndarray of shape \(1,\) to step in place, got list "),
        "int": (np.array([1]), r"^x0 must be .* got ndarray of dtype int64, shape \(1,\)$"),
        "float32": (np.array([0.25], dtype=np.float32), r"^x0 must be .* got ndarray of dtype float32, shape \(1,\)$"),
        "wrong_shape": (np.array([0.25, 0.5]), r"^x0 must be .* got ndarray of dtype float64, shape \(2,\)$"),
        "read_only": (read_only, r"^x0 is read-only: "),
    }


TRAINING_CALLS = {
    "sgd_run": lambda prob, x0: sgd_run(prob, PenaltySpec("quadratic", 1.0), x0, exact_inner()),
    "warm_start": lambda prob, x0: warm_start(SimpleNamespace(problem=prob), x0, exact_inner()),
    "fixed": lambda prob, x0: fixed_penalty_train(prob, 1.0, exact_inner(), x0),
    # the budget rule reads the problem, so the check must come before it too
    "sequential": lambda prob, x0: sequential_penalty_train(
        prob, "quadratic", qp_schedule(max_outer=2, budget_fn=lambda tau, eps, x: 30 + 0 * full_objective(prob, x)), x0
    ),
}


@pytest.mark.parametrize("bad", list(_unsteppable_x0s()))
@pytest.mark.parametrize("call", list(TRAINING_CALLS))
def test_every_training_call_refuses_an_x0_it_cannot_step_before_any_oracle_call(call, bad):
    # a list, an int or float32 array would be converted and the copy stepped,
    # leaving the caller's array behind; a wrong shape or a read-only array cannot be stepped
    calls = []
    base = qp_problem()
    prob = replace(base, batch_values=_counting(base.batch_values, calls, "values"),
                   batch_weighted_grad=_counting(base.batch_weighted_grad, calls, "grad"))
    x0, message = _unsteppable_x0s()[bad]
    before = np.array(x0, copy=True)
    with pytest.raises(ValueError, match=message):
        TRAINING_CALLS[call](prob, x0)
    assert calls == [] and np.array_equal(x0, before)


def _hand_chained_sequential(problem, kind, schedule, x):
    """The outer loop's inner runs, one after another on ``x``, without the loop."""
    state = inner_mod.AdamState(np.zeros(problem.dim), np.zeros(problem.dim), 0)
    for k in range(schedule.max_outer):
        tau = schedule.tau_at(k)
        config = replace(schedule.inner, rng_seed=outer_mod.derived_seed(schedule.inner.rng_seed, k))
        if schedule.stepsize_fn is not None:
            config = replace(config, stepsize=schedule.stepsize_fn(tau))
        sgd_run(problem, PenaltySpec(kind, tau), x, config, opt_state=state)


@pytest.mark.parametrize("rule", ["uniform", "last"])
def test_sequential_run_at_dimension_one_ends_with_its_result_in_x0(rule):
    # every record keeps a copy of its candidate, while the loop steps x0 throughout
    inner = SGDConfig(stepsize=1.0, batch_size=1, budget=30, candidate_rule=rule, grad_norm="exact", rng_seed=4)
    sched = qp_schedule(max_outer=3, inner=inner)
    x0, want = np.array([0.0]), np.array([0.0])
    trace = sequential_penalty_train(qp_problem(), "quadratic", sched, x0)
    _hand_chained_sequential(qp_problem(), "quadratic", sched, want)
    assert x0.tobytes() == want.tobytes() == trace.final().candidate.tobytes()
    assert all(rec.candidate is not x0 for rec in trace.records)
    assert trace.records[0].candidate[0] < x0[0]


def test_sequential_run_above_max_trace_dim_ends_with_its_result_in_x0(tiny_encdec):
    prob = tiny_encdec.problem
    assert prob.dim > outer_mod.MAX_TRACE_DIM
    inner = SGDConfig(stepsize=1e-2, batch_size=4, mode="practical", budget=1, rng_seed=3, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=1.5, max_outer=3, inner=inner)
    x0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    want = x0.copy()
    trace = sequential_penalty_train(prob, "linear", sched, x0)
    _hand_chained_sequential(prob, "linear", sched, want)
    assert x0.tobytes() == want.tobytes()
    # above MAX_TRACE_DIM no record keeps a candidate: the result is in x0 alone
    assert [rec.candidate for rec in trace.records] == [None] * 3


@pytest.mark.parametrize("mode", ["theoretical", "practical"])
def test_fixed_run_ends_with_its_result_in_x0(mode):
    inner = SGDConfig(stepsize=0.1, batch_size=1, mode=mode, budget=5, rng_seed=8)
    x0, want = np.array([3.0]), np.array([3.0])
    trace = fixed_penalty_train(qp_problem(), 10.0, inner, x0)
    sgd_run(qp_problem(), PenaltySpec("linear", 10.0), want, inner)
    assert x0.tobytes() == want.tobytes() == trace.final().candidate.tobytes()


@pytest.mark.parametrize("rule, most", [("last", 2.5), ("uniform", 3.5)])
def test_theoretical_sequential_run_keeps_no_stale_iterate(rule, most):
    # Three outer iterations at dimension 10**6 from a start made inside the
    # trace: the start, which every run steps, and the gradient buffer, plus
    # the drawn iterate under rule uniform (each bound leaves half an array of
    # slack). A loop that went on from a returned copy kept the start alive
    # beside it, one array more (4.0 under uniform).
    dim = 10**6

    def weighted_grad(indices, x, obj_w, con_w, out):
        np.multiply(x, 1e-3, out=out)

    prob = FiniteSumProblem(
        dim=dim, num_samples=4, num_constraints=1,
        batch_values=lambda indices, x: (np.zeros(len(indices)), np.zeros((len(indices), 1))),
        batch_weighted_grad=weighted_grad,
    )
    inner = SGDConfig(stepsize=0.1, batch_size=2, budget=5, rng_seed=0, candidate_rule=rule, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=2.0, max_outer=3, inner=inner)
    tracemalloc.start()
    try:
        trace = sequential_penalty_train(prob, "quadratic", sched, np.ones(dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 3
    assert peak <= most * 8 * dim


def test_warm_start_ends_with_its_result_in_x0(tiny_encdec):
    inner = SGDConfig(stepsize=1e-2, batch_size=4, mode="practical", budget=2, weight_decay=1e-2, rng_seed=3,
                      grad_norm="none")
    x0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    want = x0.copy()
    assert warm_start(tiny_encdec, x0, inner) is x0
    # the warm start trains on the classification loss alone, without weight decay
    sgd_run(tiny_encdec.problem, PenaltySpec("linear", 0.0), want, replace(inner, weight_decay=0.0))
    assert x0.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_outer_abort_carries_partial_trace():
    sched = qp_schedule(max_outer=10, stepsize_fn=None, inner=SGDConfig(stepsize=1e9, batch_size=1, budget=2000, candidate_rule="last"))
    with pytest.raises(OuterAbort) as err:
        sequential_penalty_train(qp_problem(), "quadratic", sched, np.array([0.0]))
    abort = err.value
    assert isinstance(abort.__cause__, InnerSolverError)
    assert str(abort).startswith(f"outer iteration {len(abort.partial.records)} aborted: ")


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
    passed = []
    real_sgd_run = outer_mod.sgd_run

    def recording_sgd_run(problem, spec, x0, config, opt_state=None, **kwargs):
        passed.append((opt_state, opt_state.step))
        return real_sgd_run(problem, spec, x0, config, opt_state=opt_state, **kwargs)

    monkeypatch.setattr(outer_mod, "sgd_run", recording_sgd_run)
    inner = SGDConfig(stepsize=1e-3, batch_size=4, mode="practical", budget=1, rng_seed=0, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=1.5, max_outer=3, inner=inner)
    params0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    sequential_penalty_train(tiny_encdec.problem, "linear", sched, params0)
    # the same object each time, continued in place: no run copies the moments
    state = passed[0][0]
    assert all(s is state for s, _ in passed)
    steps_per_epoch = int(np.ceil(tiny_encdec.problem.num_samples / 4))
    assert [step for _, step in passed] == [0, steps_per_epoch, 2 * steps_per_epoch]
    assert state.step == 3 * steps_per_epoch


def test_outer_loop_hands_its_adam_moments_to_the_next_run(monkeypatch, tiny_encdec):
    moments = []
    real_sgd_run = outer_mod.sgd_run

    def recording_sgd_run(problem, spec, x0, config, opt_state=None, **kwargs):
        report = real_sgd_run(problem, spec, x0, config, opt_state=opt_state, **kwargs)
        moments.append((opt_state.m, opt_state.v))
        return report

    monkeypatch.setattr(outer_mod, "sgd_run", recording_sgd_run)
    inner = SGDConfig(stepsize=1e-3, batch_size=4, mode="practical", budget=1, rng_seed=0, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=1.5, max_outer=3, inner=inner)
    params0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    sequential_penalty_train(tiny_encdec.problem, "linear", sched, params0)
    # every run continues the first run's arrays in place instead of copying them
    assert len(moments) == 3
    assert all(m is moments[0][0] and v is moments[0][1] for m, v in moments)
    assert np.any(moments[0][0] != 0.0) and np.any(moments[0][1] != 0.0)


def test_fixed_run_holds_no_adam_moment_when_its_record_is_made(monkeypatch, tiny_encdec):
    # under method = fixed the single inner run owns its Adam state, and the
    # record (where a desk run peaks) must not keep the two moments alive
    moments = []
    real_adam_state = inner_mod.AdamState

    def recording_adam_state(m, v, step):
        moments.extend((weakref.ref(m), weakref.ref(v)))
        return real_adam_state(m, v, step)

    live_at_record = []
    real_make_record = outer_mod._make_record

    def recording_make_record(*args):
        live_at_record.append([ref() is not None for ref in moments])
        return real_make_record(*args)

    monkeypatch.setattr(inner_mod, "AdamState", recording_adam_state)
    monkeypatch.setattr(outer_mod, "_make_record", recording_make_record)
    inner = SGDConfig(stepsize=1e-3, batch_size=4, mode="practical", budget=2, rng_seed=0, grad_norm="none")
    params0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    fixed_penalty_train(tiny_encdec.problem, 10.0, inner, params0)
    assert len(moments) == 2
    assert live_at_record == [[False, False]]


def _counting(fn, calls, name):
    def wrapped(*args):
        calls.append(name)
        return fn(*args)

    return wrapped


def test_record_makes_one_value_oracle_call(tiny_encdec):
    calls = []
    base = tiny_encdec.problem
    prob = replace(base, batch_values=_counting(base.batch_values, calls, "values"))
    x = tiny_encdec.model.init_params(np.random.default_rng(7))
    report = InnerReport(iterate_count=1, grad_norm_estimate=0.5)
    for kind in ("quadratic", "linear"):
        spec = PenaltySpec(kind, 3.0)
        calls.clear()
        rec = outer_mod._make_record(prob, spec, 2, 0.1, x, report)
        assert calls == ["values"]
        # every quantity equals the one computed by its own full pass
        lam = multiplier_estimate(base, spec, x)
        assert rec.penalty_value == penalty_value_full(base, spec, x)
        assert rec.objective_value == full_objective(base, x)
        assert rec.feasibility == feasibility_stats(base, x)
        assert rec.multiplier_max == float(lam.max()) and rec.multiplier_mean == float(lam.mean())


def _qp_with_nan_constraints_after(x_limit):
    """The x >= 1 QP whose constraint value oracle turns non-finite once x exceeds x_limit."""
    base = qp_problem()

    def batch_values(indices, x):
        f, g = base.batch_values(indices, x)
        return f, np.full_like(g, np.nan) if x[0] > x_limit else g

    return replace(base, batch_values=batch_values)


def test_record_oracle_failure_aborts_with_partial_trace():
    # candidates are tau / (2 + tau) for tau = 2^k: 1/3, 1/2, 2/3, 4/5, ...
    prob = _qp_with_nan_constraints_after(0.75)
    with pytest.raises(OuterAbort) as err:
        sequential_penalty_train(prob, "quadratic", qp_schedule(max_outer=10), np.array([0.0]))
    abort = err.value
    assert isinstance(abort.__cause__, OracleError)
    assert str(abort).startswith("outer iteration 3 aborted: ")
    assert [rec.k for rec in abort.partial.records] == [0, 1, 2]

    with pytest.raises(OuterAbort) as err:
        fixed_penalty_train(prob, 0.0, exact_inner(), np.array([2.0]))
    assert isinstance(err.value.__cause__, OracleError)
    assert str(err.value).startswith("outer iteration 0 aborted: ") and err.value.partial.records == []


def _desk_shape_task():
    rng = np.random.default_rng(5)
    task = build_enc_dec_task(ImageDataset(rng.random((256, 784)), rng.integers(0, 10, size=256)), theta=0.03)
    return task, task.model.init_params(rng)


def _traced_peak(task, start, max_outer, hook=None):
    """tracemalloc peak and trace of a sequential run of ``max_outer`` one-epoch iterations from ``start()``."""
    inner = SGDConfig(stepsize=1e-3, batch_size=128, mode="practical", budget=1, rng_seed=1, grad_norm="none")
    sched = Schedule(tau0=100.0, gamma=1.1, max_outer=max_outer, inner=inner)
    sequential_penalty_train(task.problem, "linear", sched, start(), hook=hook)
    tracemalloc.start()
    try:
        trace = sequential_penalty_train(task.problem, "linear", sched, start(), hook=hook)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, trace


def test_practical_sequential_run_holds_no_redundant_parameter_copies():
    # Two outer iterations of one practical epoch each at the desk network
    # shapes (413,174 parameters, 3.3 MB per parameter-size array) on 256
    # samples. The run peaks at 18.1 MB in the minibatch steps of either
    # iteration, which hold four parameter-size arrays: the iterate (the
    # start, which both inner runs step in place), the two Adam moments and
    # the gradient buffer; the split's memo keeps a digest of the parameters,
    # not a copy. The bound sits 1.3 MB above that, so one more
    # parameter-size array fails it: a copied start, a copied Adam state, a
    # second gradient, a kept stale candidate or a memo's parameter copy.
    task, x0 = _desk_shape_task()
    peak, trace = _traced_peak(task, lambda: x0.copy(), 2)
    assert len(trace.records) == 2
    assert peak < 19.4e6


def test_timeline_run_holds_three_parameter_copies_while_it_evaluates():
    # The CLI's timeline wiring at the desk network shapes: the hook evaluates
    # a 512-row training split (four SPLIT_CHUNKs) and a 128-row test split of
    # uint8 pixels after every epoch, and the run steps its start in place.
    # Each evaluation chunk runs beside three parameter-size arrays (the
    # iterate and the two Adam moments) and the hook peaks at 12.2 MB; the
    # minibatch steps, with the gradient buffer as a fourth, peak at 18.1 MB.
    # The hook's array is a read-only view of the iterate and each memo keeps
    # a digest, so one more parameter-size array in either place, a copied
    # start, a hooked copy or a memo's parameter copy, breaks the bound
    # 1.3 MB above its peak; so do 512-row chunks in the hook (17.9 MB).
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(640, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=640)
    tasks = {
        split: build_enc_dec_task(ImageDataset(pixels[rows], labels[rows], split=split), theta=0.03)
        for split, rows in (("train", slice(0, 512)), ("test", slice(512, None)))
    }
    task, evaluated, step_peaks, hook_peaks = tasks["train"], [], [], []

    def timeline_hook(params):
        # in the traced run, the peak of the steps before the hook, then the hook's own
        tracing = tracemalloc.is_tracing()
        if tracing:
            step_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        for split_task in tasks.values():
            evaluated.append(evaluate_enc_dec(split_task, params)["accuracy"])
        if tracing:
            hook_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

    init_rng = np.random.default_rng(2)
    peak, trace = _traced_peak(task, lambda: task.model.init_params(init_rng), 2, hook=timeline_hook)
    # two splits after each of two epochs, in the untraced run and the traced one
    assert len(trace.records) == 2 and len(evaluated) == 8 and len(hook_peaks) == 2
    assert max(step_peaks + [peak]) < 19.4e6
    assert max(hook_peaks) < 13.5e6


def test_fixed_run_from_the_warm_start_holds_four_parameter_copies():
    # desk_fixed's wiring at the desk network shapes, timeline off: the warm
    # start steps fresh initial parameters in place, and the fixed run steps
    # the warm start's result. The fixed run peaks at 18.1 MB in its
    # minibatch steps, which hold four parameter-size arrays: the iterate,
    # the two Adam moments and the gradient buffer (the warm start's steps,
    # with no decoder pass, peak at 15.0 MB). The bound sits 1.3 MB above,
    # so one more parameter-size array fails it: a copied start, a kept
    # copy of the warm-start result or a copied Adam state.
    task, _ = _desk_shape_task()
    init_rng = np.random.default_rng(2)
    inner = SGDConfig(stepsize=1e-3, batch_size=128, mode="practical", budget=2, weight_decay=1e-3, rng_seed=1,
                      grad_norm="none")

    def run():
        params = warm_start(task, task.model.init_params(init_rng), replace(inner, budget=1))
        return fixed_penalty_train(task.problem, 100.0, inner, params)

    run()
    tracemalloc.start()
    try:
        trace = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 1
    assert peak < 19.4e6


def test_practical_sequential_run_memory_does_not_grow_with_its_length():
    # A trace that keeps every candidate holds one parameter-size array more
    # per outer iteration: six more (19.8 MB) at 8 iterations than at 2.
    task, x0 = _desk_shape_task()
    short, _ = _traced_peak(task, lambda: x0.copy(), 2)
    long, trace = _traced_peak(task, lambda: x0.copy(), 8)
    assert len(trace.records) == 8
    assert long - short < 8 * task.model.num_params


def test_trace_above_max_trace_dim_keeps_no_candidate(monkeypatch, tiny_encdec, tmp_path):
    prob = tiny_encdec.problem
    assert prob.dim > outer_mod.MAX_TRACE_DIM
    inner = SGDConfig(stepsize=1e-2, batch_size=4, mode="practical", budget=1, rng_seed=3, grad_norm="none")
    sched = Schedule(tau0=1.0, gamma=1.5, max_outer=4, inner=inner)
    real_sgd_run = outer_mod.sgd_run

    def finished_and_cut(x):
        """The records of a run stepping x, and of a run from x's start that aborts in its third inner run."""
        start, calls = x.copy(), []
        finished = sequential_penalty_train(prob, "linear", sched, x)

        def third_run_diverges(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise InnerSolverError("injected divergence")
            return real_sgd_run(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(outer_mod, "sgd_run", third_run_diverges)
            with pytest.raises(OuterAbort) as err:
                sequential_penalty_train(prob, "linear", sched, start)
        return finished.records, err.value.partial.records

    x0 = tiny_encdec.model.init_params(np.random.default_rng(2))
    lean_x = x0.copy()
    lean, lean_cut = finished_and_cut(lean_x)
    assert [rec.candidate for rec in lean + lean_cut] == [None] * 6
    # the same runs at or below MAX_TRACE_DIM, where each record holds a copy of its own
    monkeypatch.setattr(outer_mod, "MAX_TRACE_DIM", prob.dim)
    full, full_cut = finished_and_cut(x0)
    kept = [x0] + [rec.candidate for rec in full + full_cut]
    assert len(kept) == 7 and not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1 :])
    assert lean_x.tobytes() == x0.tobytes() == full[-1].candidate.tobytes()
    # the scalars, compared by repr so that grad_norm's nan equals itself
    for a, b in zip(lean + lean_cut, full + full_cut, strict=True):
        assert repr(replace(a, candidate=None)) == repr(replace(b, candidate=None))
    for name, records in (("lean", lean), ("full", full)):
        (tmp_path / name).mkdir()
        cli_mod._write_trace(tmp_path / name, records, prob.dim)
    assert (tmp_path / "lean" / "trace.csv").read_bytes() == (tmp_path / "full" / "trace.csv").read_bytes()

