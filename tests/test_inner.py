import numpy as np
import pytest

from seqpen import (
    AdamParams,
    InnerSolverError,
    PenaltySpec,
    SGDConfig,
    grad_norm_estimate,
    iteration_budget,
    sgd_run,
)
import seqpen.inner as inner_mod
from seqpen.inner import AdamState
from seqpen.penalties import penalty_grad_batch
from seqpen.problems import FiniteSumProblem, epoch_batches
from seqpen.tasks.qp import build_analytic_qp


@pytest.fixture(scope="module")
def free_quadratic():
    # f = x^2 with a never-active box constraint, so P_tau = x^2 everywhere near 0.
    return build_analytic_qp([[2.0]], [0.0], [[1.0]], [100.0]).problem


@pytest.fixture(scope="module")
def constrained_qp():
    # min x^2 s.t. x >= 1
    return build_analytic_qp([[2.0]], [0.0], [[-1.0]], [-1.0]).problem


def test_hand_iterated_descent(free_quadratic):
    # gradient step on x^2 with eta = 0.25 halves the iterate each time
    cfg = SGDConfig(
        stepsize=0.25, batch_size=1, budget=3, candidate_rule="last", track_penalty=True, track_iterates=True
    )
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg)
    assert np.concatenate(rep.iterates) == pytest.approx([1.0, 0.5, 0.25, 0.125])
    assert rep.trace == pytest.approx([1.0, 0.25, 0.0625, 0.015625])
    assert rep.candidate[0] == pytest.approx(0.125)
    assert rep.iterate_count == 4


def test_budget_zero_is_noop(free_quadratic):
    cfg = SGDConfig(stepsize=0.1, batch_size=1, budget=0)
    x0 = np.array([0.7])
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), x0, cfg)
    assert np.array_equal(rep.candidate, x0)
    assert rep.iterate_count == 1
    assert rep.sampled_index == 0


def test_uniform_candidate_near_penalty_minimizer(constrained_qp):
    # tau = 100: the quadratic-penalty minimizer is tau / (2 + tau)
    spec = PenaltySpec("quadratic", 100.0)
    cfg = SGDConfig(stepsize=1e-3, batch_size=1, budget=10_000, rng_seed=0)
    rep = sgd_run(constrained_qp, spec, np.array([0.0]), cfg)
    assert rep.sampled_index is not None and rep.sampled_index < rep.iterate_count
    assert rep.candidate[0] == pytest.approx(100.0 / 102.0, abs=1e-2)


def test_determinism(constrained_qp):
    spec = PenaltySpec("quadratic", 10.0)
    cfg = SGDConfig(stepsize=1e-3, batch_size=1, budget=500, rng_seed=42, track_penalty=True)
    rep1 = sgd_run(constrained_qp, spec, np.array([0.3]), cfg)
    rep2 = sgd_run(constrained_qp, spec, np.array([0.3]), cfg)
    assert np.array_equal(rep1.candidate, rep2.candidate)
    assert rep1.trace == rep2.trace
    assert rep1.sampled_index == rep2.sampled_index
    assert rep1.grad_norm_estimate == rep2.grad_norm_estimate


def test_full_batch_descent_is_monotone(constrained_qp):
    tau = 50.0
    spec = PenaltySpec("quadratic", tau)
    smoothness = 2.0 + tau  # exact for this QP
    cfg = SGDConfig(stepsize=1.0 / smoothness, batch_size=1, budget=200, track_penalty=True, candidate_rule="last")
    rep = sgd_run(constrained_qp, spec, np.array([-1.0]), cfg)
    diffs = np.diff(rep.trace)
    assert (diffs <= 1e-12).all()


def test_clip_box_contains_iterates(free_quadratic):
    cfg = SGDConfig(
        stepsize=1.2,
        batch_size=1,
        budget=50,
        clip_box=(np.array([-0.5]), np.array([0.5])),
        track_iterates=True,
        candidate_rule="last",
    )
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([0.5]), cfg)
    for z in rep.iterates:
        assert -0.5 <= z[0] <= 0.5
    # eta = 1.2 on x^2 expands (factor -1.4 per step), so the box must keep clipping
    assert rep.clip_activations > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes the abort
def test_divergence_aborts_with_location(free_quadratic):
    cfg = SGDConfig(stepsize=1e12, batch_size=1, budget=400, candidate_rule="last")
    with pytest.raises(InnerSolverError) as err:
        sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg)
    assert err.value.coordinate == 0
    assert err.value.iteration >= 0


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"beta1": 1.0}, "beta1 must lie in \\[0, 1\\)"),
        ({"beta1": -0.1}, "beta1 must lie in \\[0, 1\\)"),
        ({"beta2": np.nan}, "beta2 must lie in \\[0, 1\\)"),
        ({"eps_hat": 0.0}, "eps_hat must be positive"),
        ({"eps_hat": np.nan}, "eps_hat must be positive"),
        ({"weight_decay": -1.0}, "weight_decay must be finite and >= 0"),
        ({"weight_decay": np.nan}, "weight_decay must be finite and >= 0"),
        ({"weight_decay": np.inf}, "weight_decay must be finite and >= 0"),
    ],
)
def test_adam_params_rejects_values_that_cannot_train(fields, message):
    with pytest.raises(ValueError, match=message):
        AdamParams(**fields)


def test_adam_params_accepts_the_edges():
    AdamParams(beta1=0.0, beta2=0.0, eps_hat=1e-300, weight_decay=0.0)


def test_iteration_budget_values():
    assert iteration_budget(1.0, 1.0, 1.0, 0.1) == 200
    assert iteration_budget(1.0, 1.0, 1.0, 1.0) == 2
    assert iteration_budget(1.0, 1.0, 1.0, 0.05) == 800
    with pytest.raises(ValueError):
        iteration_budget(0.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        iteration_budget(1.0, 1.0, 1.0, 0.0)


def test_grad_norm_estimate_cases(constrained_qp):
    spec = PenaltySpec("quadratic", 100.0)
    stationary = np.array([100.0 / 102.0])
    assert grad_norm_estimate(constrained_qp, spec, stationary) <= 1e-8

    # two samples with constant gradients (3, 0) and (3, 8): full sum gradient is (6, 8),
    # dividing by 2 under mean normalization gives (3, 4) with norm 5
    grads = {0: np.array([3.0, 0.0]), 1: np.array([3.0, 8.0])}
    import seqpen.problems as problems

    prob = problems.FiniteSumProblem(
        dim=2,
        num_samples=2,
        num_constraints=1,
        sample_objective=lambda j, x: float(grads[j] @ x),
        sample_objective_grad=lambda j, x: grads[j],
        sample_constraints=lambda j, x: np.array([-1.0]),
        sample_constraint_jacobian=lambda j, x: np.zeros((1, 2)),
        normalization="mean",
    )
    assert grad_norm_estimate(prob, PenaltySpec("quadratic", 1.0), np.zeros(2)) == pytest.approx(5.0)

    # at a feasible unconstrained minimum the penalty gradient equals grad f = 0
    inactive = build_analytic_qp([[2.0]], [0.0], [[1.0]], [5.0]).problem
    assert grad_norm_estimate(inactive, spec, np.array([0.0])) == pytest.approx(0.0, abs=1e-12)


def test_practical_mode_deterministic_and_threads_state(tiny_encdec):
    prob = tiny_encdec.problem
    model = tiny_encdec.model
    params0 = model.init_params(np.random.default_rng(0))
    spec = PenaltySpec("linear", 10.0)
    cfg = SGDConfig(
        stepsize=1e-3,
        batch_size=4,
        mode="practical",
        budget=2,
        adam=AdamParams(weight_decay=1e-3),
        rng_seed=5,
        grad_norm="exact",
    )
    rep1 = sgd_run(prob, spec, params0, cfg)
    rep2 = sgd_run(prob, spec, params0, cfg)
    assert np.array_equal(rep1.candidate, rep2.candidate)
    assert rep1.grad_norm_estimate == rep2.grad_norm_estimate
    assert rep1.opt_state is not None and rep1.opt_state.step == rep1.iterate_count - 1

    # warm Adam moments change the continuation trajectory
    cont_warm = sgd_run(prob, spec, rep1.candidate, cfg, opt_state=rep1.opt_state)
    cont_cold = sgd_run(prob, spec, rep1.candidate, cfg)
    assert not np.array_equal(cont_warm.candidate, cont_cold.candidate)


def test_practical_mode_descends_on_average(free_quadratic):
    cfg = SGDConfig(stepsize=0.05, batch_size=1, mode="practical", budget=200, track_penalty=True)
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([2.0]), cfg)
    assert rep.trace[-1] < rep.trace[0] * 1e-3


def test_epoch_hook_called_per_epoch(free_quadratic):
    seen = []
    cfg = SGDConfig(stepsize=0.1, batch_size=1, mode="practical", budget=3)
    sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg, epoch_hook=lambda z: seen.append(z[0]))
    assert len(seen) == 3
    assert seen == sorted(seen, reverse=True)


def test_rate_improves_with_budget(constrained_qp):
    # median exact gradient norm at the sampled candidate should drop as budgets grow
    spec = PenaltySpec("quadratic", 100.0)
    medians = []
    for budget in (200, 800):
        norms = []
        for seed in range(10):
            cfg = SGDConfig(stepsize=1e-4, batch_size=1, budget=budget, rng_seed=seed)
            rep = sgd_run(constrained_qp, spec, np.array([0.0]), cfg)
            norms.append(grad_norm_estimate(constrained_qp, spec, rep.candidate))
        medians.append(float(np.median(norms)))
    assert medians[1] < medians[0] / 1.8


def _reference_adam_run(prob, spec, x0, cfg, state):
    """Out-of-place Adam over shuffled epochs: the textbook expressions, step by step."""
    rng = np.random.default_rng(cfg.rng_seed)
    adam = cfg.adam
    m, v, step = state
    z = x0.copy()
    n = prob.num_samples
    for _ in range(cfg.budget):
        for batch in epoch_batches(n, cfg.batch_size, rng):
            g = (1.0 / batch.size) * penalty_grad_batch(prob, spec, batch, z)
            g = g + adam.weight_decay * z
            step += 1
            m = adam.beta1 * m + (1.0 - adam.beta1) * g
            v = adam.beta2 * v + (1.0 - adam.beta2) * (g * g)
            m_hat = m / (1.0 - adam.beta1**step)
            v_hat = v / (1.0 - adam.beta2**step)
            z = z - cfg.stepsize * m_hat / (np.sqrt(v_hat) + adam.eps_hat)
    return z, (m, v, step)


def test_in_place_adam_matches_out_of_place_reference(tiny_encdec, monkeypatch):
    prob = tiny_encdec.problem
    # the blocked step runs over several blocks and a short last one
    monkeypatch.setattr(inner_mod, "ADAM_BLOCK", 64)
    assert prob.dim > 64 and prob.dim % 64 != 0
    params0 = tiny_encdec.model.init_params(np.random.default_rng(6))
    spec = PenaltySpec("quadratic", 30.0)
    for weight_decay in (1e-2, 0.0):
        cfg = SGDConfig(
            stepsize=1e-2, batch_size=5, mode="practical", budget=3, adam=AdamParams(weight_decay=weight_decay),
            rng_seed=9, grad_norm="none",
        )
        zeros = np.zeros(prob.dim)
        ref_z, (ref_m, ref_v, ref_step) = _reference_adam_run(prob, spec, params0, cfg, (zeros, zeros, 0))
        x0 = params0.copy()
        rep = sgd_run(prob, spec, x0, cfg)
        assert ref_step == rep.opt_state.step == 9
        assert np.array_equal(rep.candidate, ref_z)
        assert np.array_equal(rep.opt_state.m, ref_m)
        assert np.array_equal(rep.opt_state.v, ref_v)
        assert np.array_equal(x0, params0)

        # continuing from a saved state leaves the caller's state untouched
        state = AdamState(rep.opt_state.m.copy(), rep.opt_state.v.copy(), rep.opt_state.step)
        saved = state.copy()
        start = rep.candidate.copy()
        cont = sgd_run(prob, spec, start, cfg, opt_state=state)
        ref_z2, (ref_m2, ref_v2, _) = _reference_adam_run(
            prob, spec, rep.candidate, cfg, (saved.m, saved.v, saved.step)
        )
        assert np.array_equal(cont.candidate, ref_z2)
        assert np.array_equal(cont.opt_state.m, ref_m2)
        assert np.array_equal(cont.opt_state.v, ref_v2)
        assert np.array_equal(state.m, saved.m) and np.array_equal(state.v, saved.v) and state.step == saved.step
        assert np.array_equal(start, rep.candidate)


def test_epoch_hook_gets_arrays_that_do_not_change_later(free_quadratic):
    kept = []
    cfg = SGDConfig(stepsize=0.1, batch_size=1, mode="practical", budget=3)
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg, epoch_hook=kept.append)
    assert len({id(z) for z in kept}) == 3
    values = [z[0] for z in kept]
    assert values == sorted(values, reverse=True) and len(set(values)) == 3
    assert values[-1] == rep.candidate[0]
    assert kept[-1] is not rep.candidate


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and inf / inf precede the abort
@pytest.mark.parametrize("bad, first", [([250, 290], 250), ([290, 130, 250], 130), ([299], 299)])
def test_practical_divergence_reports_the_first_non_finite_coordinate(monkeypatch, bad, first):
    # the blocked Adam step must still abort at the step that made the iterate
    # non-finite and name its first bad coordinate, also when the bad entries
    # sit in late blocks and the earliest of them is not the first written
    monkeypatch.setattr(inner_mod, "ADAM_BLOCK", 64)
    dim, calls = 300, []

    def weighted_grad(indices, x, obj_w, con_w):
        calls.append(len(indices))
        g = np.ones(dim)
        if len(calls) == 3:
            g[bad] = [np.nan, np.inf, -np.inf][: len(bad)]
        return g

    problem = FiniteSumProblem(
        dim=dim, num_samples=4, num_constraints=1, normalization="mean",
        batch_objective=lambda indices, x: np.zeros(len(indices)),
        batch_constraints=lambda indices, x: np.zeros((len(indices), 1)),
        batch_weighted_grad=weighted_grad,
    )
    cfg = SGDConfig(stepsize=0.1, batch_size=2, mode="practical", budget=3, rng_seed=0, grad_norm="none")
    with pytest.raises(InnerSolverError, match=f"iteration 2, coordinate {first}$") as err:
        sgd_run(problem, PenaltySpec("linear", 1.0), np.zeros(dim), cfg)
    assert (err.value.iteration, err.value.coordinate) == (2, first)
    assert len(calls) == 3
