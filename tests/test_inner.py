import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from seqpen import (
    InnerSolverError,
    PenaltySpec,
    SGDConfig,
    grad_norm_estimate,
    iteration_budget,
    sgd_run,
)
import seqpen.inner as inner_mod
from seqpen.inner import MODES, AdamState
from seqpen.penalties import penalty_grad_batch, penalty_value_full
from seqpen.problems import FiniteSumProblem, epoch_batches
from seqpen.tasks.qp import build_analytic_qp, qp_registry

from conftest import make_per_sample_vertex_problem, make_random_problem


@pytest.fixture(scope="module")
def free_quadratic():
    # f = x^2 with a never-active box constraint, so P_tau = x^2 everywhere near 0.
    return build_analytic_qp([[2.0]], [0.0], [[1.0]], [100.0]).problem


@pytest.fixture(scope="module")
def constrained_qp():
    # min x^2 s.t. x >= 1
    return build_analytic_qp([[2.0]], [0.0], [[-1.0]], [-1.0]).problem


def _penalty_path(problem, spec, x0, cfg, **kwargs):
    """Run sgd_run, stepping x0, and return its report with the iterates and penalty values from x0 on."""
    iterates = [x0.copy()]
    rep = sgd_run(problem, spec, x0, cfg, hook=lambda z: iterates.append(z.copy()), **kwargs)
    return rep, iterates, [penalty_value_full(problem, spec, z) for z in iterates]


def test_hand_iterated_descent(free_quadratic):
    # gradient step on x^2 with eta = 0.25 halves the iterate each time
    cfg = SGDConfig(stepsize=0.25, batch_size=1, budget=3, candidate_rule="last")
    x0 = np.array([1.0])
    rep, iterates, trace = _penalty_path(free_quadratic, PenaltySpec("quadratic", 1.0), x0, cfg)
    assert np.concatenate(iterates) == pytest.approx([1.0, 0.5, 0.25, 0.125])
    assert trace == pytest.approx([1.0, 0.25, 0.0625, 0.015625])
    assert x0[0] == pytest.approx(0.125)
    assert rep.iterate_count == 4


def test_budget_zero_is_noop(free_quadratic):
    cfg = SGDConfig(stepsize=0.1, batch_size=1, budget=0)
    x0 = np.array([0.7])
    rep = sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), x0, cfg)
    assert x0[0] == 0.7
    assert rep.iterate_count == 1


def test_uniform_candidate_near_penalty_minimizer(constrained_qp):
    # tau = 100: the quadratic-penalty minimizer is tau / (2 + tau)
    spec = PenaltySpec("quadratic", 100.0)
    cfg = SGDConfig(stepsize=1e-3, batch_size=1, budget=10_000, rng_seed=0)
    x0 = np.array([0.0])
    _, iterates, _ = _penalty_path(constrained_qp, spec, x0, cfg)
    # the candidate, written into x0, is drawn from z^0 .. z^{budget-1}: the
    # start or one of the first budget - 1 hooked iterates
    assert any(np.array_equal(x0, z) for z in iterates[: cfg.budget])
    assert x0[0] == pytest.approx(100.0 / 102.0, abs=1e-2)


def test_determinism(constrained_qp):
    spec = PenaltySpec("quadratic", 10.0)
    cfg = SGDConfig(stepsize=1e-3, batch_size=1, budget=500, rng_seed=42)
    x1, x2 = np.array([0.3]), np.array([0.3])
    rep1, _, trace1 = _penalty_path(constrained_qp, spec, x1, cfg)
    rep2, _, trace2 = _penalty_path(constrained_qp, spec, x2, cfg)
    assert np.array_equal(x1, x2)
    assert trace1 == trace2
    assert rep1.grad_norm_estimate == rep2.grad_norm_estimate


def test_full_batch_descent_is_monotone(constrained_qp):
    tau = 50.0
    spec = PenaltySpec("quadratic", tau)
    smoothness = 2.0 + tau  # exact for this QP
    cfg = SGDConfig(stepsize=1.0 / smoothness, batch_size=1, budget=200, candidate_rule="last")
    _, _, trace = _penalty_path(constrained_qp, spec, np.array([-1.0]), cfg)
    diffs = np.diff(trace)
    assert (diffs <= 1e-12).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes the abort
def test_divergence_aborts_with_location(free_quadratic):
    cfg = SGDConfig(stepsize=1e12, batch_size=1, budget=400, candidate_rule="last")
    with pytest.raises(InnerSolverError, match=r"^non-finite iterate at iteration \d+, coordinate 0$"):
        sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg)


@pytest.mark.parametrize("weight_decay", [-1.0, np.nan, np.inf])
def test_sgd_config_rejects_weight_decay_that_cannot_train(weight_decay):
    with pytest.raises(ValueError, match="weight_decay must be finite and >= 0"):
        SGDConfig(stepsize=1e-3, batch_size=1, mode="practical", weight_decay=weight_decay)


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
        weight_decay=1e-3,
        rng_seed=5,
        grad_norm="exact",
    )
    state = AdamState(np.zeros(prob.dim), np.zeros(prob.dim), 0)
    x1, x2 = params0.copy(), params0.copy()
    rep1 = sgd_run(prob, spec, x1, cfg, opt_state=state)
    rep2 = sgd_run(prob, spec, x2, cfg)
    assert np.array_equal(x1, x2)
    assert rep1.grad_norm_estimate == rep2.grad_norm_estimate
    assert state.step == rep1.iterate_count - 1

    # warm Adam moments change the continuation trajectory
    warm, cold = x1.copy(), x1.copy()
    sgd_run(prob, spec, warm, cfg, opt_state=state)
    sgd_run(prob, spec, cold, cfg)
    assert not np.array_equal(warm, cold)


def test_practical_mode_descends_on_average(free_quadratic):
    cfg = SGDConfig(stepsize=0.05, batch_size=1, mode="practical", budget=200)
    _, _, trace = _penalty_path(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([2.0]), cfg)
    assert trace[-1] < trace[0] * 1e-3


@pytest.mark.parametrize("mode", MODES)
def test_hook_called_per_budget_unit(free_quadratic, mode):
    # one call per epoch in practical mode, per iteration in theoretical mode
    seen = []
    cfg = SGDConfig(stepsize=0.1, batch_size=1, mode=mode, budget=3, candidate_rule="last")
    sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg, hook=lambda z: seen.append(z[0]))
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
            x0 = np.array([0.0])
            sgd_run(constrained_qp, spec, x0, cfg)
            norms.append(grad_norm_estimate(constrained_qp, spec, x0))
        medians.append(float(np.median(norms)))
    assert medians[1] < medians[0] / 1.8


def _reference_adam_run(prob, spec, x0, cfg, state):
    """Out-of-place Adam over shuffled epochs: the textbook expressions, step by step."""
    rng = np.random.default_rng(cfg.rng_seed)
    m, v, step = state
    z = x0.copy()
    n = prob.num_samples
    for _ in range(cfg.budget):
        for batch in epoch_batches(n, cfg.batch_size, rng):
            g = (1.0 / batch.size) * penalty_grad_batch(prob, spec, batch, z)
            g = g + cfg.weight_decay * z
            step += 1
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            z = z - cfg.stepsize * m_hat / (np.sqrt(v_hat) + 1e-8)
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
            stepsize=1e-2, batch_size=5, mode="practical", budget=3, weight_decay=weight_decay,
            rng_seed=9, grad_norm="none",
        )
        zeros = np.zeros(prob.dim)
        ref_z, (ref_m, ref_v, ref_step) = _reference_adam_run(prob, spec, params0, cfg, (zeros, zeros, 0))
        x0 = params0.copy()
        state = AdamState(np.zeros(prob.dim), np.zeros(prob.dim), 0)
        m, v = state.m, state.v
        sgd_run(prob, spec, x0, cfg, opt_state=state)
        # the given state is advanced in place: the same arrays, now holding the reference's moments
        assert state.m is m and state.v is v
        assert ref_step == state.step == 9
        assert x0.tobytes() == ref_z.tobytes()
        assert np.array_equal(state.m, ref_m)
        assert np.array_equal(state.v, ref_v)

        # continuing it goes on from the saved moments and step
        saved = (state.m.copy(), state.v.copy(), state.step)
        start = x0.copy()
        sgd_run(prob, spec, start, cfg, opt_state=state)
        ref_z2, (ref_m2, ref_v2, ref_step2) = _reference_adam_run(prob, spec, x0, cfg, saved)
        assert state.m is m and state.v is v
        assert ref_step2 == state.step == 18
        assert start.tobytes() == ref_z2.tobytes()
        assert np.array_equal(state.m, ref_m2)
        assert np.array_equal(state.v, ref_v2)


@pytest.mark.parametrize("mode, rule", [("theoretical", "uniform"), ("theoretical", "last"), ("practical", "last")])
def test_every_hook_call_reads_the_units_iterate_through_a_read_only_view_of_x0(tiny_encdec, mode, rule):
    # z is a read-only view of x0, valid until the hook returns: the hook
    # copies it to keep it, and the copies equal the reference run's iterates
    prob, spec = tiny_encdec.problem, PenaltySpec("linear", 3.0)
    cfg = SGDConfig(stepsize=1e-2, batch_size=8, mode=mode, budget=3, rng_seed=5, candidate_rule=rule,
                    grad_norm="none")
    start = tiny_encdec.model.init_params(np.random.default_rng(4))
    x0, seen = start.copy(), []

    def hook(z):
        assert np.shares_memory(z, x0) and not z.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
        seen.append(z.copy())

    sgd_run(prob, spec, x0, cfg, hook=hook)
    if mode == "theoretical":
        want_candidate, want = _reference_theoretical_run(prob, spec, start, cfg)
    else:
        # an epoch's shuffle is the next draw of the run's one generator, so
        # the iterate after k epochs is the result of a k-epoch run
        want = []
        for budget in range(1, cfg.budget + 1):
            want.append(start.copy())
            sgd_run(prob, spec, want[-1], replace(cfg, budget=budget))
        want_candidate = want[-1]
    assert [z.tobytes() for z in seen] == [z.tobytes() for z in want]
    assert x0.tobytes() == want_candidate.tobytes() and x0.flags.writeable
    assert len({z.tobytes() for z in seen}) == cfg.budget


@pytest.mark.parametrize("mode", MODES)
def test_read_only_x0_is_rejected_before_any_step(free_quadratic, mode):
    # the run steps x0 in place, so the hook's read-only view cannot start another run
    kept = []
    cfg = SGDConfig(stepsize=0.1, batch_size=1, mode=mode, budget=3, candidate_rule="last")
    sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), np.array([1.0]), cfg, hook=kept.append)
    view, before = kept[-1], kept[-1].copy()
    with pytest.raises(ValueError, match=r"^x0 is read-only: "):
        sgd_run(free_quadratic, PenaltySpec("quadratic", 1.0), view, cfg, hook=kept.append)
    assert len(kept) == 3 and np.array_equal(view, before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and inf / inf precede the abort
@pytest.mark.parametrize("bad, first", [([250, 290], 250), ([290, 130, 250], 130), ([299], 299)])
def test_practical_divergence_reports_the_first_non_finite_coordinate(monkeypatch, bad, first):
    # the blocked Adam step must still abort at the step that made the iterate
    # non-finite and name its first bad coordinate, also when the bad entries
    # sit in late blocks and the earliest of them is not the first written
    monkeypatch.setattr(inner_mod, "ADAM_BLOCK", 64)
    dim, calls = 300, []

    def weighted_grad(indices, x, obj_w, con_w, out):
        calls.append(len(indices))
        out.fill(1.0)
        if len(calls) == 3:
            out[bad] = [np.nan, np.inf, -np.inf][: len(bad)]

    problem = FiniteSumProblem(
        dim=dim, num_samples=4, num_constraints=1, normalization="mean",
        batch_values=lambda indices, x: (np.zeros(len(indices)), np.zeros((len(indices), 1))),
        batch_weighted_grad=weighted_grad,
    )
    cfg = SGDConfig(stepsize=0.1, batch_size=2, mode="practical", budget=3, rng_seed=0, grad_norm="none")
    with pytest.raises(InnerSolverError, match=f"^non-finite iterate at iteration 2, coordinate {first}$"):
        sgd_run(problem, PenaltySpec("linear", 1.0), np.zeros(dim), cfg)
    assert len(calls) == 3


def _reference_theoretical_run(prob, spec, x0, cfg):
    """Out-of-place SGD with samples drawn with replacement: the textbook step, one draw per step.

    Returns the candidate and every iterate after x0."""
    rng = np.random.default_rng(cfg.rng_seed)
    n = prob.num_samples
    rule = cfg.candidate_rule or "uniform"
    pick = int(rng.integers(max(cfg.budget, 1))) if rule == "uniform" else None
    full = cfg.batch_size >= n
    batch = np.arange(n) if full else None
    scale = prob.estimator_scale(min(cfg.batch_size, n))
    z, candidate, iterates = x0.copy(), x0.copy(), []
    for t in range(cfg.budget):
        if pick == t:
            candidate = z.copy()
        if not full:
            batch = rng.integers(0, n, size=cfg.batch_size)
        g = scale * penalty_grad_batch(prob, spec, batch, z)
        z = z - cfg.stepsize * g
        iterates.append(z.copy())
    return (z.copy() if rule == "last" else candidate), iterates


@pytest.mark.parametrize("n", [1, 3, 7, 8, 1000, 6000, 2**31 + 5, 2**33 + 7])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 128])
def test_block_index_draws_equal_per_step_draws(n, batch_size):
    # the theoretical loop draws a block of steps' indices in one call; numpy
    # must give the same indices and leave the generator in the same state
    steps = 6
    per_step, block = np.random.default_rng(17), np.random.default_rng(17)
    want = [per_step.integers(0, n, size=batch_size) for _ in range(steps)]
    got = block.integers(0, n, size=(steps, batch_size))
    assert [row.tolist() for row in got] == [w.tolist() for w in want]
    assert block.bit_generator.state == per_step.bit_generator.state


REFERENCE_CASES = [("per_sample_mean", 2, 0.2), ("certified_qp", 1, 0.02), ("batch_oracle_sum", 3, 0.002)]


@pytest.mark.parametrize("rule", ["uniform", "last"])
@pytest.mark.parametrize("name, batch_size, stepsize", REFERENCE_CASES)
def test_theoretical_run_matches_the_out_of_place_reference_bit_for_bit(name, batch_size, stepsize, rule):
    _check_theoretical_run_against_the_reference(name, batch_size, stepsize, rule)


@pytest.mark.parametrize("rule", ["uniform", "last"])
def test_theoretical_run_drawing_several_index_blocks_matches_the_reference(monkeypatch, rule):
    # 7 indices a block: the 40 steps draw theirs in several blocks and a short last one
    monkeypatch.setattr(inner_mod, "DRAW_BLOCK", 7)
    for case in REFERENCE_CASES:
        _check_theoretical_run_against_the_reference(*case, rule)


def _check_theoretical_run_against_the_reference(name, batch_size, stepsize, rule):
    prob = {
        "per_sample_mean": lambda: make_per_sample_vertex_problem(seed=3)[0],
        "certified_qp": lambda: qp_registry()["sum_ge_2"].problem,
        "batch_oracle_sum": lambda: make_random_problem(3, 6, 2, seed=4, oracles="batch"),
    }[name]()
    x0 = np.linspace(-0.5, 0.5, prob.dim)
    for spec in (PenaltySpec("quadratic", 10.0), PenaltySpec("linear", 3.0)):
        cfg = SGDConfig(stepsize=stepsize, batch_size=batch_size, budget=40, rng_seed=7, candidate_rule=rule,
                        grad_norm="none")
        want_candidate, want_iterates = _reference_theoretical_run(prob, spec, x0, cfg)
        got, x = [], x0.copy()
        sgd_run(prob, spec, x, cfg, hook=lambda z: got.append(z.copy()))
        assert [z.tobytes() for z in got] == [z.tobytes() for z in want_iterates]
        assert x.tobytes() == want_candidate.tobytes()
        # the run moved off x0, so a dropped or doubled step would show
        assert not np.array_equal(got[-1], x0)


# Two entries near the largest float: each is finite, their sum is not (and numpy warns).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_theoretical_iterate_whose_sum_overflows_is_finite():
    prob = FiniteSumProblem(
        dim=2, num_samples=1, num_constraints=1,
        batch_values=lambda indices, x: (np.zeros(len(indices)), np.zeros((len(indices), 1))),
        batch_weighted_grad=lambda indices, x, obj_w, con_w, out: out.fill(0.0),
    )
    x0 = np.array([1.5e308, 1.5e308])
    # a zero gradient leaves the iterate where it is under both steps
    for mode in MODES:
        cfg = SGDConfig(stepsize=0.1, batch_size=1, mode=mode, budget=3, candidate_rule="last", grad_norm="none")
        kept = []
        sgd_run(prob, PenaltySpec("quadratic", 1.0), x0, cfg, hook=kept.append)
        assert len(kept) == 3
        assert np.array_equal(x0, [1.5e308, 1.5e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf precedes the abort
@pytest.mark.parametrize("bad, first", [([2, 5], 2), ([6, 1, 4], 1), ([7], 7)])
def test_theoretical_divergence_reports_the_first_non_finite_coordinate(bad, first):
    dim, calls = 8, []

    def weighted_grad(indices, x, obj_w, con_w, out):
        calls.append(len(indices))
        out.fill(1.0)
        if len(calls) == 4:
            out[bad] = [np.nan, np.inf, -np.inf][: len(bad)]

    prob = FiniteSumProblem(
        dim=dim, num_samples=5, num_constraints=1, normalization="mean",
        batch_values=lambda indices, x: (np.zeros(len(indices)), np.zeros((len(indices), 1))),
        batch_weighted_grad=weighted_grad,
    )
    cfg = SGDConfig(stepsize=0.1, batch_size=2, budget=6, rng_seed=0, grad_norm="none")
    with pytest.raises(InnerSolverError, match=f"^non-finite iterate at iteration 3, coordinate {first}$"):
        sgd_run(prob, PenaltySpec("linear", 1.0), np.zeros(dim), cfg)
    assert calls == [2, 2, 2, 2]


@pytest.mark.parametrize("rule, most", [("last", 2.5), ("uniform", 3.5)])
def test_theoretical_run_holds_few_parameter_size_arrays(rule, most):
    # the gradient buffer, plus the drawn iterate under rule uniform: the run
    # steps x0 itself and ends with the candidate in it (each bound leaves one
    # array of slack)
    dim = 10**6

    def weighted_grad(indices, x, obj_w, con_w, out):
        np.multiply(x, 1e-3, out=out)

    prob = FiniteSumProblem(
        dim=dim, num_samples=4, num_constraints=1,
        batch_values=lambda indices, x: (np.zeros(len(indices)), np.zeros((len(indices), 1))),
        batch_weighted_grad=weighted_grad,
    )
    x0 = np.ones(dim)
    cfg = SGDConfig(stepsize=0.1, batch_size=2, budget=5, rng_seed=0, candidate_rule=rule)
    tracemalloc.start()
    try:
        rep = sgd_run(prob, PenaltySpec("quadratic", 1.0), x0, cfg)
        peak, end = tracemalloc.get_traced_memory()[::-1]
    finally:
        tracemalloc.stop()
    assert peak <= most * x0.nbytes
    # the run returns holding no parameter-size array: the drawn iterate went back into x0
    assert end < 0.5 * x0.nbytes
    assert not np.array_equal(x0, np.ones(dim)) and rep.iterate_count == 6 and np.isfinite(rep.grad_norm_estimate)
