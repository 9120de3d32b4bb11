import gc
import hashlib
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import seqpen.tasks.encdec as encdec_mod
from seqpen import (
    PenaltySpec,
    SGDConfig,
    constraint_jacobian,
    fixed_penalty_train,
    full_objective,
    kkt_residual,
    objective_grad_full,
    penalty_grad_full,
    penalty_value_full,
)
from gradcheck import central_diff_gradient, directional_diff, gradient_rel_error
from seqpen.inner import InnerReport
from seqpen.outer import _make_record
from seqpen.penalties import penalty_grad_batch
from seqpen.problems import full_weighted_grad
from seqpen.tasks.data import ImageDataset, gather_pixels
from seqpen.tasks.encdec import EncDecModel, build_enc_dec_task, evaluate_enc_dec, split_values, warm_start
from seqpen.tasks.mlp import LayerSpec, Mlp, ce_grad, ce_values, residual_mse, residual_mse_grad


@pytest.fixture(scope="module")
def seeded_params(tiny_encdec):
    return tiny_encdec.model.init_params(np.random.default_rng(42))


def objective_grad(prob, j, x):
    """Gradient of sample j's objective alone."""
    return prob.weighted_grad(np.array([j]), x, np.ones(1), np.zeros((1, prob.num_constraints)))


def test_problem_wiring(tiny_encdec, seeded_params):
    task, params = tiny_encdec, seeded_params
    prob = task.problem
    assert prob.normalization == "mean"
    assert prob.num_constraints == 1
    probs, recon = task.model.predict_and_reconstruct(params, task.images[3:4])
    f, g = prob.values([3], params)
    assert f[0] == pytest.approx(float(ce_values(probs, task.labels[3:4])[0]))
    expected_g = float(residual_mse(recon - task.images[3:4])[0]) - task.theta
    assert g[0, 0] == pytest.approx(expected_g)
    assert prob.constraints([3], params)[0, 0] == g[0, 0]


def test_constraint_is_mse_minus_theta_arithmetic():
    # a sample with reconstruction error 0.112 under theta = 0.01 violates by 0.102
    assert 0.112003 - 0.01 == pytest.approx(0.102003)


def test_batch_oracles_match_per_sample(tiny_encdec, seeded_params):
    prob = tiny_encdec.problem
    idx = np.array([0, 3, 7])
    vals, g = prob.values(idx, seeded_params)
    for row, j in enumerate(idx):
        f_j, g_j = prob.values([j], seeded_params)
        assert vals[row] == pytest.approx(f_j[0])
        assert g[row, 0] == pytest.approx(g_j[0, 0])
    obj_w = np.array([1.0, 0.5, 2.0])
    con_w = np.array([[0.0], [3.0], [1.0]])
    fused = prob.weighted_grad(idx, seeded_params, obj_w, con_w)
    stacked = sum(
        w * objective_grad(prob, j, seeded_params) + c[0] * constraint_jacobian(prob, j, seeded_params)[0]
        for j, w, c in zip(idx, obj_w, con_w)
    )
    assert np.allclose(fused, stacked, atol=1e-10)


def test_gradients_match_finite_differences(tiny_encdec, seeded_params):
    prob = tiny_encdec.problem
    j = 5

    fd_obj = central_diff_gradient(lambda p: prob.values([j], p)[0][0], seeded_params, rel_step=1e-6)
    assert gradient_rel_error(objective_grad(prob, j, seeded_params), fd_obj) <= 1e-4

    fd_con = central_diff_gradient(lambda p: prob.constraints([j], p)[0, 0], seeded_params, rel_step=1e-6)
    assert gradient_rel_error(constraint_jacobian(prob, j, seeded_params)[0], fd_con) <= 1e-4


def test_penalty_gradients_match_finite_differences(tiny_encdec, seeded_params):
    prob = tiny_encdec.problem
    for kind in ("quadratic", "linear"):
        spec = PenaltySpec(kind, 7.0)
        fd = central_diff_gradient(lambda p: penalty_value_full(prob, spec, p), seeded_params, rel_step=1e-6)
        assert gradient_rel_error(penalty_grad_full(prob, spec, seeded_params), fd) <= 1e-4


def test_decoder_zeroed_paths(tiny_encdec, seeded_params):
    task = tiny_encdec
    model = task.model
    params = seeded_params.copy()
    params[model.decoder_slice] = 0.0

    # constant reconstruction: sigmoid(0) = 0.5 for every pixel of every sample
    _, recon = model.predict_and_reconstruct(params, task.images[:5])
    assert np.allclose(recon, 0.5)

    # the constraint cannot see the classifier head
    jac = constraint_jacobian(task.problem, 2, params)[0]
    assert np.all(jac[model.classifier_slice] == 0.0)
    # and the objective cannot see the decoder
    obj_grad = objective_grad(task.problem, 2, params)
    assert np.all(obj_grad[model.decoder_slice] == 0.0)


def test_feasible_when_threshold_is_huge(tiny_encdec, seeded_params):
    roomy = build_enc_dec_task(
        ImageDataset(tiny_encdec.images, tiny_encdec.labels), theta=1e3,
        hidden_dim=14, code_dim=6, decoder_hidden_dim=10,
    )
    g = roomy.problem.constraints(np.arange(roomy.problem.num_samples), seeded_params)
    assert (g < 0).all()


def test_build_validation(tiny_encdec):
    with pytest.raises(ValueError, match="theta"):
        build_enc_dec_task(ImageDataset(tiny_encdec.images, tiny_encdec.labels), theta=0.0)


@pytest.mark.parametrize("theta", [-0.5, np.nan, np.inf])
def test_build_rejects_a_theta_that_cannot_train(tiny_encdec, theta):
    with pytest.raises(ValueError, match="theta must be positive and finite"):
        build_enc_dec_task(ImageDataset(tiny_encdec.images, tiny_encdec.labels), theta=theta)


def test_evaluate_metrics_shape(tiny_encdec, seeded_params):
    m = evaluate_enc_dec(tiny_encdec, seeded_params)
    assert 0.0 <= m["accuracy"] <= 1.0
    assert 0.0 <= m["satisfied_fraction"] <= 1.0
    assert m["mse_per_sample"].shape == (tiny_encdec.problem.num_samples,)
    assert m["mean_violation"] == pytest.approx(np.maximum(0.0, m["mse_per_sample"] - 0.01).mean())


def _fresh_task(tiny_encdec):
    """A task over tiny_encdec's data whose memo no other test has touched."""
    dataset = ImageDataset(tiny_encdec.images, tiny_encdec.labels)
    return build_enc_dec_task(dataset, theta=0.01, hidden_dim=14, code_dim=6, decoder_hidden_dim=10)


def _count_passes(monkeypatch):
    """Record the rows of every evaluation pass the task runs."""
    rows = []

    def counted(model, params, images, labels, indices):
        rows.append(len(indices))
        return split_values(model, params, images, labels, indices)

    monkeypatch.setattr(encdec_mod, "split_values", counted)
    return rows


def test_values_rerun_after_in_place_parameter_change(tiny_encdec, seeded_params, monkeypatch):
    task = _fresh_task(tiny_encdec)
    idx = np.arange(task.problem.num_samples)
    params = seeded_params.copy()
    passes = _count_passes(monkeypatch)
    before = task.problem.values(idx, params)[0].copy()
    assert np.array_equal(task.problem.values(idx, params.copy())[0], before)
    assert len(passes) == 1
    params[task.model.classifier_slice] += 0.5  # same array object, new contents
    after = task.problem.values(idx, params)[0]
    assert len(passes) == 2
    assert not np.array_equal(after, before)
    assert np.array_equal(after, split_values(task.model, params, task.images, task.labels, idx)[0])


def test_values_for_other_indices_run_their_own_pass(tiny_encdec, seeded_params, monkeypatch):
    task = _fresh_task(tiny_encdec)
    passes = _count_passes(monkeypatch)
    first = task.values(np.array([0, 1, 2]), seeded_params)
    second = task.values(np.array([3, 4, 5]), seeded_params)
    assert passes == [3, 3]
    for got, want in zip(second, split_values(task.model, seeded_params, task.images, task.labels, np.arange(3, 6))):
        assert np.array_equal(got, want)
    assert not np.array_equal(first[0], second[0])
    # equal contents in another container are served from the memo
    assert task.values([3, 4, 5], seeded_params.copy()) is second
    assert passes == [3, 3]


def test_values_keep_no_parameter_copy_once_the_caller_drops_its_params(tiny_encdec, seeded_params):
    task = _fresh_task(tiny_encdec)
    idx = np.arange(task.problem.num_samples)
    task.values(idx, seeded_params)
    tracemalloc.start()
    try:
        params = 0.5 * seeded_params
        task.values(idx, params)
        nbytes = params.nbytes
        del params
        kept = [trace.size for trace in tracemalloc.take_snapshot().traces if trace.size >= nbytes]
    finally:
        tracemalloc.stop()
    assert kept == []
    # the memo still serves the pass to equal parameters
    assert task.values(idx, 0.5 * seeded_params) is task.values(idx, 0.5 * seeded_params)


def test_network_oracles_refuse_integer_pixels(tiny_digits):
    train, _ = tiny_digits
    assert train.images.dtype == np.uint8
    model = EncDecModel()
    params = model.init_params(np.random.default_rng(0))
    rows = train.images[:4]
    with pytest.raises(ValueError, match="gather_pixels"):
        model.predict_and_reconstruct(params, rows)
    with pytest.raises(ValueError, match="gather_pixels"):
        model.weighted_grad(params, rows, train.labels[:4], np.ones(4), np.ones(4))
    probs, _ = model.predict_and_reconstruct(params, gather_pixels(train.images, np.arange(4)))
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_writing_into_returned_values_cannot_change_later_results(tiny_encdec, seeded_params):
    task = _fresh_task(tiny_encdec)
    idx = np.arange(task.problem.num_samples)
    expected = [v.copy() for v in task.values(idx, seeded_params)]
    for arr in (*task.values(idx, seeded_params), task.problem.values(idx, seeded_params)[0],
                evaluate_enc_dec(task, seeded_params)["mse_per_sample"]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 123.0
    g = task.problem.constraints(idx, seeded_params)
    g_before = g.copy()
    g += 1.0  # a fresh array: the caller may write into it
    assert np.array_equal(task.problem.constraints(idx, seeded_params), g_before)
    for got, want in zip(task.values(idx, seeded_params), expected):
        assert np.array_equal(got, want)


def test_record_objective_and_constraints_cost_one_pass(tiny_encdec, seeded_params, monkeypatch):
    task = _fresh_task(tiny_encdec)
    n = task.problem.num_samples
    passes = _count_passes(monkeypatch)
    config = SGDConfig(stepsize=1e-3, batch_size=5, mode="practical", budget=1, rng_seed=3, grad_norm="none")
    # the run steps its start in place, so it gets a copy of the module's shared parameters
    x = seeded_params.copy()
    rec = fixed_penalty_train(task.problem, 10.0, config, x).final()
    assert passes == [n]  # training reads no values; the record reads f and g from one pass
    ce, _, mse = split_values(task.model, x, task.images, task.labels, np.arange(n))
    assert rec.objective_value == float(task.problem.agg_scale * ce.sum())
    assert rec.feasibility.max_violation == float(np.maximum(0.0, mse - 0.01).max())


def test_record_hashes_the_parameters_once(tiny_encdec, seeded_params, monkeypatch):
    task = _fresh_task(tiny_encdec)
    digests = []

    def sha256(data):
        digests.append(len(memoryview(data).cast("B")))
        return hashlib.sha256(data)

    monkeypatch.setattr(encdec_mod, "hashlib", SimpleNamespace(sha256=sha256))
    report = InnerReport(iterate_count=1, grad_norm_estimate=float("nan"))
    _make_record(task.problem, PenaltySpec("linear", 10.0), 0, float("nan"), seeded_params.copy(), report)
    assert digests == [seeded_params.nbytes]


def test_values_releases_the_previous_pass_before_the_next(tiny_encdec, seeded_params, monkeypatch):
    task = _fresh_task(tiny_encdec)
    idx = np.arange(task.problem.num_samples)
    first = weakref.ref(task.values(idx, seeded_params)[0])
    alive = []

    def probed(*args):
        alive.append(first() is not None)
        return split_values(*args)

    monkeypatch.setattr(encdec_mod, "split_values", probed)
    task.values(idx, 0.5 * seeded_params)
    assert alive == [False]


def test_dropped_task_is_freed_without_the_cycle_collector(tiny_encdec, seeded_params):
    # a task holds its split and its latest pass; runs that build a task each
    # must not keep the old ones alive until the collector happens to run
    task = _fresh_task(tiny_encdec)
    evaluate_enc_dec(task, seeded_params)
    ref = weakref.ref(task)
    gc.disable()
    try:
        del task
        assert ref() is None
    finally:
        gc.enable()


def test_warm_start_trains_classifier_and_freezes_decoder(tiny_encdec, seeded_params):
    task = tiny_encdec
    model = task.model
    before = full_objective(task.problem, seeded_params)
    config = SGDConfig(stepsize=1e-3, batch_size=6, mode="practical", budget=30, rng_seed=1, grad_norm="none")
    trained = warm_start(task, seeded_params.copy(), config)
    after = full_objective(task.problem, trained)
    assert after < before
    assert np.array_equal(trained[model.decoder_slice], seeded_params[model.decoder_slice])
    assert not np.array_equal(trained[model.encoder_slice], seeded_params[model.encoder_slice])


def test_paper_architecture_dimensions_and_directional_gradients(tiny_digits):
    train, _ = tiny_digits
    task = build_enc_dec_task(ImageDataset(train.images[:16], train.labels[:16]), theta=0.01)
    model = task.model
    # 784 -> 256 -> 20 encoder, 20 -> 10 classifier, 20 -> 256 -> 784 decoder
    assert model.encoder.num_params == 784 * 256 + 256 + 256 * 20 + 20
    assert model.classifier.num_params == 20 * 10 + 10
    assert model.decoder.num_params == 20 * 256 + 256 + 256 * 784 + 784
    params = model.init_params(np.random.default_rng(0))
    probs, _ = model.predict_and_reconstruct(params, gather_pixels(train.images, np.arange(16)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    # full-size parameter space: audit the fused gradient along random directions
    prob = task.problem
    spec = PenaltySpec("quadratic", 5.0)
    grad = prob.agg_scale * penalty_grad_batch(prob, spec, np.arange(16), params)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.normal(size=params.size)
        v /= np.linalg.norm(v)
        fd = directional_diff(lambda p: penalty_value_full(prob, spec, p), params, v, rel_step=1e-7)
        assert abs(float(grad @ v) - fd) <= 1e-4 * max(1.0, abs(fd))


def _reference_forward(net, params, inputs):
    """Out-of-place forward pass keeping pre- and post-activations."""
    pre, post, a = [], [], inputs
    for spec, (w, b) in zip(net.layers, net.unpack(params)):
        z = a @ w + b
        if spec.activation == "relu":
            a = np.maximum(0.0, z)
        elif spec.activation == "sigmoid":
            a = z * 0.5
            np.tanh(a, out=a)
            a += 1.0
            a *= 0.5
        elif spec.activation == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            a = z
        pre.append(z)
        post.append(a)
    return inputs, pre, post


def _reference_backward(net, params, cache, grad_a):
    """Backward pass into fresh zeros, input gradient always computed."""
    inputs, pre, post = cache
    grad = np.zeros(net.num_params)
    weights, grads = net.unpack(params), net.unpack(grad)
    for idx in range(len(net.layers) - 1, -1, -1):
        kind, z, a = net.layers[idx].activation, pre[idx], post[idx]
        if kind == "relu":
            grad_z = grad_a * (z > 0)
        elif kind == "sigmoid":
            grad_z = grad_a * a * (1.0 - a)
        elif kind == "softmax":
            grad_z = a * (grad_a - (grad_a * a).sum(axis=1, keepdims=True))
        else:
            grad_z = grad_a
        layer_in = inputs if idx == 0 else post[idx - 1]
        grads[idx][0][...] = layer_in.T @ grad_z
        grads[idx][1][...] = grad_z.sum(axis=0)
        grad_a = grad_z @ weights[idx][0].T
    return grad, grad_a


def _reference_weighted_grad(model, params, images, labels, obj_w, con_w):
    pe, pc, pd = model.split(params)
    enc = _reference_forward(model.encoder, pe, images)
    codes = enc[2][-1]
    dec = None
    if callable(con_w):
        dec = _reference_forward(model.decoder, pd, codes)
        con_w = con_w(residual_mse(dec[2][-1] - images))
    con_w = np.asarray(con_w, dtype=float).ravel()
    grad = np.zeros(model.num_params)
    grad_codes = np.zeros_like(codes)
    if obj_w.any():
        cls = _reference_forward(model.classifier, pc, codes)
        g_cls, g_codes = _reference_backward(model.classifier, pc, cls, obj_w[:, None] * ce_grad(cls[2][-1], labels))
        grad[model.classifier_slice] = g_cls
        grad_codes += g_codes
    if con_w.any():
        if dec is None:
            dec = _reference_forward(model.decoder, pd, codes)
        d_recon = con_w[:, None] * residual_mse_grad(dec[2][-1] - images)
        g_dec, g_codes = _reference_backward(model.decoder, pd, dec, d_recon)
        grad[model.decoder_slice] = g_dec
        grad_codes += g_codes
    grad[model.encoder_slice] = _reference_backward(model.encoder, pe, enc, grad_codes)[0]
    return grad


@pytest.mark.parametrize("case", ["callable", "zero_con_w", "zero_obj_w", "short_batch"])
def test_weighted_grad_is_bit_identical_to_the_out_of_place_reference(case):
    model = EncDecModel()
    rng = np.random.default_rng(17)
    params = model.init_params(rng)
    rows = 80 if case == "short_batch" else 128
    images, labels = rng.random((rows, 784)), rng.integers(0, 10, size=rows)
    obj_w = np.zeros(rows) if case == "zero_obj_w" else rng.random(rows)
    con_w = np.zeros(rows) if case == "zero_con_w" else rng.random(rows)
    if case == "callable":
        con_w = lambda mse: 100.0 * (mse > np.median(mse))
    # a call with both branches on first, whose freed gradient the next call's
    # buffer reuses, so a slice left unwritten shows
    model.weighted_grad(params, images, labels, np.ones(rows), np.ones(rows))
    got = model.weighted_grad(params, images, labels, obj_w, con_w)
    want = _reference_weighted_grad(model, params, images, labels, obj_w, con_w)
    assert np.array_equal(got, want)
    if case == "zero_con_w":
        assert np.all(got[model.decoder_slice] == 0.0)
    if case == "zero_obj_w":
        assert np.all(got[model.classifier_slice] == 0.0)


def test_weighted_grad_makes_no_full_size_temporaries():
    # One constrained call at the desk shapes (413,174 parameters, 3.3 MB per
    # parameter-size array, batch 128, 0.8 MB per decoder-output-size array).
    # It peaks at 7.13 MB inside the decoder's backward: the gradient, the
    # batch activations, d_recon and the sigmoid backward's two temporaries.
    # The bound sits 0.47 MB above that, so one more parameter-size array, or
    # one more decoder-output-size temporary at the peak (a sigmoid backward
    # in three temporaries), fails it; the three zero-filled gradients and the
    # unused input gradient of the out-of-place formulation peaked at 12.3 MB.
    # The out-of-place activation backward meets this bound too: numpy's
    # temporary elision already ran its top-layer sigmoid in two temporaries,
    # so test_backward_below_the_top_layer_holds_two_gradients guards the
    # in-place part.
    model = EncDecModel()
    rng = np.random.default_rng(3)
    params = model.init_params(rng)
    images, labels = rng.random((128, 784)), rng.integers(0, 10, size=128)
    obj_w, con_w = np.ones(128), lambda mse: np.full(mse.shape, 100.0)
    model.weighted_grad(params, images, labels, obj_w, con_w)
    tracemalloc.start()
    try:
        model.weighted_grad(params, images, labels, obj_w, con_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.6e6


def test_backward_below_the_top_layer_holds_two_gradients():
    # Wide layers under a narrow top and a small parameter vector, written
    # into a caller buffer, so the layer gradients (1,024 x 512, 4.19 MB
    # each) make the peak. Working in place below the top layer, a pass holds
    # two of them at once: the sigmoid backward's gradient and its (1 - a),
    # or a layer's gradient and the next one down. It peaks at 8.39 MB; the
    # bound sits 1.61 MB above, so one more layer gradient fails it (a
    # previous layer's gradient kept alive read 12.59 MB), while the relu
    # mask (0.5 MB) fits. The out-of-place activation backward peaked at
    # 16.78 MB.
    rows, width = 1024, 512
    net = Mlp([
        LayerSpec(32, width, "sigmoid"),
        LayerSpec(width, width, "relu"),
        LayerSpec(width, width, "sigmoid"),
        LayerSpec(width, 8, "identity"),
    ])
    rng = np.random.default_rng(6)
    params = net.init_params(rng)
    _, cache = net.forward(params, rng.standard_normal((rows, 32)))
    grad_out, out = rng.standard_normal((rows, 8)), np.empty(net.num_params)
    tracemalloc.start()
    try:
        net.backward(params, cache, grad_out, out=out, input_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.0e6


def test_full_split_pass_does_not_copy_the_split(monkeypatch):
    # Small chunks and a narrow network keep a pass's own arrays far below
    # the split's 12.5 MB of images, so a copy of the split shows.
    monkeypatch.setattr(encdec_mod, "SPLIT_CHUNK", 64)
    rng = np.random.default_rng(8)
    images = rng.random((2000, 784))
    dataset = ImageDataset(images, rng.integers(0, 10, size=2000))
    task = build_enc_dec_task(dataset, theta=0.03, hidden_dim=32, code_dim=8, decoder_hidden_dim=32)
    params = task.model.init_params(rng)
    tracemalloc.start()
    try:
        evaluate_enc_dec(task, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 2


def _traced_peak(call):
    """tracemalloc peak of ``call()``, run once untraced first."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_split_pass_holds_one_chunk_at_a_time():
    # One full-split pass at the desk shapes: 2,000 rows in SPLIT_CHUNK = 128
    # row chunks, 0.8 MB per chunk of images or reconstructions. It peaks at
    # 2.00 MB: one gathered chunk, its reconstruction and the hidden layers.
    # The bound sits 0.5 MB above that, so one more chunk-size array fails
    # it, as do 512-row chunks (7.70 MB) and an MSE built in two temporaries
    # while the previous chunk's reconstruction is still alive (2.81 MB).
    # The pass also peaks below one 128-row training gradient into a caller
    # buffer (3.82 MB), so a run's peak is its training step, not its
    # evaluation.
    model = EncDecModel()
    rng = np.random.default_rng(4)
    params = model.init_params(rng)
    images, labels = rng.random((2000, 784)), rng.integers(0, 10, size=2000)
    rows, out = np.arange(2000), np.empty(model.num_params)
    con_w = lambda mse: np.full(mse.shape, 100.0)
    pass_peak = _traced_peak(lambda: split_values(model, params, images, labels, rows))
    step_peak = _traced_peak(
        lambda: model.weighted_grad(params, images[:128], labels[:128], np.ones(128), con_w, out=out)
    )
    assert pass_peak < 2.5e6
    assert pass_peak < step_peak


@pytest.fixture(scope="module")
def desk_6000():
    """The desk network on 6,000 random uint8 rows, every one violating, at its initial parameters."""
    rng = np.random.default_rng(27)
    dataset = ImageDataset(rng.integers(0, 256, size=(6000, 784), dtype=np.uint8), rng.integers(0, 10, size=6000))
    task = build_enc_dec_task(dataset, theta=0.01)
    return task.problem, task.model.init_params(rng)


def test_whole_split_gradient_holds_one_chunk_at_a_time(desk_6000):
    # penalty_grad_full at the desk shapes sums SPLIT_CHUNK = 128 row oracle
    # calls into one buffer. It peaks at 11.3 MB: the sum and one call's
    # buffer (3.3 MB each, 413,174 parameters) and one 128-row weighted_grad.
    # The bound sits 1.7 MB above that, less than one more parameter-size
    # array; the whole split as one batch peaked at 220 MB.
    prob, params = desk_6000
    spec = PenaltySpec("linear", 100.0)
    assert _traced_peak(lambda: penalty_grad_full(prob, spec, params)) < 13.0e6


def test_whole_split_gradients_match_one_batch_at_6000_rows(desk_6000):
    prob, params = desk_6000
    n = prob.num_samples
    lam = np.linspace(0.0, 2.0, n).reshape(-1, 1)

    def one_batch(obj_w, con_w):
        return prob.agg_scale * prob.weighted_grad(np.arange(n), params, obj_w, con_w)

    spec = PenaltySpec("linear", 100.0)
    pairs = [
        (penalty_grad_full(prob, spec, params), one_batch(np.ones(n), lambda g: 100.0 * (g > 0))),
        (objective_grad_full(prob, params), one_batch(np.ones(n), np.zeros((n, 1)))),
        (full_weighted_grad(prob, params, lam), one_batch(np.ones(n), lam)),
    ]
    for chunked, whole in pairs:
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()
    stationarity = kkt_residual(prob, params, lam).stationarity_residual
    assert stationarity == pytest.approx(float(np.linalg.norm(pairs[2][1])), rel=1e-12)


@pytest.mark.parametrize("top", ["identity", "relu", "sigmoid", "softmax"])
def test_backward_reads_grad_out_without_writing_it(top):
    # every activation once below the top layer, where the backward works in place
    net = Mlp([LayerSpec(9, 8, "relu"), LayerSpec(8, 7, "sigmoid"), LayerSpec(7, 6, "softmax"),
               LayerSpec(6, 5, "identity"), LayerSpec(5, 4, top)])
    rng = np.random.default_rng(21)
    params = net.init_params(rng)
    inputs = rng.normal(size=(11, 9))
    grad_out = rng.normal(size=(11, 4))
    saved = grad_out.copy()
    _, cache = net.forward(params, inputs)
    got, got_inputs = net.backward(params, cache, grad_out)
    assert np.array_equal(grad_out, saved)
    want, want_inputs = _reference_backward(net, params, _reference_forward(net, params, inputs), saved)
    assert np.array_equal(got, want)
    assert np.array_equal(got_inputs, want_inputs)
