import warnings

import numpy as np
import pytest

from gradcheck import central_diff_gradient, gradient_rel_error
from seqpen.tasks.mlp import (
    LayerSpec,
    Mlp,
    _apply_activation,
    ce_grad,
    ce_values,
    residual_mse,
    residual_mse_grad,
)


def test_identity_layer_passthrough():
    net = Mlp([LayerSpec(3, 3, "identity")])
    params = np.zeros(net.num_params)
    params[: 9] = np.eye(3).ravel()
    out, _ = net.forward(params, np.array([[1.0, -2.0, 3.0]]))
    assert np.allclose(out, [[1.0, -2.0, 3.0]])


def test_softmax_uniform_on_zero_logits():
    net = Mlp([LayerSpec(4, 10, "softmax")])
    params = np.zeros(net.num_params)
    out, _ = net.forward(params, np.zeros((1, 4)))
    assert np.allclose(out, 0.1)
    assert out.sum() == pytest.approx(1.0, abs=1e-6)


def test_relu_semantics():
    net = Mlp([LayerSpec(2, 2, "relu")])
    params = np.zeros(net.num_params)
    params[: 4] = np.eye(2).ravel()
    out, _ = net.forward(params, np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [[0.0, 2.0]])


def test_zero_output_gradient_gives_zero_parameter_gradient():
    net = Mlp([LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "sigmoid")])
    params = net.init_params(np.random.default_rng(0))
    out, cache = net.forward(params, np.random.default_rng(1).random((4, 3)))
    grad_params, grad_in = net.backward(params, cache, np.zeros_like(out))
    assert np.all(grad_params == 0.0)
    assert np.all(grad_in == 0.0)


def test_single_linear_unit_chain_rule():
    # y = w * x + b with loss = y: d/dw = x, d/db = 1
    net = Mlp([LayerSpec(1, 1, "identity")])
    params = np.array([2.0, 0.5])
    out, cache = net.forward(params, np.array([[3.0]]))
    assert out[0, 0] == pytest.approx(6.5)
    grad_params, _ = net.backward(params, cache, np.ones((1, 1)))
    assert grad_params == pytest.approx([3.0, 1.0])


def test_backward_matches_finite_differences():
    net = Mlp([LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "softmax")])
    rng = np.random.default_rng(2)
    inputs = rng.random((5, 4))
    target = rng.integers(0, 3, size=5)

    def loss(params):
        out, _ = net.forward(params, inputs)
        return float(ce_values(out, target).sum())

    for trial in range(3):
        params = net.init_params(np.random.default_rng(10 + trial))
        out, cache = net.forward(params, inputs)
        analytic, grad_in = net.backward(params, cache, ce_grad(out, target))
        fd = central_diff_gradient(loss, params, rel_step=1e-6)
        assert gradient_rel_error(analytic, fd) <= 1e-6
        assert grad_in.shape == inputs.shape
        # written into the caller's buffer, every entry overwritten; no input gradient unless asked
        buf = np.full(net.num_params, np.nan)
        written, no_grad_in = net.backward(params, cache, ce_grad(out, target), out=buf, input_grad=False)
        assert written is buf and no_grad_in is None
        assert np.array_equal(buf, analytic)


def test_backward_rejects_an_output_buffer_it_cannot_write_through():
    net = Mlp([LayerSpec(2, 2, "identity")])
    params = net.init_params(np.random.default_rng(3))
    _, cache = net.forward(params, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="contiguous float64"):
        net.backward(params, cache, np.ones((1, 2)), out=np.zeros(2 * net.num_params)[::2])


def test_stale_cache_rejected():
    net = Mlp([LayerSpec(2, 2, "identity")])
    params = net.init_params(np.random.default_rng(3))
    _, cache = net.forward(params, np.zeros((1, 2)))
    other = params + 1.0
    with pytest.raises(ValueError, match="stale cache"):
        net.backward(other, cache, np.zeros((1, 2)))


def test_layer_width_chain_validated():
    with pytest.raises(ValueError, match="chain"):
        Mlp([LayerSpec(2, 3, "relu"), LayerSpec(4, 1, "identity")])


def test_input_width_validated():
    net = Mlp([LayerSpec(3, 2, "relu")])
    with pytest.raises(ValueError, match="input width"):
        net.forward(np.zeros(net.num_params), np.zeros((1, 4)))


def test_ce_loss_values():
    assert ce_values(np.full(10, 0.1), 3)[0] == pytest.approx(np.log(10.0))
    probs = np.array([0.7, 0.2, 0.1])
    assert ce_values(probs, 0)[0] == pytest.approx(-np.log(0.7))


def test_ce_clamps_tiny_probabilities_with_warning():
    probs = np.array([[1.0, 0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="clamping"):
        val = ce_values(probs, np.array([2]))[0]
    assert val == pytest.approx(-np.log(1e-12))


def test_residual_mse():
    img = np.zeros((1, 784))
    assert residual_mse(img - img)[0] == 0.0
    assert residual_mse(np.full((1, 784), 0.1) - img)[0] == pytest.approx(0.01)
    diff = np.full((2, 784), -0.1)
    assert np.allclose(residual_mse(diff, out=diff), 0.01) and diff[0, 0] == pytest.approx(0.01)  # squared in place


def test_residual_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    target = rng.random(12)
    out = rng.random(12)
    fd = central_diff_gradient(lambda o: residual_mse((o - target)[None, :])[0], out, rel_step=1e-7)
    diff = (out - target)[None, :]
    grad = residual_mse_grad(diff)
    assert grad is diff  # written into the residual
    assert gradient_rel_error(grad[0], fd) <= 1e-7


def test_init_params_seeded_and_bounded():
    net = Mlp([LayerSpec(8, 4, "relu"), LayerSpec(4, 2, "softmax")])
    a = net.init_params(np.random.default_rng(9))
    b = net.init_params(np.random.default_rng(9))
    assert np.array_equal(a, b)
    (w1, b1), (w2, b2) = net.unpack(a)
    assert np.all(b1 == 0) and np.all(b2 == 0)
    assert np.abs(w1).max() <= np.sqrt(6.0 / 12.0)
    assert np.abs(w2).max() <= np.sqrt(6.0 / 6.0)


def test_sigmoid_extremes_without_warnings_and_close_to_masked_form():
    def masked_sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    z = np.concatenate([[-800.0, 800.0, -40.0, 40.0, 0.0], np.random.default_rng(0).normal(scale=6.0, size=2000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = _apply_activation("sigmoid", z.reshape(5, -1).copy())  # applied in place
    assert a.shape == (5, 401)
    assert np.abs(a.ravel() - masked_sigmoid(z)).max() <= 1e-15
    assert a.ravel()[0] == 0.0 and a.ravel()[1] == 1.0 and a.ravel()[4] == 0.5
    assert ((a >= 0.0) & (a <= 1.0)).all()
