"""Small fully connected networks with explicit forward/backward passes.

Parameters live in one flat float64 vector so the networks plug directly
into the generic problem abstraction. Layout per layer: weight matrix of
shape (fan_in, fan_out) in row-major order, then the bias vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("identity", "relu", "sigmoid", "softmax")

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


def _apply_activation(kind: str, z: Array) -> Array:
    """Apply the activation to ``z`` in place and return it."""
    if kind == "relu":
        np.maximum(0.0, z, out=z)
    elif kind == "sigmoid":
        # 0.5 * (1 + tanh(z / 2)): overflow-free for any z, no masking.
        z *= 0.5
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
    elif kind == "softmax":
        # rowwise, shifted for stability
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
    return z


def _activation_backward(kind: str, a: Array, grad_a: Array, overwrite: bool) -> Array:
    """d(loss)/d(pre-activation), written into ``grad_a`` with ``overwrite``; else ``grad_a`` is only read."""
    out = grad_a if overwrite else None
    if kind == "identity":
        return grad_a
    if kind == "relu":
        # Derivative at the kink is taken as 0. a > 0 exactly where the
        # pre-activation z > 0 (NaN and -0.0 included), since a = max(0, z).
        return np.multiply(grad_a, a > 0, out=out)
    if kind == "sigmoid":
        grad_z = np.multiply(grad_a, a, out=out)
        grad_z *= 1.0 - a
        return grad_z
    # softmax: J^T v = a * (v - <v, a>) rowwise
    dot = (grad_a * a).sum(axis=1, keepdims=True)
    grad_z = np.subtract(grad_a, dot, out=out)
    grad_z *= a
    return grad_z


class _Cache:
    """Forward activations retained for one backward pass."""

    __slots__ = ("params", "inputs", "post")

    def __init__(self, params, inputs, post):
        self.params = params
        self.inputs = inputs
        self.post = post


class Mlp:
    """Chain of dense layers acting on batches of row vectors."""

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError(f"layer widths do not chain: {prev.fan_out} -> {nxt.fan_in}")
        self.layers = layers
        self.input_dim = layers[0].fan_in
        self._slices = []
        offset = 0
        for spec in layers:
            w_size = spec.fan_in * spec.fan_out
            self._slices.append((offset, offset + w_size, offset + w_size + spec.fan_out))
            offset += w_size + spec.fan_out
        self.num_params = offset

    def init_params(self, rng: np.random.Generator) -> Array:
        """Uniform fan-balanced initialization; biases start at zero."""
        params = np.zeros(self.num_params)
        for spec, (w_lo, w_hi, _) in zip(self.layers, self._slices):
            bound = np.sqrt(6.0 / (spec.fan_in + spec.fan_out))
            params[w_lo:w_hi] = rng.uniform(-bound, bound, size=w_hi - w_lo)
        return params

    def unpack(self, params: Array):
        """Per-layer (W, b) views into the flat parameter vector."""
        if params.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got shape {params.shape}")
        out = []
        for spec, (w_lo, w_hi, b_hi) in zip(self.layers, self._slices):
            out.append((params[w_lo:w_hi].reshape(spec.fan_in, spec.fan_out), params[w_hi:b_hi]))
        return out

    def forward(self, params: Array, inputs) -> tuple[Array, _Cache]:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.input_dim:
            raise ValueError(f"input width {inputs.shape[1]} does not match first layer fan_in {self.input_dim}")
        post = []
        a = inputs
        for spec, (w, b) in zip(self.layers, self.unpack(params)):
            a = np.matmul(a, w)
            a += b
            post.append(_apply_activation(spec.activation, a))
        return a, _Cache(params, inputs, post)

    def backward(
        self, params: Array, cache: _Cache, grad_out, out=None, input_grad=True
    ) -> tuple[Array, Optional[Array]]:
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (flat parameter gradient, gradient w.r.t. the inputs). The
        parameter gradient is written into ``out`` when given (a float64
        vector of length ``num_params``, every entry overwritten) and into a
        new array otherwise. With ``input_grad=False`` the input gradient is
        not computed and is returned as None. The cache must come from a
        forward pass with the same parameters. ``grad_out`` is only read;
        below the top layer the activation backward works in place on the
        gradients this pass allocated itself.
        """
        if cache.params is not params and not np.array_equal(cache.params, params):
            raise ValueError("stale cache: backward called with different parameters than forward")
        grad_a = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if grad_a.shape != cache.post[-1].shape:
            raise ValueError(f"grad_out shape {grad_a.shape} does not match output shape {cache.post[-1].shape}")
        if out is not None and (out.dtype != np.float64 or not out.flags.c_contiguous):
            raise ValueError("out must be a contiguous float64 vector")
        grad_params = np.empty(self.num_params) if out is None else out
        weights = self.unpack(params)
        grads = self.unpack(grad_params)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer_in = cache.inputs if idx == 0 else cache.post[idx - 1]
            below_top = idx < len(self.layers) - 1
            # one name for the running gradient, so each layer's is freed as
            # soon as the next one down exists
            grad_a = _activation_backward(self.layers[idx].activation, cache.post[idx], grad_a, overwrite=below_top)
            grad_w, grad_b = grads[idx]
            np.matmul(layer_in.T, grad_a, out=grad_w)
            np.sum(grad_a, axis=0, out=grad_b)
            grad_a = grad_a @ weights[idx][0].T if idx > 0 or input_grad else None
        return grad_params, grad_a


def ce_values(probs: Array, labels) -> Array:
    """Per-row cross entropy -log p[label]; probabilities below 1e-12 are clamped."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=int))
    picked = probs[np.arange(probs.shape[0]), labels]
    if (picked < PROB_FLOOR).any():
        warnings.warn("cross entropy saw probabilities below 1e-12; clamping", RuntimeWarning)
        picked = np.maximum(picked, PROB_FLOOR)
    return -np.log(picked)


def ce_grad(probs: Array, labels) -> Array:
    """d(cross entropy)/d(probs), rows independent."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=int))
    rows = np.arange(probs.shape[0])
    grad = np.zeros_like(probs)
    grad[rows, labels] = -1.0 / np.maximum(probs[rows, labels], PROB_FLOOR)
    return grad


def residual_mse(diff: Array, out: Optional[Array] = None) -> Array:
    """Per-row MSE from the residual ``outputs - targets``; its square goes into ``out``, which may be ``diff``."""
    square = np.multiply(diff, diff, out=out)
    return square.mean(axis=1)


def residual_mse_grad(diff: Array) -> Array:
    """d(mse)/d(outputs) from the residual ``outputs - targets``, written into ``diff``."""
    diff *= 2.0
    diff /= diff.shape[1]
    return diff
