"""Classification with a per-sample reconstruction constraint.

An encoder maps each image to a low-dimensional code; a classification head
predicts the digit and a decoder head reconstructs the image from the code.
The training problem minimizes mean cross entropy subject to one constraint
per sample: the reconstruction MSE must not exceed a threshold theta,

    min (1/N) sum_j ce(y_j, predict(x_j))
    s.t. mse(img_j, reconstruct(img_j)) - theta <= 0  for every j.

The task is exposed as a FiniteSumProblem with mean normalization and one
constraint per sample, with fused batch oracles: a minibatch gradient costs
one forward/backward pass per branch, and f and g come from one pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from seqpen.inner import SGDConfig, sgd_run
from seqpen.penalties import PenaltySpec
from seqpen.problems import SPLIT_CHUNK, Array, FiniteSumProblem, feasibility_from_values
from seqpen.tasks.data import ImageDataset, gather_pixels
from seqpen.tasks.mlp import LayerSpec, Mlp, ce_grad, ce_values, residual_mse, residual_mse_grad


def _float_pixels(images) -> Array:
    """``images`` as 2-D float rows; integer pixels (0-255) are refused, not run as they are."""
    images = np.asarray(images)
    if images.dtype.kind != "f":
        raise ValueError(f"images must be float pixels, got {images.dtype}; scale them with gather_pixels")
    return np.atleast_2d(images.astype(float, copy=False))


class EncDecModel:
    """Encoder trunk with a 10-class softmax classification head and a sigmoid decoder head."""

    def __init__(
        self,
        input_dim: int = 784,
        hidden_dim: int = 256,
        code_dim: int = 20,
        decoder_hidden_dim: int = 256,
    ):
        self.encoder = Mlp(
            [LayerSpec(input_dim, hidden_dim, "relu"), LayerSpec(hidden_dim, code_dim, "relu")]
        )
        self.classifier = Mlp([LayerSpec(code_dim, 10, "softmax")])
        self.decoder = Mlp(
            [LayerSpec(code_dim, decoder_hidden_dim, "relu"), LayerSpec(decoder_hidden_dim, input_dim, "sigmoid")]
        )
        e, c, d = self.encoder.num_params, self.classifier.num_params, self.decoder.num_params
        self.encoder_slice = slice(0, e)
        self.classifier_slice = slice(e, e + c)
        self.decoder_slice = slice(e + c, e + c + d)
        self.num_params = e + c + d

    def init_params(self, rng: np.random.Generator) -> Array:
        return np.concatenate(
            [self.encoder.init_params(rng), self.classifier.init_params(rng), self.decoder.init_params(rng)]
        )

    def split(self, params: Array):
        return params[self.encoder_slice], params[self.classifier_slice], params[self.decoder_slice]

    def predict_and_reconstruct(self, params: Array, images) -> tuple[Array, Array]:
        """Class probabilities and reconstructions from one encoder pass."""
        images = _float_pixels(images)
        pe, pc, pd = self.split(params)
        codes, _ = self.encoder.forward(pe, images)
        probs, _ = self.classifier.forward(pc, codes)
        recon, _ = self.decoder.forward(pd, codes)
        return probs, recon

    def weighted_grad(self, params: Array, images, labels, obj_weights, con_weights, out=None) -> Array:
        """sum_j obj_w[j] * grad ce_j + con_w[j] * grad mse_j in one fused pass.

        ``con_weights`` may also be a function that maps the per-sample
        reconstruction MSE of this pass's decoder output to the weights.
        The gradient is written into ``out`` (a fresh array when it is None)
        and returned.

        Branches whose weights are all zero are skipped entirely, so e.g.
        objective-only training never touches the decoder.
        """
        images = _float_pixels(images)
        obj_w = np.asarray(obj_weights, dtype=float).ravel()
        pe, pc, pd = self.split(params)
        codes, enc_cache = self.encoder.forward(pe, images)
        con_w = None if callable(con_weights) else np.asarray(con_weights, dtype=float).ravel()
        if con_w is None or con_w.any():
            recon, dec_cache = self.decoder.forward(pd, codes)
            residual = recon - images
            if con_w is None:
                con_w = np.asarray(con_weights(residual_mse(residual)), dtype=float).ravel()

        grad = np.empty(self.num_params) if out is None else out
        g_enc, g_cls, g_dec = self.split(grad)
        grad_codes = np.zeros_like(codes)
        if obj_w.any():
            probs, cls_cache = self.classifier.forward(pc, codes)
            d_probs = obj_w[:, None] * ce_grad(probs, labels)
            _, g_codes = self.classifier.backward(pc, cls_cache, d_probs, out=g_cls)
            grad_codes += g_codes
        else:
            g_cls.fill(0.0)
        if con_w.any():
            # con_w[:, None] times the MSE gradient, built in the residual recon - images
            d_recon = residual_mse_grad(residual)
            d_recon *= con_w[:, None]
            _, g_codes = self.decoder.backward(pd, dec_cache, d_recon, out=g_dec)
            grad_codes += g_codes
        else:
            g_dec.fill(0.0)
        self.encoder.backward(pe, enc_cache, grad_codes, out=g_enc, input_grad=False)
        return grad


def split_values(
    model: EncDecModel, params: Array, images: Array, labels: Array, rows: Array
) -> tuple[Array, Array, Array]:
    """Per-sample cross entropy, correctness and reconstruction MSE of ``images[rows]``.

    The rows are gathered (as floats, see ``gather_pixels``) and run through
    one encoder pass ``SPLIT_CHUNK`` at a time, so a pass never copies the
    whole split, and each chunk's MSE is computed in place in its
    reconstruction. ``SPLIT_CHUNK`` is the default training batch, so a
    784-wide chunk (0.8 MB) stays in L2 beside the layer weights and its
    GEMMs see the step's row count.
    """
    n = len(rows)
    ce, correct, mse = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    for lo in range(0, n, SPLIT_CHUNK):
        sl = slice(lo, lo + SPLIT_CHUNK)
        chunk_images, chunk_labels = gather_pixels(images, rows[sl]), labels[rows[sl]]
        probs, recon = model.predict_and_reconstruct(params, chunk_images)
        ce[sl] = ce_values(probs, chunk_labels)
        correct[sl] = probs.argmax(axis=1) == chunk_labels
        recon -= chunk_images
        mse[sl] = residual_mse(recon, out=recon)
        del probs, recon  # freed before the next chunk's pass allocates its own
    return ce, correct, mse


def _constraint(mse: Array, theta: float) -> Array:
    """The task's (N, 1) constraint values g_j = mse_j - theta."""
    return (mse - theta).reshape(-1, 1)


@dataclass
class EncDecTask:
    model: EncDecModel
    images: Array
    labels: Array
    theta: float
    problem: FiniteSumProblem = field(init=False)

    def __post_init__(self):
        # Closures over the arrays, not the task: a dropped task is freed without the cycle collector.
        model, images, labels, theta = self.model, self.images, self.labels, self.theta
        last = None  # (indices, SHA-256 of the params' bytes, values) of the latest pass

        def values(indices, params) -> tuple[Array, Array, Array]:
            """Read-only ``split_values`` of the samples in ``indices`` at ``params``.

            The latest pass is reused only when the indices equal its own and
            the parameters' bytes have its SHA-256 digest, so a record, the
            timeline and the final results at the same point share it. The
            memo keeps the digest, never the parameters or a reference to
            them, so a write into the caller's array is seen and no copy of
            the parameters outlives the call. The memo is one tuple, read once
            and replaced whole, so concurrent callers see a whole pass or
            none; it releases the previous pass before computing the next.
            """
            nonlocal last
            memo = last
            x = np.ascontiguousarray(params, dtype=float)
            digest = hashlib.sha256(x).digest()
            if memo is not None and memo[1] == digest and np.array_equal(memo[0], indices):
                return memo[2]
            last = memo = None
            rows = np.array(indices)
            vals = split_values(model, x, images, labels, rows)
            for v in vals:
                v.flags.writeable = False
            last = (rows, digest, vals)
            return vals

        def batch_weighted_grad(indices, x, obj_w, con_w, out):
            if callable(con_w):
                weights_of_g = con_w
                con_w = lambda mse: weights_of_g(_constraint(mse, theta))
            model.weighted_grad(x, gather_pixels(images, indices), labels[indices], obj_w, con_w, out=out)

        def batch_values(indices, x):
            ce, _, mse = values(indices, x)
            return ce, _constraint(mse, theta)

        self.values = values
        self.problem = FiniteSumProblem(
            dim=model.num_params,
            num_samples=images.shape[0],
            num_constraints=1,
            normalization="mean",
            batch_values=batch_values,
            batch_weighted_grad=batch_weighted_grad,
        )


def build_enc_dec_task(
    dataset: ImageDataset,
    theta: float,
    hidden_dim: int = 256,
    code_dim: int = 20,
    decoder_hidden_dim: int = 256,
) -> EncDecTask:
    """Wire a dataset into the constrained classification task."""
    if not np.isfinite(theta) or theta <= 0:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    model = EncDecModel(
        input_dim=dataset.images.shape[1],
        hidden_dim=hidden_dim,
        code_dim=code_dim,
        decoder_hidden_dim=decoder_hidden_dim,
    )
    return EncDecTask(model=model, images=dataset.images, labels=dataset.labels, theta=theta)


def evaluate_enc_dec(task: EncDecTask, params: Array) -> dict:
    """Table-style metrics for the task's split: ce, accuracy, mse, violation stats."""
    ce, correct, mse = task.values(np.arange(task.problem.num_samples), params)
    feasibility = feasibility_from_values(_constraint(mse, task.theta))
    return {
        "ce_loss": float(ce.mean()),
        "accuracy": float(correct.mean()),
        "mse_loss": float(mse.mean()),
        "mean_violation": feasibility.mean_violation,
        "satisfied_fraction": feasibility.satisfied_fraction,
        "mse_per_sample": mse,
    }


def warm_start(task: EncDecTask, params0: Array, config: SGDConfig, hook=None) -> Array:
    """Pretrain on the classification loss alone for ``config.budget`` epochs.

    Like ``sgd_run``, it ends with its result in ``params0`` and returns that
    array. Weight decay is held at zero here so branches that receive no loss
    gradient (the decoder) stay exactly at their initialization; Adam would
    otherwise turn pure decay gradients into full-size steps.
    """
    config = replace(config, weight_decay=0.0)
    sgd_run(task.problem, PenaltySpec("linear", 0.0), params0, config, hook=hook)
    return params0
