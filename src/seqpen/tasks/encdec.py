"""Classification with a per-sample reconstruction constraint.

An encoder maps each image to a low-dimensional code; a classification head
predicts the digit and a decoder head reconstructs the image from the code.
The training problem minimizes mean cross entropy subject to one constraint
per sample: the reconstruction MSE must not exceed a threshold theta,

    min (1/N) sum_j ce(y_j, predict(x_j))
    s.t. mse(img_j, reconstruct(img_j)) - theta <= 0  for every j.

The task is exposed as a FiniteSumProblem with mean normalization and one
constraint per sample, with fused batch oracles so a whole minibatch costs
one forward/backward pass per branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from seqpen.inner import SGDConfig, sgd_run
from seqpen.penalties import PenaltySpec
from seqpen.problems import Array, FiniteSumProblem, feasibility_from_values
from seqpen.tasks.data import ImageDataset
from seqpen.tasks.mlp import LayerSpec, Mlp, ce_grad, ce_values, residual_mse, residual_mse_grad

# Rows per forward pass when evaluating a whole split.
EVAL_CHUNK = 512


class EncDecModel:
    """Encoder trunk with a softmax classification head and a sigmoid decoder head."""

    def __init__(
        self,
        input_dim: int = 784,
        hidden_dim: int = 256,
        code_dim: int = 20,
        decoder_hidden_dim: int = 256,
        num_classes: int = 10,
    ):
        self.encoder = Mlp(
            [LayerSpec(input_dim, hidden_dim, "relu"), LayerSpec(hidden_dim, code_dim, "relu")]
        )
        self.classifier = Mlp([LayerSpec(code_dim, num_classes, "softmax")])
        self.decoder = Mlp(
            [LayerSpec(code_dim, decoder_hidden_dim, "relu"), LayerSpec(decoder_hidden_dim, input_dim, "sigmoid")]
        )
        self.input_dim = input_dim
        self.num_classes = num_classes
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
        pe, pc, pd = self.split(params)
        codes, _ = self.encoder.forward(pe, images)
        probs, _ = self.classifier.forward(pc, codes)
        recon, _ = self.decoder.forward(pd, codes)
        return probs, recon

    def weighted_grad(self, params: Array, images, labels, obj_weights, con_weights) -> Array:
        """sum_j obj_w[j] * grad ce_j + con_w[j] * grad mse_j in one fused pass.

        ``con_weights`` may also be a function that maps the per-sample
        reconstruction MSE of this pass's decoder output to the weights.

        Branches whose weights are all zero are skipped entirely, so e.g.
        objective-only training never touches the decoder.
        """
        images = np.atleast_2d(np.asarray(images, dtype=float))
        obj_w = np.asarray(obj_weights, dtype=float).ravel()
        pe, pc, pd = self.split(params)
        codes, enc_cache = self.encoder.forward(pe, images)
        residual = None  # recon - images, computed once
        if callable(con_weights):
            recon, dec_cache = self.decoder.forward(pd, codes)
            residual = recon - images
            con_weights = con_weights(residual_mse(residual))
        con_w = np.asarray(con_weights, dtype=float).ravel()

        grad = np.empty(self.num_params)
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
            if residual is None:
                recon, dec_cache = self.decoder.forward(pd, codes)
                residual = recon - images
            # con_w[:, None] * mse_grad(images, recon), built in the residual
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

    The rows are gathered and run through one encoder pass ``EVAL_CHUNK`` at
    a time, so a pass never copies the whole split, and each chunk's MSE is
    computed in place in its reconstruction.
    """
    n = len(rows)
    ce, correct, mse = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    for lo in range(0, n, EVAL_CHUNK):
        sl = slice(lo, lo + EVAL_CHUNK)
        chunk_images, chunk_labels = images[rows[sl]], labels[rows[sl]]
        probs, recon = model.predict_and_reconstruct(params, chunk_images)
        ce[sl] = ce_values(probs, chunk_labels)
        correct[sl] = probs.argmax(axis=1) == chunk_labels
        recon -= chunk_images
        mse[sl] = residual_mse(recon, out=recon)
        del probs, recon  # freed before the next chunk's pass allocates its own
    return ce, correct, mse


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
        last = None  # (indices, params, values) of the latest pass

        def values(indices, params) -> tuple[Array, Array, Array]:
            """Read-only ``split_values`` of the samples in ``indices`` at ``params``.

            The latest pass is reused only when the indices and parameters
            equal its own by content, so a record, the timeline and the final
            results at the same point share it. The memo is one tuple, read
            once and replaced whole, so concurrent callers see a whole pass
            or none; it releases the previous pass before computing the next.
            """
            nonlocal last
            memo = last
            if memo is not None and np.array_equal(memo[0], indices) and np.array_equal(memo[1], params):
                return memo[2]
            last = memo = None
            rows, x = np.array(indices), np.array(params, dtype=float)
            vals = split_values(model, x, images, labels, rows)
            for v in vals:
                v.flags.writeable = False
            last = (rows, x, vals)
            return vals

        def batch_weighted_grad(indices, x, obj_w, con_w):
            if callable(con_w):
                weights_of_g = con_w
                con_w = lambda mse: weights_of_g((mse - theta).reshape(-1, 1))
            return model.weighted_grad(x, images[indices], labels[indices], obj_w, con_w)

        self.values = values
        self.problem = FiniteSumProblem(
            dim=model.num_params,
            num_samples=images.shape[0],
            num_constraints=1,
            normalization="mean",
            batch_objective=lambda indices, x: values(indices, x)[0],
            batch_constraints=lambda indices, x: (values(indices, x)[2] - theta).reshape(-1, 1),
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
    feasibility = feasibility_from_values(mse - task.theta)
    return {
        "ce_loss": float(ce.mean()),
        "accuracy": float(correct.mean()),
        "mse_loss": float(mse.mean()),
        "mean_violation": feasibility.mean_violation,
        "satisfied_fraction": feasibility.satisfied_fraction,
        "mse_per_sample": mse,
    }


def warm_start(task: EncDecTask, params0: Array, config: SGDConfig, epoch_hook=None) -> Array:
    """Pretrain on the classification loss alone for ``config.budget`` epochs.

    Weight decay is held at zero here so branches that receive no loss
    gradient (the decoder) stay exactly at their initialization; Adam would
    otherwise turn pure decay gradients into full-size steps.
    """
    config = replace(config, adam=replace(config.adam, weight_decay=0.0))
    report = sgd_run(task.problem, PenaltySpec("linear", 0.0), params0, config, epoch_hook=epoch_hook)
    return report.candidate
