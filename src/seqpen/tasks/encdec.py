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
from seqpen.tasks.mlp import LayerSpec, Mlp, ce_grad, ce_values, mse_grad, mse_values

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

    def predict(self, params: Array, images) -> Array:
        pe, pc, _ = self.split(params)
        codes, _ = self.encoder.forward(pe, images)
        probs, _ = self.classifier.forward(pc, codes)
        return probs

    def reconstruct(self, params: Array, images) -> Array:
        pe, _, pd = self.split(params)
        codes, _ = self.encoder.forward(pe, images)
        recon, _ = self.decoder.forward(pd, codes)
        return recon

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
        recon = None
        if callable(con_weights):
            recon, dec_cache = self.decoder.forward(pd, codes)
            con_weights = con_weights(mse_values(images, recon))
        con_w = np.asarray(con_weights, dtype=float).ravel()

        grad = np.zeros(self.num_params)
        grad_codes = np.zeros_like(codes)
        if obj_w.any():
            probs, cls_cache = self.classifier.forward(pc, codes)
            d_probs = obj_w[:, None] * ce_grad(probs, labels)
            g_cls, g_codes = self.classifier.backward(pc, cls_cache, d_probs)
            grad[self.classifier_slice] = g_cls
            grad_codes += g_codes
        if con_w.any():
            if recon is None:
                recon, dec_cache = self.decoder.forward(pd, codes)
            d_recon = con_w[:, None] * mse_grad(images, recon)
            g_dec, g_codes = self.decoder.backward(pd, dec_cache, d_recon)
            grad[self.decoder_slice] = g_dec
            grad_codes += g_codes
        g_enc, _ = self.encoder.backward(pe, enc_cache, grad_codes)
        grad[self.encoder_slice] = g_enc
        return grad


@dataclass
class EncDecTask:
    model: EncDecModel
    images: Array
    labels: Array
    theta: float
    problem: FiniteSumProblem = field(init=False)

    def __post_init__(self):
        self.problem = _task_problem(self.model, self.images, self.labels, self.theta)


def _task_problem(model: EncDecModel, images: Array, labels: Array, theta: float) -> FiniteSumProblem:
    n_samples = images.shape[0]

    def batch_objective(indices, x):
        probs = model.predict(x, images[indices])
        return ce_values(probs, labels[indices])

    def batch_constraints(indices, x):
        recon = model.reconstruct(x, images[indices])
        return (mse_values(images[indices], recon) - theta).reshape(-1, 1)

    def batch_weighted_grad(indices, x, obj_w, con_w):
        if callable(con_w):
            weights_of_g = con_w
            con_w = lambda mse: weights_of_g((mse - theta).reshape(-1, 1))
        return model.weighted_grad(x, images[indices], labels[indices], obj_w, con_w)

    return FiniteSumProblem(
        dim=model.num_params,
        num_samples=n_samples,
        num_constraints=1,
        normalization="mean",
        batch_objective=batch_objective,
        batch_constraints=batch_constraints,
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
    if dataset.num_samples == 0:
        raise ValueError("dataset is empty")
    model = EncDecModel(
        input_dim=dataset.images.shape[1],
        hidden_dim=hidden_dim,
        code_dim=code_dim,
        decoder_hidden_dim=decoder_hidden_dim,
    )
    return EncDecTask(model=model, images=dataset.images, labels=dataset.labels, theta=theta)


def evaluate_enc_dec(model: EncDecModel, params: Array, images: Array, labels: Array, theta: float) -> dict:
    """Table-style metrics for one split: ce, accuracy, mse, violation stats."""
    n = images.shape[0]
    ce_total = 0.0
    correct = 0
    mse_all = np.empty(n)
    for lo in range(0, n, EVAL_CHUNK):
        sl = slice(lo, min(lo + EVAL_CHUNK, n))
        probs, recon = model.predict_and_reconstruct(params, images[sl])
        ce_total += float(ce_values(probs, labels[sl]).sum())
        correct += int((probs.argmax(axis=1) == labels[sl]).sum())
        mse_all[sl] = mse_values(images[sl], recon)
    feasibility = feasibility_from_values(mse_all - theta)
    return {
        "ce_loss": ce_total / n,
        "accuracy": correct / n,
        "mse_loss": float(mse_all.mean()),
        "mean_violation": feasibility.mean_violation,
        "satisfied_fraction": feasibility.satisfied_fraction,
        "mse_per_sample": mse_all,
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
