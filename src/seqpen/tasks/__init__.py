"""Concrete problems: analytic QPs with certified KKT solutions, the
encoder/classifier/decoder network task, and dataset handling."""

from seqpen.tasks.mlp import LayerSpec, Mlp, ce_values, ce_grad, mse_values, mse_grad
from seqpen.tasks.qp import AnalyticQP, QPCertificationError, build_analytic_qp, qp_registry
from seqpen.tasks.encdec import EncDecModel, EncDecTask, build_enc_dec_task, evaluate_enc_dec, warm_start
from seqpen.tasks.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    ImageDataset,
    load_idx_dataset,
    read_idx,
    synthetic_digits,
    write_idx,
    write_synthetic_idx,
)

__all__ = [
    "LayerSpec",
    "Mlp",
    "ce_values",
    "ce_grad",
    "mse_values",
    "mse_grad",
    "AnalyticQP",
    "QPCertificationError",
    "build_analytic_qp",
    "qp_registry",
    "EncDecModel",
    "EncDecTask",
    "build_enc_dec_task",
    "evaluate_enc_dec",
    "warm_start",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "IdxError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "ImageDataset",
    "load_idx_dataset",
    "read_idx",
    "write_idx",
    "synthetic_digits",
    "write_synthetic_idx",
]
