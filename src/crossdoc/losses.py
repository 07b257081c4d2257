"""Contrastive objectives over paired, labeled, unit-norm embeddings.

The training objective is one supervised-contrastive term (SupCon, Khosla
et al. 2020) used four times: on (vision, vision) and (text, text) within
each modality, and on (vision, text) and (text, vision) across them.  For
anchor i the positives are the other same-class samples in the batch, and
the denominator runs over every index but i: an anchor's own index -- itself
within a modality, its paired sample across modalities -- is always out of
both.  Anchors without any positive contribute zero.  Terms are summed over
anchors (no 1/N); ``pretrain`` logs the per-anchor mean of the total beside
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, ShapeError

# How far from 1 an embedding's norm may be, per compute dtype.  The float32
# bound is about 80 of float32's epsilons (1.2e-7).
NORM_TOLERANCE = {np.dtype(np.float64): 1e-9, np.dtype(np.float32): 1e-5}


def positive_weights(labels: np.ndarray) -> np.ndarray:
    """Row-normalized positive-pair indicator: W[i, j] = 1/|pos(i)| on the
    same-class j != i.

    Rows whose anchor has no positive are all zero, implementing the
    contribute-zero rule.
    """
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(pos, 0.0)
    return pos / np.maximum(pos.sum(axis=1, keepdims=True), 1.0)


def contrastive_term(anchors: Tensor, others: Tensor, weights: np.ndarray,
                     temperature: float) -> Tensor:
    """The supervised contrastive sum of ``anchors`` (N, d) scored against
    ``others`` (N, d), with ``weights`` from ``positive_weights``; row i of
    ``others`` is anchor i's own index and stays out of its denominator."""
    return ad.contrastive_sum(ad.matmul(anchors, ad.transpose_last2(others)), weights, temperature)


@dataclass
class EmbeddingBatch:
    """Paired unit-norm embeddings with class labels and loss hyperparameters."""

    vision: Tensor  # (N, d), rows unit-norm
    text: Tensor  # (N, d), rows unit-norm, row i paired with vision row i
    labels: np.ndarray  # (N,) integer class ids
    temperature: float
    inter_weight: float

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        n = self.vision.shape[0] if self.vision.ndim == 2 else 0
        if self.vision.ndim != 2 or self.text.ndim != 2 or self.vision.shape != self.text.shape:
            raise ShapeError(
                f"batch embeddings must be matching (N, d): "
                f"{self.vision.shape} vs {self.text.shape}"
            )
        if n < 2:
            raise ContractError("contrastive batches need at least two samples")
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} does not match N={n}")
        for name, emb in (("vision", self.vision), ("text", self.text)):
            norms = np.sqrt((emb.data ** 2).sum(axis=-1))
            if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE[emb.data.dtype]:
                raise ContractError(f"{name} embeddings are not unit-norm")


def cross_modal_contrastive_loss(batch: EmbeddingBatch) -> dict[str, Tensor]:
    """The combined objective ``total`` and its terms, gradient-carrying, in
    the order ``pretrain`` logs them.  The intra pair and the weighted inter
    pair are each summed commutatively, so swapping the modalities leaves
    the total bit-identical.  At ``inter_weight`` 0 the inter terms are not
    computed, and are not in the record."""
    weights = positive_weights(batch.labels)
    t = batch.temperature
    vv = contrastive_term(batch.vision, batch.vision, weights, t)
    ll = contrastive_term(batch.text, batch.text, weights, t)
    total = ad.add(vv, ll)
    if batch.inter_weight == 0.0:
        return {"total": total, "vision_intra": vv, "text_intra": ll}
    lv = contrastive_term(batch.vision, batch.text, weights, t)
    vl = contrastive_term(batch.text, batch.vision, weights, t)
    total = ad.add(total, ad.scale(ad.add(lv, vl), batch.inter_weight))
    return {"total": total, "vision_intra": vv, "text_to_vision": lv,
            "text_intra": ll, "vision_to_text": vl}


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {logits.shape}")
    n, k = logits.shape
    if k < 2:
        raise ContractError("cross entropy needs at least two classes")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"label outside [0, {k}) in cross entropy")
    one_hot = np.zeros((n, k), dtype=logits.data.dtype)
    one_hot[np.arange(n), labels] = 1.0
    lse = ad.logsumexp_last(logits)
    true_logit = ad.tensor_sum(ad.mul(logits, Tensor(one_hot)), axis=-1)
    return ad.scale(ad.tensor_sum(ad.sub(lse, true_logit)), 1.0 / n)
