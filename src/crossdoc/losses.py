"""Contrastive objectives over paired, labeled, unit-norm embeddings.

The training objective is one supervised-contrastive term (SupCon, Khosla
et al. 2020) used four times: on (vision, vision) and (text, text) within
each modality, and on (vision, text) and (text, vision) across them.  For
anchor i the positives are the other same-class samples in the batch, and
the denominator runs over every index but i: an anchor's own index -- itself
within a modality, its paired sample across modalities -- is always out of
both.  Anchors without any positive contribute zero.  Terms are summed over
anchors (no 1/N); ``pretrain`` logs the per-anchor mean of the total beside
them.  ``cross_modal_contrastive_loss`` takes its two settings, the
temperature and the inter weight, as given: ``RunConfig`` checks them.
"""

from __future__ import annotations

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


def cross_modal_contrastive_loss(vision: Tensor, text: Tensor, labels, temperature: float,
                                 inter_weight: float) -> dict[str, Tensor]:
    """The combined objective ``total`` and its terms, gradient-carrying, in
    the order ``pretrain`` logs them, of unit-norm (N, d) ``vision`` and
    ``text`` embeddings, row i of each paired, with (N,) integer class
    ``labels``.  The intra pair and the weighted inter pair are each summed
    commutatively, so swapping the modalities leaves the total
    bit-identical.  At ``inter_weight`` 0 the inter terms are not computed,
    and are not in the record."""
    labels = np.asarray(labels)
    if vision.ndim != 2 or text.ndim != 2 or vision.shape != text.shape:
        raise ShapeError(
            f"batch embeddings must be matching (N, d): {vision.shape} vs {text.shape}")
    n = vision.shape[0]
    if n < 2:
        raise ContractError("contrastive batches need at least two samples")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match N={n}")
    for name, emb in (("vision", vision), ("text", text)):
        norms = np.sqrt((emb.data ** 2).sum(axis=-1))
        if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE[emb.data.dtype]:
            raise ContractError(f"{name} embeddings are not unit-norm")
    weights = positive_weights(labels)
    vv = contrastive_term(vision, vision, weights, temperature)
    ll = contrastive_term(text, text, weights, temperature)
    total = ad.add(vv, ll)
    if inter_weight == 0.0:
        return {"total": total, "vision_intra": vv, "text_intra": ll}
    lv = contrastive_term(vision, text, weights, temperature)
    vl = contrastive_term(text, vision, weights, temperature)
    total = ad.add(total, ad.scale(ad.add(lv, vl), inter_weight))
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
    return ad.cross_entropy_mean(logits, one_hot)
