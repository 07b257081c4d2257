"""Contrastive objectives over paired, labeled, unit-norm embeddings.

The training objective combines four temperature-scaled terms: one
within-modality term per modality and one cross-modality term per anchor
direction.  Positives for an anchor are the other same-class samples in the
batch; by default an anchor's own paired sample in the other modality is
excluded from both its positives and its denominator.  Anchors without any
positive contribute zero.  Terms are summed over anchors (no 1/N); the
report exposes a per-anchor mean for logging only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DataError, ShapeError

NORM_TOLERANCE = 1e-9


def _positive_weights(labels: np.ndarray, include_self: bool) -> np.ndarray:
    """Row-normalized positive-pair indicator: W[i, j] = 1/|pos(i)| on positives.

    Rows whose anchor has no positive are all zero, implementing the
    contribute-zero rule.
    """
    labels = np.asarray(labels)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    if not include_self:
        np.fill_diagonal(pos, 0.0)
    counts = pos.sum(axis=1, keepdims=True)
    return pos / np.maximum(counts, 1.0)


def intra_modality_term(embeddings: Tensor, labels, temperature: float) -> Tensor:
    """Supervised contrastive sum within one modality.

    For each anchor i the candidates are all other samples of the same
    modality; the denominator runs over every k != i.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    if embeddings.ndim != 2:
        raise ShapeError(f"embeddings must be (N, d), got {embeddings.shape}")
    n = embeddings.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} embeddings")
    sim = ad.matmul(embeddings, ad.transpose_last2(embeddings))
    weights = _positive_weights(labels, include_self=False)
    return ad.contrastive_sum(sim, weights, temperature, exclude_diag=True)


def inter_modality_term(
    anchors: Tensor,
    others: Tensor,
    labels,
    temperature: float,
    include_own_pair: bool = False,
) -> Tensor:
    """Cross-modality contrastive sum: anchors score against the other
    modality's embeddings.

    By default index i (the anchor's own paired sample) is excluded from both
    positives and the denominator; ``include_own_pair`` lifts both exclusions.
    """
    if temperature <= 0.0:
        raise ConfigError("temperature must be positive")
    if anchors.shape != others.shape or anchors.ndim != 2:
        raise ShapeError(f"paired embeddings must match: {anchors.shape} vs {others.shape}")
    labels = np.asarray(labels)
    if labels.shape != (anchors.shape[0],):
        raise ShapeError("labels do not match batch size")
    sim = ad.matmul(anchors, ad.transpose_last2(others))
    weights = _positive_weights(labels, include_self=include_own_pair)
    return ad.contrastive_sum(sim, weights, temperature, exclude_diag=not include_own_pair)


@dataclass
class EmbeddingBatch:
    """Paired unit-norm embeddings with class labels and loss hyperparameters."""

    vision: Tensor  # (N, d), rows unit-norm
    text: Tensor  # (N, d), rows unit-norm, row i paired with vision row i
    labels: np.ndarray  # (N,) integer class ids
    temperature: float = 0.1
    inter_weight: float = 0.5
    include_own_pair: bool = False

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
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")
        if self.inter_weight < 0.0:
            raise ConfigError("inter-modality weight must be >= 0")
        for name, emb in (("vision", self.vision), ("text", self.text)):
            norms = np.sqrt((emb.data ** 2).sum(axis=-1))
            if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE:
                raise ContractError(f"{name} embeddings are not unit-norm")

    @property
    def size(self) -> int:
        return self.vision.shape[0]


@dataclass
class ContrastiveLossReport:
    """The combined objective and its four components (gradient-carrying)."""

    total: Tensor
    vision_intra: Tensor
    text_to_vision: Tensor
    text_intra: Tensor
    vision_to_text: Tensor
    batch_size: int = 0

    def values(self) -> dict[str, float]:
        out = {
            "total": self.total.item(),
            "vision_intra": self.vision_intra.item(),
            "text_to_vision": self.text_to_vision.item(),
            "text_intra": self.text_intra.item(),
            "vision_to_text": self.vision_to_text.item(),
        }
        if self.batch_size:
            out["total_per_anchor"] = out["total"] / self.batch_size
        return out


def cross_modal_contrastive_loss(batch: EmbeddingBatch) -> ContrastiveLossReport:
    """Combine the four terms; the intra pair and the weighted inter pair are
    each summed commutatively, so swapping the modalities leaves the total
    bit-identical."""
    vv = intra_modality_term(batch.vision, batch.labels, batch.temperature)
    ll = intra_modality_term(batch.text, batch.labels, batch.temperature)
    lv = inter_modality_term(batch.vision, batch.text, batch.labels,
                             batch.temperature, batch.include_own_pair)
    vl = inter_modality_term(batch.text, batch.vision, batch.labels,
                             batch.temperature, batch.include_own_pair)
    total = ad.add(ad.add(vv, ll), ad.scale(ad.add(lv, vl), batch.inter_weight))
    return ContrastiveLossReport(
        total=total,
        vision_intra=vv,
        text_to_vision=lv,
        text_intra=ll,
        vision_to_text=vl,
        batch_size=batch.size,
    )


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
    one_hot = np.zeros((n, k))
    one_hot[np.arange(n), labels] = 1.0
    lse = ad.logsumexp_last(logits)
    true_logit = ad.tensor_sum(ad.mul(logits, Tensor(one_hot)), axis=-1)
    return ad.scale(ad.tensor_sum(ad.sub(lse, true_logit)), 1.0 / n)
