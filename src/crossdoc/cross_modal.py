"""Cross-modal encoder blocks.

One block runs two stages over the paired (vision, text) feature sequences:

1. cross-attention exchange: each modality queries the other's keys/values,
   then residual + layer norm, feed-forward, residual + layer norm;
2. gated self-attention: the stage-1 output is gated against the stage input
   (Hadamard product plus residual, mapped through a fully connected layer),
   then passed through a standard self-attention transformer unit.

Blocks preserve (rows, feature_dim) for both modalities and can be stacked.
The stack ends with classification-row pooling and a per-modality projection
head onto the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import ModalityFeatures, pool_cls
from .errors import ConfigError, ShapeError
from .nn import (
    FeedForwardParams,
    LayerNormParams,
    LinearParams,
    MHAParams,
    ProjectionHeadParams,
    feed_forward,
    layer_norm,
    linear,
    multi_head_attention,
    project_and_normalize,
)


@dataclass
class CrossAttentionBlockParams:
    """Parameters for one bidirectional cross-attention exchange."""

    attn_into_vision: MHAParams  # queries: vision, keys/values: text
    attn_into_text: MHAParams  # queries: text, keys/values: vision
    norm_vision_attn: LayerNormParams
    norm_vision_ff: LayerNormParams
    norm_text_attn: LayerNormParams
    norm_text_ff: LayerNormParams
    ff_vision: FeedForwardParams
    ff_text: FeedForwardParams

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "CrossAttentionBlockParams":
        return cls(
            attn_into_vision=MHAParams.create(rng, feature_dim, num_heads),
            attn_into_text=MHAParams.create(rng, feature_dim, num_heads),
            norm_vision_attn=LayerNormParams.create(feature_dim),
            norm_vision_ff=LayerNormParams.create(feature_dim),
            norm_text_attn=LayerNormParams.create(feature_dim),
            norm_text_ff=LayerNormParams.create(feature_dim),
            ff_vision=FeedForwardParams.create(rng, feature_dim),
            ff_text=FeedForwardParams.create(rng, feature_dim),
        )


def cross_attention_block(
    p: CrossAttentionBlockParams,
    vision: ModalityFeatures,
    text: ModalityFeatures,
    text_mask: Optional[np.ndarray] = None,
) -> tuple[ModalityFeatures, ModalityFeatures]:
    """Exchange information across modalities; shapes are preserved.

    Padded text rows are masked whenever text serves as keys; vision rows are
    never masked.
    """
    if vision.feature_dim != text.feature_dim:
        raise ShapeError(
            f"modalities disagree on feature dim: {vision.feature_dim} vs {text.feature_dim}"
        )
    v, t = vision.tensor, text.tensor

    v_att = multi_head_attention(p.attn_into_vision, v, t, key_mask=text_mask)
    v_mid = layer_norm(p.norm_vision_attn, ad.add(v_att, v))
    v_out = layer_norm(p.norm_vision_ff, ad.add(feed_forward(p.ff_vision, v_mid), v_mid))

    t_att = multi_head_attention(p.attn_into_text, t, v, key_mask=None)
    t_mid = layer_norm(p.norm_text_attn, ad.add(t_att, t))
    t_out = layer_norm(p.norm_text_ff, ad.add(feed_forward(p.ff_text, t_mid), t_mid))

    return ModalityFeatures(v_out), ModalityFeatures(t_out)


@dataclass
class GatedSelfAttentionParams:
    """One modality's gate-and-self-attend stage."""

    fuse: LinearParams  # feature_dim -> feature_dim
    attn: MHAParams
    norm_attn: LayerNormParams
    norm_ff: LayerNormParams
    ff: FeedForwardParams

    def __post_init__(self):
        if self.fuse.d_in != self.fuse.d_out:
            raise ConfigError("fusion layer must preserve the feature dim")

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "GatedSelfAttentionParams":
        return cls(
            fuse=LinearParams.create(rng, feature_dim, feature_dim),
            attn=MHAParams.create(rng, feature_dim, num_heads),
            norm_attn=LayerNormParams.create(feature_dim),
            norm_ff=LayerNormParams.create(feature_dim),
            ff=FeedForwardParams.create(rng, feature_dim),
        )


def gated_self_attention(
    p: GatedSelfAttentionParams,
    previous: ModalityFeatures,
    updated: ModalityFeatures,
    key_mask: Optional[np.ndarray] = None,
) -> ModalityFeatures:
    """Gate the updated features against the original ones, then self-attend.

    The gate multiplies the two feature sets elementwise, adds the originals
    back, and maps the sum through the fusion layer.  The fused rows then run
    a self-attention sub-layer and a feed-forward sub-layer, each wrapped in
    residual + layer norm.
    """
    if previous.tensor.shape != updated.tensor.shape:
        raise ShapeError(
            f"gate inputs must share a shape: {previous.tensor.shape} vs {updated.tensor.shape}"
        )
    prev, new = previous.tensor, updated.tensor
    fused = linear(p.fuse, ad.add(ad.mul(new, prev), prev))
    att = multi_head_attention(p.attn, fused, fused, key_mask=key_mask)
    mid = layer_norm(p.norm_attn, ad.add(att, fused))
    out = layer_norm(p.norm_ff, ad.add(feed_forward(p.ff, mid), mid))
    return ModalityFeatures(out)


@dataclass
class BlockParams:
    cross: CrossAttentionBlockParams
    gate_vision: GatedSelfAttentionParams
    gate_text: GatedSelfAttentionParams

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "BlockParams":
        return cls(
            cross=CrossAttentionBlockParams.create(rng, feature_dim, num_heads),
            gate_vision=GatedSelfAttentionParams.create(rng, feature_dim, num_heads),
            gate_text=GatedSelfAttentionParams.create(rng, feature_dim, num_heads),
        )


@dataclass
class CrossModalStack:
    """A depth-long pipeline of blocks plus pooling and projection heads.

    ``use_cross`` / ``use_gate`` switch the corresponding stage to an identity
    pass-through (the stage's parameters stay allocated but unused), which is
    how the ablation variants are realized.
    """

    blocks: list[BlockParams] = field(default_factory=list)
    head_vision: ProjectionHeadParams = None
    head_text: ProjectionHeadParams = None
    use_cross: bool = True
    use_gate: bool = True

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError("stack depth must be >= 1")

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        feature_dim: int,
        num_heads: int,
        depth: int = 2,
        hidden_dim: Optional[int] = None,
        embed_dim: Optional[int] = None,
        use_cross: bool = True,
        use_gate: bool = True,
    ) -> "CrossModalStack":
        if depth < 1:
            raise ConfigError("stack depth must be >= 1")
        hidden_dim = feature_dim if hidden_dim is None else hidden_dim
        embed_dim = max(2, feature_dim // 2) if embed_dim is None else embed_dim
        return cls(
            blocks=[BlockParams.create(rng, feature_dim, num_heads) for _ in range(depth)],
            head_vision=ProjectionHeadParams.create(rng, feature_dim, hidden_dim, embed_dim),
            head_text=ProjectionHeadParams.create(rng, feature_dim, hidden_dim, embed_dim),
            use_cross=use_cross,
            use_gate=use_gate,
        )

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def run_blocks(
        self,
        vision: ModalityFeatures,
        text: ModalityFeatures,
        text_mask: Optional[np.ndarray] = None,
    ) -> tuple[ModalityFeatures, ModalityFeatures]:
        """Apply every block, honoring the identity-replacement switches."""
        v, t = vision, text
        for block in self.blocks:
            v_in, t_in = v, t
            if self.use_cross:
                v, t = cross_attention_block(block.cross, v, t, text_mask)
            if self.use_gate:
                v = gated_self_attention(block.gate_vision, v_in, v, key_mask=None)
                t = gated_self_attention(block.gate_text, t_in, t, key_mask=text_mask)
        return v, t

    def forward(
        self,
        vision: ModalityFeatures,
        text: ModalityFeatures,
        text_mask: Optional[np.ndarray] = None,
    ) -> tuple[Tensor, Tensor]:
        """Blocks, then pooling and projection; returns unit-norm embeddings."""
        v, t = self.run_blocks(vision, text, text_mask)
        v_emb = project_and_normalize(self.head_vision, pool_cls(v))
        t_emb = project_and_normalize(self.head_text, pool_cls(t))
        return v_emb, t_emb
