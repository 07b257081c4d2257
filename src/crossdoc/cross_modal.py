"""Cross-modal encoder blocks.

One block runs two stages over the paired (vision, text) feature sequences,
both built on the one post-norm sub-layer ``transformer_layer``: attention,
then feed-forward, each wrapped in residual + layer norm.  Each step is two
nodes in the graph: ``multi_head_attention`` returns the context before
``w_o``, and ``feed_forward`` the GELU rows before ``fc2`` as one node with
``fc1``, which keeps GELU's derivative rather than the pre-activation; then
``layer_norm`` applies that output projection, the residual and the norm as
one node, so no array that only the norm or the GELU reads is kept for the
backward.

1. cross-attention exchange: each modality's sub-layer queries the other's
   keys/values;
2. gated self-attention: the stage-1 output is gated against the stage input
   (Hadamard product plus residual, one ``autodiff.gate`` node, mapped
   through a fully connected layer), then passed through a self-attention
   sub-layer.

Padded text is kept out of every attention by one array, the key bias
``encoders.token_embed`` returns (0 on a real token, -inf on [PAD]): it is
passed unchanged as ``text_bias``/``key_bias`` down to
``autodiff.attention_heads`` wherever text rows serve as keys.
Blocks preserve (rows, feature_dim) for both modalities and can be stacked.
A block built without a stage (an ablation variant) passes that stage's
input through unchanged and holds no parameters for it.
The stack ends with classification-row pooling and a per-modality projection
head onto the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import pool_cls
from .errors import ShapeError
from .nn import (
    FeedForwardParams,
    LayerNormParams,
    LinearParams,
    MHAParams,
    feed_forward,
    layer_norm,
    linear,
    multi_head_attention,
    project_and_normalize,
)


@dataclass
class LayerParams:
    """One post-norm transformer sub-layer."""

    attn: MHAParams
    norm_attn: LayerNormParams
    ff: FeedForwardParams
    norm_ff: LayerNormParams

    @classmethod
    def create(
        cls, rng: np.random.Generator, feature_dim: int, num_heads: int, count: int
    ) -> list["LayerParams"]:
        """``count`` sub-layers; every attention is drawn from ``rng`` before
        any feed-forward."""
        attns = [MHAParams.create(rng, feature_dim, num_heads) for _ in range(count)]
        return [
            cls(attn, LayerNormParams.create(feature_dim),
                FeedForwardParams.create(rng, feature_dim, feature_dim, feature_dim),
                LayerNormParams.create(feature_dim))
            for attn in attns
        ]


def transformer_layer(
    p: LayerParams, x: Tensor, kv: Tensor, key_bias: Optional[np.ndarray] = None
) -> Tensor:
    """``x`` attends to ``kv`` (``x`` itself for self-attention), then runs the
    feed-forward; each step's output projection (``w_o``, ``fc2``), residual
    and layer norm are one node."""
    context = multi_head_attention(p.attn, x, kv, key_bias=key_bias)
    mid = layer_norm(p.norm_attn, p.attn.w_o, context, residual=x)
    return layer_norm(p.norm_ff, p.ff.fc2, feed_forward(p.ff, mid), residual=mid)


@dataclass
class CrossAttentionBlockParams:
    """Parameters for one bidirectional cross-attention exchange."""

    into_vision: LayerParams  # queries: vision, keys/values: text
    into_text: LayerParams  # queries: text, keys/values: vision

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "CrossAttentionBlockParams":
        return cls(*LayerParams.create(rng, feature_dim, num_heads, count=2))


def cross_attention_block(
    p: CrossAttentionBlockParams,
    vision: Tensor,
    text: Tensor,
    text_bias: Optional[np.ndarray] = None,
) -> tuple[Tensor, Tensor]:
    """Exchange information across modalities; shapes are preserved.

    ``text_bias`` (``token_embed``'s key bias) masks padded text rows
    whenever text serves as keys; vision rows are never masked.
    """
    return (transformer_layer(p.into_vision, vision, text, key_bias=text_bias),
            transformer_layer(p.into_text, text, vision))


@dataclass
class GatedSelfAttentionParams:
    """One modality's gate-and-self-attend stage."""

    fuse: LinearParams  # feature_dim -> feature_dim
    layer: LayerParams

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "GatedSelfAttentionParams":
        fuse = LinearParams.create(rng, feature_dim, feature_dim)
        (layer,) = LayerParams.create(rng, feature_dim, num_heads, count=1)
        return cls(fuse, layer)


def gated_self_attention(
    p: GatedSelfAttentionParams,
    previous: Tensor,
    updated: Tensor,
    key_bias: Optional[np.ndarray] = None,
) -> Tensor:
    """Gate the updated features against the original ones, then self-attend.

    The gate multiplies the two feature sets elementwise and adds the
    originals back, as one ``autodiff.gate`` node, and maps the sum through
    the fusion layer; the fused rows then run a self-attention sub-layer.
    """
    if previous.shape != updated.shape:
        raise ShapeError(
            f"gate inputs must share a shape: {previous.shape} vs {updated.shape}"
        )
    fused = linear(p.fuse, ad.gate(updated, previous))
    return transformer_layer(p.layer, fused, fused, key_bias=key_bias)


@dataclass
class BlockParams:
    """One block's stages; a stage whose params are None is an identity
    pass-through, which is how the ablation variants are realized."""

    cross: Optional[CrossAttentionBlockParams]
    gate_vision: Optional[GatedSelfAttentionParams]
    gate_text: Optional[GatedSelfAttentionParams]

    @classmethod
    def create(
        cls, rng: np.random.Generator, feature_dim: int, num_heads: int,
        use_cross: bool, use_gate: bool,
    ) -> "BlockParams":
        """Draws only the enabled stages, in the order cross, gate_vision,
        gate_text."""
        cross = CrossAttentionBlockParams.create(rng, feature_dim, num_heads) if use_cross else None
        gates = [GatedSelfAttentionParams.create(rng, feature_dim, num_heads) if use_gate else None
                 for _ in range(2)]
        return cls(cross, *gates)


@dataclass
class CrossModalStack:
    """A depth-long pipeline of blocks plus pooling and projection heads."""

    blocks: list[BlockParams]
    head_vision: FeedForwardParams
    head_text: FeedForwardParams

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        feature_dim: int,
        num_heads: int,
        depth: int,
        hidden_dim: int,
        embed_dim: int,
        use_cross: bool,
        use_gate: bool,
    ) -> "CrossModalStack":
        return cls(
            blocks=[BlockParams.create(rng, feature_dim, num_heads, use_cross, use_gate)
                    for _ in range(depth)],
            head_vision=FeedForwardParams.create(rng, feature_dim, hidden_dim, embed_dim),
            head_text=FeedForwardParams.create(rng, feature_dim, hidden_dim, embed_dim),
        )

    def run_blocks(
        self,
        vision: Tensor,
        text: Tensor,
        text_bias: Optional[np.ndarray] = None,
    ) -> tuple[Tensor, Tensor]:
        """Apply every block, running each stage whose params are present."""
        v, t = vision, text
        for block in self.blocks:
            v_in, t_in = v, t
            if block.cross is not None:
                v, t = cross_attention_block(block.cross, v, t, text_bias)
            if block.gate_vision is not None:
                v = gated_self_attention(block.gate_vision, v_in, v)
            if block.gate_text is not None:
                t = gated_self_attention(block.gate_text, t_in, t, key_bias=text_bias)
        return v, t

    def forward(
        self,
        vision: Tensor,
        text: Tensor,
        text_bias: Optional[np.ndarray] = None,
    ) -> tuple[Tensor, Tensor]:
        """Blocks, then pooling and projection; returns unit-norm embeddings."""
        v, t = self.run_blocks(vision, text, text_bias)
        v_emb = project_and_normalize(self.head_vision, pool_cls(v))
        t_emb = project_and_normalize(self.head_text, pool_cls(t))
        return v_emb, t_emb
