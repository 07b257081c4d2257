"""Parameterized building blocks: linear maps, layer norm, multi-head
attention, feed-forward sublayer, and the projection head.

Parameter containers are plain dataclasses of Tensors; ``named_tensors``
walks any tree of them so optimizers and checkpoints see every parameter
under a stable dotted name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericError, ShapeError


def named_tensors(tree, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Yield every Tensor in a parameter tree with its dotted path: dataclass
    fields in declaration order, list items numbered (``blocks.0``)."""
    if isinstance(tree, Tensor):
        yield prefix, tree
        return
    if isinstance(tree, list):
        children = enumerate(tree)
    elif is_dataclass(tree):
        children = ((f.name, getattr(tree, f.name)) for f in fields(tree))
    else:
        return  # ints, floats and flags hold no parameters
    for name, child in children:
        yield from named_tensors(child, f"{prefix}.{name}" if prefix else str(name))


def xavier_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


@dataclass
class LinearParams:
    weight: Tensor  # (d_in, d_out)
    bias: Tensor  # (d_out,)

    @classmethod
    def create(cls, rng: np.random.Generator, d_in: int, d_out: int) -> "LinearParams":
        return cls(
            weight=Tensor(xavier_uniform(rng, d_in, d_out), requires_grad=True),
            bias=Tensor(np.zeros(d_out), requires_grad=True),
        )

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]


def linear(p: LinearParams, x: Tensor) -> Tensor:
    """x @ W + b over the trailing axis."""
    if x.shape[-1] != p.d_in:
        raise ShapeError(f"linear expects trailing dim {p.d_in}, got {x.shape}")
    if x.ndim == 1:
        out = ad.matmul(ad.reshape(x, (1, -1)), p.weight)
        return ad.reshape(ad.add(out, p.bias), (p.d_out,))
    return ad.add(ad.matmul(x, p.weight), p.bias)


@dataclass
class LayerNormParams:
    gamma: Tensor  # (d,)
    beta: Tensor  # (d,)
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("layer norm epsilon must be positive")

    @classmethod
    def create(cls, d: int, epsilon: float = 1e-5) -> "LayerNormParams":
        return cls(
            gamma=Tensor(np.ones(d), requires_grad=True),
            beta=Tensor(np.zeros(d), requires_grad=True),
            epsilon=epsilon,
        )


def layer_norm(p: LayerNormParams, x: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs trailing dim >= 2, got {x.shape}")
    return ad.layer_norm_last(x, p.gamma, p.beta, p.epsilon)


@dataclass
class FeedForwardParams:
    fc1: LinearParams
    fc2: LinearParams

    @classmethod
    def create(cls, rng: np.random.Generator, d: int, hidden: Optional[int] = None) -> "FeedForwardParams":
        hidden = d if hidden is None else hidden
        return cls(LinearParams.create(rng, d, hidden), LinearParams.create(rng, hidden, d))


def feed_forward(p: FeedForwardParams, x: Tensor) -> Tensor:
    """Position-wise linear -> GELU -> linear, shape preserved."""
    return linear(p.fc2, ad.gelu(linear(p.fc1, x)))


@dataclass
class MHAParams:
    w_q: LinearParams
    w_k: LinearParams
    w_v: LinearParams
    w_o: LinearParams
    num_heads: int
    head_dim: int

    def __post_init__(self):
        if self.num_heads < 1:
            raise ConfigError("attention needs at least one head")
        if self.num_heads * self.head_dim != self.w_q.d_out:
            raise ConfigError(
                f"heads * head_dim must equal feature dim: "
                f"{self.num_heads} * {self.head_dim} != {self.w_q.d_out}"
            )

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "MHAParams":
        if feature_dim % num_heads != 0:
            raise ConfigError(f"feature dim {feature_dim} not divisible by {num_heads} heads")
        return cls(
            w_q=LinearParams.create(rng, feature_dim, feature_dim),
            w_k=LinearParams.create(rng, feature_dim, feature_dim),
            w_v=LinearParams.create(rng, feature_dim, feature_dim),
            w_o=LinearParams.create(rng, feature_dim, feature_dim),
            num_heads=num_heads,
            head_dim=feature_dim // num_heads,
        )


def multi_head_attention(
    p: MHAParams,
    q_src: Tensor,
    kv_src: Tensor,
    key_mask: Optional[np.ndarray] = None,
    return_weights: bool = False,
):
    """Scaled dot-product attention with per-head projections.

    ``q_src`` and ``kv_src`` are (.., rows, feature_dim); the output matches
    ``q_src``'s shape.  The three projections feed one fused
    ``attention_heads`` node; with ``return_weights`` its softmax weights
    come back as one constant (.., heads, q_rows, k_rows) tensor.
    ``key_mask`` marks attendable key rows with True; masked keys receive
    -inf logits before the softmax.  A query whose keys are all masked has
    no well-defined attention row and is rejected.
    """
    if q_src.shape[-1] != p.w_q.d_in or kv_src.shape[-1] != p.w_k.d_in:
        raise ShapeError(
            f"attention feature dims {q_src.shape[-1]}/{kv_src.shape[-1]} "
            f"do not match params ({p.w_q.d_in})"
        )
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if key_mask.shape[-1] != kv_src.shape[-2]:
            raise ShapeError(
                f"key mask length {key_mask.shape[-1]} != key rows {kv_src.shape[-2]}"
            )
        if not np.all(key_mask.any(axis=-1)):
            raise ContractError("attention with every key masked for some query")
        key_bias = np.where(key_mask, 0.0, -np.inf)
    else:
        key_bias = None

    context, att = ad.attention_heads(
        linear(p.w_q, q_src), linear(p.w_k, kv_src), linear(p.w_v, kv_src), p.num_heads, key_bias)
    out = linear(p.w_o, context)
    if return_weights:
        return out, Tensor(att)
    return out


@dataclass
class ProjectionHeadParams:
    """One-hidden-layer MLP mapping encoder features to the embedding space."""

    hidden: LinearParams  # feature_dim -> hidden_dim
    out: LinearParams  # hidden_dim -> embed_dim

    def __post_init__(self):
        if self.hidden.d_out < 1:
            raise ConfigError("projection hidden dim must be >= 1")
        if self.out.d_out < 2:
            raise ConfigError("projection output dim must be >= 2")

    @classmethod
    def create(
        cls, rng: np.random.Generator, feature_dim: int, hidden_dim: int, embed_dim: int
    ) -> "ProjectionHeadParams":
        return cls(
            hidden=LinearParams.create(rng, feature_dim, hidden_dim),
            out=LinearParams.create(rng, hidden_dim, embed_dim),
        )


def l2_normalize(x: Tensor, min_norm: float = 1e-12) -> Tensor:
    """Scale trailing-axis vectors to unit length; zero vectors are degenerate."""
    norm = ad.sqrt(ad.tensor_sum(ad.mul(x, x), axis=-1, keepdims=True))
    if np.any(norm.data < min_norm):
        raise NumericError("cannot normalize a (near-)zero embedding")
    return ad.div(x, norm)


def project_and_normalize(p: ProjectionHeadParams, x: Tensor) -> Tensor:
    """MLP projection followed by L2 normalization to the unit sphere."""
    return l2_normalize(linear(p.out, ad.gelu(linear(p.hidden, x))))
