"""Parameterized building blocks: linear maps, the post-norm step, multi-head
attention, and the linear -> GELU -> linear MLP that serves both as the
feed-forward sublayer and as the projection head.

A transformer sub-layer's output projection (attention's ``w_o``, the
MLP's ``fc2``) is not applied by ``multi_head_attention`` or
``feed_forward``: it is the dense part of ``layer_norm``, so the projected
rows, which no adjoint reads, are never kept by the graph.  Likewise the
MLP's ``fc1`` is the dense part of its ``gelu`` node, so its pre-activation
rows are not kept either.

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
from .errors import NumericError, ShapeError


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
        return  # None (an absent stage), ints, floats and flags hold no parameters
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


def linear(p: LinearParams, x: Tensor) -> Tensor:
    """x @ W + b over the trailing axis of an (..., d_in) input, as one
    ``matmul`` node."""
    return ad.matmul(x, p.weight, p.bias)


LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


@dataclass
class LayerNormParams:
    gamma: Tensor  # (d,)
    beta: Tensor  # (d,)

    @classmethod
    def create(cls, d: int) -> "LayerNormParams":
        return cls(
            gamma=Tensor(np.ones(d), requires_grad=True),
            beta=Tensor(np.zeros(d), requires_grad=True),
        )


def layer_norm(norm: LayerNormParams, dense: LinearParams, h: Tensor,
               residual: Optional[Tensor] = None) -> Tensor:
    """The post-norm step: project ``h`` through ``dense``, add ``residual``
    (of the projection's shape) if given, then normalize the trailing axis
    to zero mean / unit variance and apply ``norm``'s affine, as one
    ``layer_norm_last`` node.  The projection is never a node of its own."""
    if dense.weight.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs trailing dim >= 2, got {dense.weight.shape}")
    return ad.layer_norm_last(h, dense.weight, dense.bias, norm.gamma, norm.beta,
                              LAYER_NORM_EPS, residual)


@dataclass
class FeedForwardParams:
    fc1: LinearParams
    fc2: LinearParams

    @classmethod
    def create(cls, rng: np.random.Generator, d: int, hidden: int, d_out: int) -> "FeedForwardParams":
        return cls(LinearParams.create(rng, d, hidden), LinearParams.create(rng, hidden, d_out))


def feed_forward(p: FeedForwardParams, x: Tensor) -> Tensor:
    """``gelu(fc1(x))`` over the trailing axis, as one ``gelu`` node that
    keeps GELU's derivative, not the pre-activation: the MLP up to ``fc2``,
    which its caller applies, with ``linear`` in the projection head and
    inside ``layer_norm`` in a transformer sub-layer."""
    return ad.gelu(x, p.fc1.weight, p.fc1.bias)


@dataclass
class MHAParams:
    w_q: LinearParams
    w_k: LinearParams
    w_v: LinearParams
    w_o: LinearParams
    num_heads: int  # attention_heads checks that the width splits into them

    @classmethod
    def create(cls, rng: np.random.Generator, feature_dim: int, num_heads: int) -> "MHAParams":
        return cls(
            w_q=LinearParams.create(rng, feature_dim, feature_dim),
            w_k=LinearParams.create(rng, feature_dim, feature_dim),
            w_v=LinearParams.create(rng, feature_dim, feature_dim),
            w_o=LinearParams.create(rng, feature_dim, feature_dim),
            num_heads=num_heads,
        )


def multi_head_attention(
    p: MHAParams,
    q_src: Tensor,
    kv_src: Tensor,
    key_bias: Optional[np.ndarray] = None,
) -> Tensor:
    """Scaled dot-product attention with per-head projections.

    ``q_src`` and ``kv_src`` are (.., rows, feature_dim); the output matches
    ``q_src``'s shape.  The three projections feed one fused
    ``attention_heads`` node, whose merged context is returned before
    ``w_o``: the caller applies ``w_o``, inside ``layer_norm``.
    ``key_bias`` is passed to that node unchanged: a (.., key rows) array
    added to every query's logits, 0 to keep a key and -inf to mask it, as
    ``encoders.token_embed`` returns it for text.  A query whose keys are
    all masked has no attention row; the node rejects it (``ContractError``).
    """
    context, _ = ad.attention_heads(
        linear(p.w_q, q_src), linear(p.w_k, kv_src), linear(p.w_v, kv_src), p.num_heads, key_bias)
    return context


def l2_normalize(x: Tensor, min_norm: float = 1e-12) -> Tensor:
    """Scale trailing-axis vectors to unit length; zero vectors are degenerate."""
    norm = ad.sqrt(ad.tensor_sum(ad.mul(x, x), axis=-1, keepdims=True))
    if np.any(norm.data < min_norm):
        raise NumericError("cannot normalize a (near-)zero embedding")
    return ad.div(x, norm)


def project_and_normalize(p: FeedForwardParams, x: Tensor) -> Tensor:
    """MLP projection (``feed_forward``, then ``fc2``) followed by L2
    normalization to the unit sphere."""
    return l2_normalize(linear(p.fc2, feed_forward(p, x)))
