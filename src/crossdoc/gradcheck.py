"""The gradient audit: each differentiable block's adjoints against central
finite differences, in small dimensions, from one ``default_rng(2024)``
stream, so the report is the same to the byte on every run.  It reads no
run config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_check
from .config import RunConfig
from .cross_modal import CrossAttentionBlockParams, GatedSelfAttentionParams, cross_attention_block, gated_self_attention
from .encoders import DocumentLayout, TextEncoderParams, VisionEncoderParams, patch_embed, token_embed
from .errors import NumericError
from .losses import contrastive_term, cross_entropy, cross_modal_contrastive_loss, positive_weights
from .model import CrossModalModel
from .nn import FeedForwardParams, LayerNormParams, LinearParams, MHAParams, feed_forward, l2_normalize, layer_norm, linear, multi_head_attention, project_and_normalize

GRADCHECK_TOLERANCE = 1e-4  # max relative error a block's adjoint may show


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    passed: bool
    message: str = ""


def _standard_checks() -> list[tuple[str, Callable[[Tensor], Tensor], Tensor]]:
    """Small-dimension probes covering every differentiable block, each
    with respect to its input, then the parameter adjoints of a dense layer
    and a layer norm, the layer norm's residual adjoint, the post-norm
    step's dense weight and bias adjoints, the gate's ``previous``
    adjoint, the feed-forward's ``fc1`` weight and bias adjoints, and the
    adjoint of every encoder parameter."""
    rng = np.random.default_rng(2024)
    d, heads, rows, batch = 8, 2, 3, 4
    checks = []

    mha = MHAParams.create(rng, d, heads)
    kv = Tensor(rng.normal(size=(rows, d)))
    x_attn = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def attend(t):
        # The context, then ``w_o``: the attention half of a sub-layer.
        return linear(mha.w_o, multi_head_attention(mha, t, kv))

    checks.append(("multi_head_attention", lambda t: ad.tensor_sum(ad.mul(attend(t), attend(t))),
                   x_attn))

    cross = CrossAttentionBlockParams.create(rng, d, heads)
    other = Tensor(rng.normal(size=(rows, d)))
    x_cross = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_cross(t):
        # ``v_out`` is read out against a fixed array (see ``f_gate``),
        # drawn after every array of the first 18 entries, so their report
        # lines stay the same; ``t_out`` does not depend on ``into_vision``.
        v_out, t_out = cross_attention_block(cross, t, other)
        return ad.add(ad.tensor_sum(ad.mul(v_out, cross_target)),
                      ad.tensor_sum(ad.exp(ad.scale(t_out, 0.1))))

    checks.append(("cross_attention_block", f_cross, x_cross))

    gate = GatedSelfAttentionParams.create(rng, d, heads)
    prev = Tensor(rng.normal(size=(rows, d)))
    x_gate = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_gate(t):
        # Read out against a fixed array: a squared readout of a layer norm
        # with unit gamma and zero beta is all but constant, so its gradient
        # is all but zero and passes whatever the adjoints compute.
        return ad.tensor_sum(ad.mul(gated_self_attention(gate, prev, t), prev))

    checks.append(("gated_self_attention", f_gate, x_gate))

    head = FeedForwardParams.create(rng, d, d, 4)
    target = Tensor(rng.normal(size=4))
    x_head = Tensor(rng.normal(size=d), requires_grad=True)
    checks.append((
        "projection_head",
        lambda t: ad.tensor_sum(ad.mul(project_and_normalize(head, t), target)),
        x_head,
    ))

    labels = rng.integers(0, 2, size=batch)
    raw_t = Tensor(rng.normal(size=(batch, 4)))

    def f_crosscl(t):
        return cross_modal_contrastive_loss(l2_normalize(t), l2_normalize(raw_t), labels, 0.1, 0.5)["total"]

    x_loss = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
    checks.append(("cross_modal_contrastive_loss", f_crosscl, x_loss))

    x_intra = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)

    def f_intra(t):
        e = l2_normalize(t)
        return contrastive_term(e, e, positive_weights(labels), 0.1)

    checks.append(("intra_modality_term", f_intra, x_intra))

    ce_labels = rng.integers(0, 3, size=batch)
    x_ce = Tensor(rng.normal(size=(batch, 3)), requires_grad=True)
    checks.append(("cross_entropy", lambda t: cross_entropy(t, ce_labels), x_ce))

    tiny = RunConfig(feature_dim=d, num_heads=heads, depth=2, hidden_dim=d,
                     embed_dim=4, image_size=8, patch_size=4, vocab_size=16,
                     classes=2, samples_per_class=10, seed=5)
    model = CrossModalModel.create(tiny)
    ids = np.array([[1, 5, 4, 2, 0], [1, 7, 2, 0, 0], [1, 9, 9, 2, 0], [1, 4, 2, 0, 0]])
    loss_labels = np.array([0, 0, 1, 1])

    def f_model(raw_vision):
        # raw vision features in, full depth-2 stack and loss on top
        text, text_bias = token_embed(model.text_encoder, model.layout, ids)
        v_emb, t_emb = model.stack.forward(raw_vision, text, text_bias)
        return cross_modal_contrastive_loss(v_emb, t_emb, loss_labels, 0.1, 0.5)["total"]

    x_model = Tensor(rng.normal(size=(batch, 5, d)), requires_grad=True)
    checks.append(("full_stack_loss", f_model, x_model))

    # The layer norm's own entries project through the identity, which
    # leaves every row unchanged; ``layer_norm.dense.*`` probe a drawn one.
    identity = LinearParams(Tensor(np.eye(d)), Tensor(np.zeros(d)))
    norm = LayerNormParams(Tensor(rng.normal(size=d)), Tensor(rng.normal(size=d)))
    norm_target = Tensor(rng.normal(size=(rows, d)))
    x_norm = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    checks.append((
        "layer_norm",
        lambda t: ad.tensor_sum(ad.mul(layer_norm(norm, identity, t), norm_target)), x_norm,
    ))

    k_heads, v_heads = (Tensor(rng.normal(size=(batch, rows + 1, d))) for _ in range(2))
    key_bias = np.where(np.arange(rows + 1) < rows, 0.0, -np.inf)  # last key masked
    heads_target = Tensor(rng.normal(size=(batch, rows, d)))
    x_heads = Tensor(rng.normal(size=(batch, rows, d)), requires_grad=True)
    checks.append((
        "attention_heads",
        lambda t: ad.tensor_sum(ad.mul(
            ad.attention_heads(t, k_heads, v_heads, heads, key_bias)[0], heads_target)),
        x_heads,
    ))

    # Parameter adjoints and the residual's, each under a squared readout.
    # The dense layer's input is 3-d, so its bias gradient sums over two axes.
    dense = LinearParams(Tensor(rng.normal(size=(d, d)), requires_grad=True),
                         Tensor(rng.normal(size=d), requires_grad=True))
    x_dense = Tensor(rng.normal(size=(batch, rows, d)))
    ln = LayerNormParams(Tensor(rng.normal(size=d), requires_grad=True),
                         Tensor(rng.normal(size=d), requires_grad=True))
    x_ln = Tensor(rng.normal(size=(rows, d)))
    x_residual = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def squared(out):
        return ad.tensor_sum(ad.mul(out, out))

    checks += [
        ("linear.weight",
         lambda w: squared(linear(LinearParams(w, dense.bias), x_dense)), dense.weight),
        ("linear.bias",
         lambda b: squared(linear(LinearParams(dense.weight, b), x_dense)), dense.bias),
        ("layer_norm.gamma",
         lambda g: squared(layer_norm(LayerNormParams(g, ln.beta), identity, x_ln)), ln.gamma),
        ("layer_norm.beta",
         lambda b: squared(layer_norm(LayerNormParams(ln.gamma, b), identity, x_ln)), ln.beta),
        ("layer_norm.residual",
         lambda r: squared(layer_norm(ln, identity, x_ln, residual=r)), x_residual),
    ]

    # The post-norm step's dense weight and bias, on a 3-d input with a
    # residual, and the gate's ``previous`` parent (both of its
    # contributions), with the update held constant.
    post = LinearParams(Tensor(rng.normal(size=(d, d)), requires_grad=True),
                        Tensor(rng.normal(size=d), requires_grad=True))
    x_post, r_post = (Tensor(rng.normal(size=(batch, rows, d))) for _ in range(2))
    updated = Tensor(rng.normal(size=(rows, d)))
    x_prev = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    checks += [
        ("layer_norm.dense.weight",
         lambda w: squared(layer_norm(ln, LinearParams(w, post.bias), x_post, r_post)), post.weight),
        ("layer_norm.dense.bias",
         lambda b: squared(layer_norm(ln, LinearParams(post.weight, b), x_post, r_post)), post.bias),
        ("gated_self_attention.previous",
         lambda t: ad.tensor_sum(ad.mul(gated_self_attention(gate, t, updated), updated)), x_prev),
    ]

    cross_target = Tensor(rng.normal(size=(rows, d)))

    # The feed-forward node's dense weight and bias, on a 3-d input, and
    # every encoder parameter, from a batch of raw pixels and of token ids,
    # some ids repeated so that the table's scatter-add sums.  Each entry's
    # input is the parameter itself, which its readout reads in place.
    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    ff = FeedForwardParams(LinearParams(param(d, d), param(d)), identity)
    x_ff = Tensor(rng.normal(size=(batch, rows, d)))
    layout = DocumentLayout(image_size=4, channels=2, patch_size=2, vocab_size=16)
    vision = VisionEncoderParams(LinearParams(param(8, d), param(d)), param(1, d), param(layout.rows, d))
    pixels = rng.normal(size=(batch, 4, 4, 2))
    text = TextEncoderParams(param(layout.vocab_size, d), param(layout.rows, d))
    token_ids = np.array([[1, 5, 5, 2, 0], [1, 7, 9, 7, 2], [1, 9, 5, 2, 0], [1, 4, 4, 4, 2]])

    def f_ff(_):
        return squared(feed_forward(ff, x_ff))

    def f_vision(_):
        return squared(patch_embed(vision, layout, pixels))

    def f_text(_):
        return squared(token_embed(text, layout, token_ids)[0])

    checks += [
        ("feed_forward.weight", f_ff, ff.fc1.weight),
        ("feed_forward.bias", f_ff, ff.fc1.bias),
        ("patch_embed.weight", f_vision, vision.proj.weight),
        ("patch_embed.bias", f_vision, vision.proj.bias),
        ("patch_embed.cls_row", f_vision, vision.cls_row),
        ("patch_embed.positions", f_vision, vision.positions),
        ("token_embed.table", f_text, text.table),
        ("token_embed.positions", f_text, text.positions),
    ]
    return checks


def gradcheck_report() -> list[GradCheckEntry]:
    """Compare every block's adjoints with central finite differences;
    failures never raise, they become report entries."""
    report = []
    for name, fn, x in _standard_checks():
        try:
            err = finite_diff_check(fn, x)
            report.append(GradCheckEntry(name, err, err < GRADCHECK_TOLERANCE))
        except NumericError as e:
            report.append(GradCheckEntry(name, math.inf, False, str(e)))
    return report


def render_gradcheck_report(report: list[GradCheckEntry]) -> str:
    lines = [f"{'block':<32} {'max_rel_err':>12}  status"]
    for entry in report:
        status = "pass" if entry.passed else f"FAIL {entry.message}".rstrip()
        lines.append(f"{entry.name:<32} {entry.max_rel_error:>12.3e}  {status}")
    return "\n".join(lines) + "\n"
