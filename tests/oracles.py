"""Independent scalar oracles used by the test suite.

These re-derive every formula with explicit python loops over numpy values.
They never call into the package's tensor engine, so agreement between the
two paths is meaningful evidence.
"""

import math

import numpy as np

from crossdoc.nn import LAYER_NORM_EPS


def key_bias(mask, dtype=np.float64):
    """The library's form of the oracles' boolean key mask (True: a real
    key): an additive bias, 0 on a kept key and -inf on a masked one."""
    return np.where(mask, 0.0, -np.inf).astype(dtype)


def scalar_linear(weight, bias, x):
    x = np.atleast_2d(x)
    out = np.zeros((x.shape[0], weight.shape[1]))
    for r in range(x.shape[0]):
        for c in range(weight.shape[1]):
            acc = bias[c]
            for k in range(weight.shape[0]):
                acc += x[r, k] * weight[k, c]
            out[r, c] = acc
    return out


def scalar_gelu(x):
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.ravel(x)]
    return np.array(flat).reshape(np.shape(x))


def scalar_layer_norm(gamma, beta, eps, x):
    x = np.atleast_2d(x)
    out = np.zeros_like(x, dtype=float)
    d = x.shape[1]
    for r in range(x.shape[0]):
        mu = sum(x[r]) / d
        var = sum((v - mu) ** 2 for v in x[r]) / d
        for c in range(d):
            out[r, c] = gamma[c] * (x[r, c] - mu) / math.sqrt(var + eps) + beta[c]
    return out


def scalar_feed_forward(p, x):
    h = scalar_gelu(scalar_linear(p.fc1.weight.data, p.fc1.bias.data, x))
    return scalar_linear(p.fc2.weight.data, p.fc2.bias.data, h)


def scalar_mha(p, q_src, kv_src, key_mask=None):
    """Brute-force multi-head attention: one head at a time, row by row."""
    q = scalar_linear(p.w_q.weight.data, p.w_q.bias.data, q_src)
    k = scalar_linear(p.w_k.weight.data, p.w_k.bias.data, kv_src)
    v = scalar_linear(p.w_v.weight.data, p.w_v.bias.data, kv_src)
    m_q, m_k = q.shape[0], k.shape[0]
    head_dim = q.shape[1] // p.num_heads
    ctx = np.zeros((m_q, p.num_heads * head_dim))
    for h in range(p.num_heads):
        lo = h * head_dim
        for i in range(m_q):
            logits = []
            for j in range(m_k):
                s = sum(q[i, lo + d] * k[j, lo + d] for d in range(head_dim))
                s /= math.sqrt(head_dim)
                if key_mask is not None and not key_mask[j]:
                    s = -math.inf
                logits.append(s)
            mx = max(logits)
            ws = [math.exp(s - mx) for s in logits]
            z = sum(ws)
            for j in range(m_k):
                w = ws[j] / z
                for d in range(head_dim):
                    ctx[i, lo + d] += w * v[j, lo + d]
    return scalar_linear(p.w_o.weight.data, p.w_o.bias.data, ctx)


def scalar_transformer_layer(p, queries, keys, mask=None):
    """Attention, residual + layer norm, feed-forward, residual + layer norm."""
    att = scalar_mha(p.attn, queries, keys, mask)
    mid = scalar_layer_norm(p.norm_attn.gamma.data, p.norm_attn.beta.data,
                            LAYER_NORM_EPS, att + queries)
    ffo = scalar_feed_forward(p.ff, mid)
    return scalar_layer_norm(p.norm_ff.gamma.data, p.norm_ff.beta.data,
                             LAYER_NORM_EPS, ffo + mid)


def scalar_cross_attention_block(p, vision, text, text_mask=None):
    """Both directions of the cross-attention exchange, step by step."""
    v_out = scalar_transformer_layer(p.into_vision, vision, text, text_mask)
    t_out = scalar_transformer_layer(p.into_text, text, vision, None)
    return v_out, t_out


def scalar_gated_self_attention(p, previous, updated, key_mask=None):
    fused = scalar_linear(p.fuse.weight.data, p.fuse.bias.data,
                          updated * previous + previous)
    return scalar_transformer_layer(p.layer, fused, fused, key_mask)


def scalar_contrastive_term(anchors, others, labels, temperature):
    """Double-loop supervised contrastive term: each anchor scored against
    every ``others`` row but its own index (itself within a modality, its
    paired sample across them), which is out of both its positives and its
    denominator."""
    anchors = np.asarray(anchors, dtype=float)
    others = np.asarray(others, dtype=float)
    n = anchors.shape[0]
    total = 0.0
    for i in range(n):
        positives = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        denom = sum(
            math.exp(float(np.dot(anchors[i], others[k])) / temperature)
            for k in range(n) if k != i
        )
        acc = 0.0
        for j in positives:
            num = math.exp(float(np.dot(anchors[i], others[j])) / temperature)
            acc += math.log(num / denom)
        total += -acc / len(positives)
    return total


def scalar_cross_modal_loss(x, t, labels, temperature, inter_weight):
    """The four-term objective, combined symmetrically."""
    vv = scalar_contrastive_term(x, x, labels, temperature)
    ll = scalar_contrastive_term(t, t, labels, temperature)
    lv = scalar_contrastive_term(x, t, labels, temperature)
    vl = scalar_contrastive_term(t, x, labels, temperature)
    return {
        "vision_intra": vv,
        "text_intra": ll,
        "text_to_vision": lv,
        "vision_to_text": vl,
        "total": (vv + ll) + inter_weight * (lv + vl),
    }


def scalar_cross_entropy(logits, labels):
    logits = np.asarray(logits, dtype=float)
    n = logits.shape[0]
    total = 0.0
    for i in range(n):
        mx = max(logits[i])
        lse = mx + math.log(sum(math.exp(v - mx) for v in logits[i]))
        total += lse - logits[i][labels[i]]
    return total / n


def reference_adamw_step(p, m, v, g, lr, t, cfg):
    """Whole-array AdamW update at step number ``t`` (1-based), in place on
    p, m and v, with the betas, epsilon and weight decay of the ``RunConfig``
    ``cfg``.  Decoupled decay first, then the bias-corrected Adam step."""
    b1, b2, eps, weight_decay = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    if weight_decay:
        p *= 1.0 - lr * weight_decay
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
