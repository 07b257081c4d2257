"""Dense float64 tensors with reverse-mode differentiation.

Every differentiable quantity in the model flows through :class:`Tensor`.
Each operation records its output through :func:`_make_node`, with one
vector-Jacobian product per input; calling :func:`backward` on a scalar
replays the adjoints in reverse topological order, frees the graph as it
goes and returns the :class:`GradTape` of leaves it reached.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    Tensors are immutable after creation except for gradient accumulation;
    ``grad`` exists from ``backward`` until the tape's ``clear()``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] = _noop
        self.op = "leaf"

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad})"

    # -- gradient plumbing ---------------------------------------------------
    def accumulate_grad(self, g: np.ndarray) -> None:
        # No gradient array is ever written in place: the first contribution
        # is stored as it is and later ones are summed out of place, so one
        # array may be shared by several nodes (``add`` passes it to both).
        self.grad = g if self.grad is None else self.grad + g

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def transpose_last2(self) -> "Tensor":
        return transpose_last2(self)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def _noop() -> None:
    return None


def as_tensor(value) -> Tensor:
    """Coerce scalars / arrays to a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make_node(data: np.ndarray, op: str, *edges: tuple[Tensor, Callable]) -> Tensor:
    """Record one op: its forward value and, per input, a vector-Jacobian product.

    Each edge is ``(parent, vjp)``; ``vjp(g)`` maps the output's gradient to
    that parent's contribution before unbroadcasting.  Only parents that
    require grad are recorded, and only their vjps run.  vjps close over
    arrays, never over the output: the adjoint installed here is the one
    closure that refers to its node, until ``backward`` replaces it.
    """
    out = Tensor(data)
    out.op = op
    edges = tuple((p, vjp) for p, vjp in edges if p.requires_grad)
    if edges:
        out.requires_grad = True
        out._parents = tuple(p for p, _ in edges)

        def _bw():
            g = out.grad
            for parent, vjp in edges:
                parent.accumulate_grad(_unbroadcast(vjp(g), parent.shape))

        out._backward = _bw
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class GradTape:
    """The leaves one backward pass reached: the parameters and inputs whose
    ``grad`` it set."""

    def __init__(self, leaves: Sequence[Tensor]):
        self.nodes = tuple(leaves)

    def clear(self) -> None:
        """Drop the leaves' gradients; the next backward sets them afresh."""
        for node in self.nodes:
            node.grad = None


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative postorder DFS; the forward pass may nest a few hundred ops
    # deep, which would be uncomfortable for recursion.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> GradTape:
    """Populate gradients of everything the scalar ``loss`` depends on, and
    consume the graph.

    Each node's adjoint runs once, in reverse topological order; the node
    then drops its grad, parents and adjoint, so reference counting frees the
    intermediates once the caller drops the loss.  Leaf grads accumulate
    until the returned tape's ``clear()``.  A consumed graph cannot be walked
    again.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    if any(n.requires_grad and not n._parents and n.op != "leaf" for n in order):
        raise ContractError("backward through a graph an earlier backward consumed")
    loss.accumulate_grad(np.ones_like(loss.data))
    leaves = []
    for node in reversed(order):
        node._backward()
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward = _noop
        else:
            leaves.append(node)
    return GradTape(leaves)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_node(a.data + b.data, "add", (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_node(a.data - b.data, "sub", (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    return _make_node(x * y, "mul", (a, lambda g: g * y), (b, lambda g: g * x))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    return _make_node(x / y, "div", (a, lambda g: g / y), (b, lambda g: -g * x / (y * y)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make_node(-a.data, "neg", (a, lambda g: -g))


def scale(a, factor: float) -> Tensor:
    """Multiply by a plain python scalar."""
    a = as_tensor(a)
    factor = float(factor)
    return _make_node(a.data * factor, "scale", (a, lambda g: g * factor))


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _make_node(y, "exp", (a, lambda g: g * y))


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    if np.any(x <= 0.0):
        raise NumericError("log of non-positive value")
    return _make_node(np.log(x), "log", (a, lambda g: g / x))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    y = np.sqrt(a.data)
    return _make_node(y, "sqrt", (a, lambda g: g * 0.5 / y))


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact (erf) form."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return g * (cdf + x * pdf)

    return _make_node(x * cdf, "gelu", (a, vjp))


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        return _matmul_flat(a, b)
    x, y = a.data, b.data
    return _make_node(
        x @ y, "matmul",
        (a, lambda g: g @ np.swapaxes(y, -1, -2)),
        (b, lambda g: np.swapaxes(x, -1, -2) @ g),
    )


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """A stack of rows times one weight matrix, as single 2-d GEMMs.

    The leading axes of ``a`` are folded into the row axis, so the forward
    and both adjoints are one BLAS call each.  In particular the weight
    gradient is ``a2.T @ g2`` rather than a per-batch stack reduced by
    ``_unbroadcast``.
    """
    x, w = a.data, b.data
    k, n = w.shape
    rows = x.reshape(-1, k) @ w
    # ``x`` is re-flattened in the adjoint rather than captured flat, so a
    # non-contiguous ``x`` does not keep a row copy alive for the graph's
    # lifetime.
    return _make_node(
        rows.reshape(x.shape[:-1] + (n,)), "matmul",
        (a, lambda g: (g.reshape(-1, n) @ w.T).reshape(x.shape)),
        (b, lambda g: x.reshape(-1, k).T @ g.reshape(-1, n)),
    )


def transpose_last2(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-d input, got {a.shape}")
    return _make_node(
        np.swapaxes(a.data, -1, -2), "transpose_last2", (a, lambda g: np.swapaxes(g, -1, -2))
    )


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _make_node(a.data.reshape(shape), "reshape", (a, lambda g: g.reshape(old)))


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    return _make_node(np.broadcast_to(a.data, shape).copy(), "broadcast_to", (a, lambda g: g))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries starting at ``start`` along ``axis``."""
    a = as_tensor(a)
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} of {a.shape}"
        )
    index = (slice(None),) * axis + (slice(start, start + length),)
    x = a.data

    def vjp(g):
        full = np.zeros_like(x)
        full[index] = g
        return full

    return _make_node(x[index].copy(), "narrow", (a, vjp))


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    offsets = np.cumsum([0] + [p.shape[ax] for p in parts])
    edges = []
    for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        index = (slice(None),) * ax + (slice(lo, hi),)
        edges.append((p, lambda g, index=index: g[index]))
    return _make_node(data, "concat", *edges)


def gather_rows(table, indices) -> Tensor:
    """Look up rows of a 2-d table; output shape is indices.shape + (row_dim,)."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows table must be 2-d, got {table.shape}")
    idx = np.asarray(indices)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows index out of range for table {table.shape}")
    t = table.data

    def vjp(g):
        full = np.zeros_like(t)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, t.shape[1]))
        return full

    return _make_node(t[idx], "gather_rows", (table, vjp))


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _make_node(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a, vjp))


def _softmax_parts(x: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the final axis and its log-normalizer (kept as an axis).

    Stabilized by max subtraction; entries equal to -inf get exactly zero
    weight.  A NaN or +inf entry is a numeric failure upstream.  A row whose
    entries are all -inf is a caller bug and would produce NaNs.  Both are
    rejected, naming ``op``.
    """
    m = np.max(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        if np.any(np.isnan(m) | (m == np.inf)):
            raise NumericError(f"{op} of a NaN or +inf value")
        raise ContractError(f"{op} row with no finite entry")
    e = np.exp(x - m)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, m + np.log(total)


def softmax_last(a) -> Tensor:
    """Softmax over the final axis (see ``_softmax_parts``)."""
    a = as_tensor(a)
    y, _ = _softmax_parts(a.data, "softmax_last")
    return _make_node(
        y, "softmax_last", (a, lambda g: (g - np.sum(g * y, axis=-1, keepdims=True)) * y)
    )


def logsumexp_last(a) -> Tensor:
    """log(sum(exp(x))) over the final axis, stabilized; -inf entries drop out."""
    a = as_tensor(a)
    softmax, lse = _softmax_parts(a.data, "logsumexp_last")
    return _make_node(lse[..., 0], "logsumexp_last", (a, lambda g: g[..., None] * softmax))


# ---------------------------------------------------------------------------
# fused ops: one node each, with closed-form adjoints
# ---------------------------------------------------------------------------

def layer_norm_last(x, gamma, beta, eps: float) -> Tensor:
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over the final axis.

    The x adjoint is the closed form ``inv * (gg - mean(gg) - xhat *
    mean(gg * xhat))`` with ``gg = g * gamma`` (Ba et al. 2016), so the node
    keeps only ``xhat`` and ``inv``.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / d)
    std = np.sqrt(var + eps)
    xhat = centered / std
    inv = 1.0 / std
    gam = gamma.data

    def vjp_x(g):
        gg = g * gam
        return inv * (gg - gg.mean(axis=-1, keepdims=True)
                      - xhat * (gg * xhat).mean(axis=-1, keepdims=True))

    return _make_node(
        xhat * gam + beta.data, "layer_norm",
        (x, vjp_x), (gamma, lambda g: g * xhat), (beta, lambda g: g),
    )


def _head_view(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(.., rows, heads * d) -> (.., heads, rows, d), as a view."""
    *lead, rows, width = x.shape
    return x.reshape(*lead, rows, num_heads, width // num_heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(.., heads, rows, d) -> (.., rows, heads * d): the inverse of ``_head_view``."""
    *lead, heads, rows, d = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, rows, heads * d)


def attention_heads(q, k, v, num_heads: int, key_bias=None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over ``num_heads`` heads, as one node.

    ``q`` is (.., q_rows, D) and ``k``, ``v`` are (.., k_rows, D), already
    projected; heads are numpy views of D's consecutive blocks.
    ``key_bias``, if given, is a (.., k_rows) array added to every head's
    logits for that key: 0 keeps it, -inf masks it.  Returns the merged
    (.., q_rows, D) context node and the (.., heads, q_rows, k_rows) softmax
    weights as a plain array.  The node keeps the softmax for its adjoint.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    width = q.shape[-1]
    if k.shape != v.shape or k.shape[-1] != width or q.ndim < 2 or k.ndim < 2:
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if num_heads < 1 or width % num_heads:
        raise ShapeError(f"feature dim {width} does not split into {num_heads} heads")
    qh, kh, vh = (_head_view(t.data, num_heads) for t in (q, k, v))
    factor = 1.0 / math.sqrt(width // num_heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * factor
    if key_bias is not None:
        scores = scores + np.asarray(key_bias)[..., None, None, :]
    att, _ = _softmax_parts(scores, "attention_heads")

    shared = {}

    def dscores(g):
        # The softmax adjoint, computed once per backward for the q and k edges.
        if not shared:
            datt = _head_view(g, num_heads) @ vh.swapaxes(-1, -2)
            shared["ds"] = (datt - np.sum(datt * att, axis=-1, keepdims=True)) * att * factor
        return shared["ds"]

    out = _make_node(
        _merge_heads(att @ vh), "attention",
        (q, lambda g: _merge_heads(dscores(g) @ kh)),
        (k, lambda g: _merge_heads(dscores(g).swapaxes(-1, -2) @ qh)),
        (v, lambda g: _merge_heads(att.swapaxes(-1, -2) @ _head_view(g, num_heads))),
    )
    return out, att


def contrastive_sum(sim, weights: np.ndarray, temperature: float, exclude_diag: bool) -> Tensor:
    """``-sum_ij W[i, j] * log_softmax(sim / T)[i, j]`` over rows of ``sim``.

    With ``exclude_diag`` each row's diagonal entry leaves the softmax
    denominator; the log-ratios themselves come from the unmasked logits, so
    zero-weight cells stay finite.  The adjoint is
    ``(rowsum(W) * softmax - W) / T``.
    """
    sim = as_tensor(sim)
    weights = np.asarray(weights, dtype=np.float64)
    if sim.ndim != 2 or weights.shape != sim.shape:
        raise ShapeError(f"contrastive_sum needs matching 2-d operands: {sim.shape} vs {weights.shape}")
    scaled = sim.data * (1.0 / temperature)
    denom = scaled
    if exclude_diag:
        denom = scaled.copy()
        np.fill_diagonal(denom, -np.inf)
    softmax, lse = _softmax_parts(denom, "contrastive_sum")
    row_weight = weights.sum(axis=-1, keepdims=True)
    return _make_node(
        -np.sum((scaled - lse) * weights), "contrastive_sum",
        (sim, lambda g: g * ((row_weight * softmax - weights) * (1.0 / temperature))),
    )


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar Tensor through recorded operations.  The
    numeric side re-evaluates the forward pass at x +- step per coordinate and
    never consults the adjoints it is checking.  Relative error per coordinate
    is |analytic - numeric| / max(1, |analytic|).
    """
    if step <= 0.0:
        raise ContractError("finite_diff_check step must be positive")
    out = f(x)
    if out.data.size != 1:
        raise ContractError("finite_diff_check target must be scalar-valued")
    tape = backward(out)
    if x.grad is None:
        analytic = np.zeros_like(x.data)
    else:
        analytic = x.grad.copy()
    tape.clear()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x).item()
        flat[i] = orig - step
        lo = f(x).item()
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite value while probing coordinate {i}")
        numeric[i] = (hi - lo) / (2.0 * step)
    if not np.all(np.isfinite(analytic)):
        bad = int(np.flatnonzero(~np.isfinite(analytic.reshape(-1)))[0])
        raise NumericError(f"non-finite analytic gradient at coordinate {bad}")

    analytic = analytic.reshape(-1)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max(initial=0.0))
