"""Dense float64 or float32 tensors with reverse-mode differentiation.

Every differentiable quantity in the model flows through :class:`Tensor`.
Each operation records its output through :func:`_make_node`, with its
inputs and one adjoint that maps the output's gradient to every input's
contribution at once; calling :func:`backward` on a scalar replays the
adjoints in reverse topological order, hands each leaf whose gradient is
final to its ``grad_hook``, frees the graph as it goes and returns the
:class:`GradTape` of leaves it reached.

Every op takes its operands as Tensors; ``Tensor(...)`` is the one place
an array, list or scalar enters the graph.

The ops are dtype-generic: a node takes the dtype of its first
differentiable input and each gradient that of its tensor, so a float32
model computes in float32 and a float64 model (the reference) in float64.
Constants an op builds take its operand's dtype.

numpy is the one numeric dependency.  ``gelu``'s erf is :func:`_erf`, a
numpy evaluation of the Cephes approximations that ``scipy.special.erf``
runs.  scipy was imported for that one function alone, and importing
``scipy.special`` made up more than half of every process start: on a
2-core x86 host, ``import crossdoc.cli`` takes 0.17 s and 30 MB without it
and took 0.45 s and 54 MB with it (medians of 10).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 or float32 array plus an optional gradient accumulator.

    float32 data stays float32; anything else (other float widths, ints,
    lists, scalars) becomes float64.  Tensors are immutable after creation
    except for gradient accumulation.  A leaf's ``grad`` exists from
    ``backward`` until the tape's ``clear()``, unless its ``grad_hook``
    takes it first: ``backward`` calls a leaf's hook, with no arguments, as
    soon as the leaf's gradient is final, and the hook may drop ``grad``
    (``AdamW`` folds it into its moments once the rest of the leaf's group
    has arrived, and drops it then).
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_hook", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.grad_hook: Callable[[], None] | None = None
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


def _noop() -> None:
    return None


def _make_node(data: np.ndarray, op: str, parents: Sequence[Tensor],
               adjoint: Callable[[np.ndarray], Sequence]) -> Tensor:
    """Record one op: its forward value, its parents and its adjoint.

    ``adjoint(g)`` maps the output's gradient to one contribution per
    parent, in ``parents`` order, before unbroadcasting; it runs once per
    backward.  Only parents that require grad are recorded and receive
    their contribution, in that order; a constant parent's is dropped, and
    an adjoint may give ``None`` for it.  An adjoint that gives the wrong
    number of contributions raises.  The node takes the dtype of its first
    recorded parent and each contribution its parent's dtype, so a float64
    constant never widens a float32 graph (both casts are no-ops in
    float64).  Adjoints close over arrays, never over the output: the
    closure installed here is the one that refers to its node, until
    ``backward`` replaces it.
    """
    out = Tensor(data)
    out.op = op
    slots = tuple(p if p.requires_grad else None for p in parents)
    recorded = tuple(p for p in slots if p is not None)
    if recorded:
        out.data = out.data.astype(recorded[0].data.dtype, copy=False)
        out.requires_grad = True
        out._parents = recorded

        def _bw():
            for parent, g in zip(slots, adjoint(out.grad), strict=True):
                if parent is not None:
                    parent.accumulate_grad(
                        _unbroadcast(g, parent.shape).astype(parent.data.dtype, copy=False))

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
    """Every node ``root`` depends on, each after its inputs.

    Each leaf (a node without parents) comes right before its first
    consumer, so in reverse it comes right after the last adjoint that
    feeds it, and its gradient can be used, and dropped, before the rest of
    the graph is walked.  Where leaves sit does not change the order of the
    other nodes, hence nor the order in which gradients are summed.
    """
    # Iterative postorder DFS; the forward pass may nest a few hundred ops
    # deep, which would be uncomfortable for recursion.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            for parent in reversed(node._parents):
                if not parent._parents and id(parent) not in seen:
                    seen.add(id(parent))
                    order.append(parent)
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._parents and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> GradTape:
    """Populate gradients of everything the scalar ``loss`` depends on, and
    consume the graph.

    Each node's adjoint runs once, in reverse topological order; the node
    then drops its grad, parents and adjoint.  The walk pops each node off
    its order as it goes, so an intermediate that nothing outside the graph
    holds is freed, with the arrays its adjoint kept, as soon as its adjoint
    has run: the backward peak does not sit on top of the whole forward
    graph.  A leaf is reached right after the last adjoint that feeds it
    (see ``_topo_order``); its ``grad_hook``, if set, is called then.  Leaf
    grads that no hook drops live until the returned tape's ``clear()``.
    An error a hook raises stops the walk, leaving the graph partly
    consumed.  A consumed graph cannot be walked again.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    if any(n.requires_grad and not n._parents and n.op != "leaf" for n in order):
        raise ContractError("backward through a graph an earlier backward consumed")
    loss.accumulate_grad(np.ones_like(loss.data))
    leaves = []
    while order:
        node = order.pop()
        node._backward()
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward = _noop
        else:
            leaves.append(node)
            if node.grad_hook is not None:
                node.grad_hook()
    return GradTape(leaves)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make_node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make_node(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _make_node(x * y, "mul", (a, b), lambda g: (g * y, g * x))


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _make_node(x / y, "div", (a, b), lambda g: (g / y, -g * x / (y * y)))


def neg(a: Tensor) -> Tensor:
    return _make_node(-a.data, "neg", (a,), lambda g: (-g,))


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a plain python scalar."""
    factor = float(factor)
    return _make_node(a.data * factor, "scale", (a,), lambda g: (g * factor,))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _make_node(y, "exp", (a,), lambda g: (g * y,))


def log(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= 0.0):
        raise NumericError("log of non-positive value")
    return _make_node(np.log(x), "log", (a,), lambda g: (g / x,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    y = np.sqrt(a.data)
    return _make_node(y, "sqrt", (a,), lambda g: (g * 0.5 / y,))


# Cephes ``ndtr.c`` (S. L. Moshier) coefficients, highest power first; a
# leading 1.0 marks a monic denominator.  erf(x) = x T(x^2) / U(x^2) for
# |x| <= 1, and 1 - exp(-x^2) P(|x|) / Q(|x|) above (erfc's x < 8 branch).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Horner's rule in a fresh array, in Cephes' ``polevl`` operation order."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of every element, computed in float64 and cast to ``x``'s dtype.

    The small-argument form runs on every element and the tail form only
    on those with |x| > 1, scattered back through flat views of C-ordered
    arrays: evaluating both forms everywhere and selecting with ``np.where``
    took 1.3-1.8x as long at the benchmark's shapes.  ``copysign`` restores
    the sign, so erf(-0.0) is -0.0; NaN stays NaN and +-inf gives +-1.  No
    element raises a floating-point error.
    """
    a = np.abs(x, dtype=np.float64, order="C")
    # erf(6) is already 1.0 in float64, so clamping |x| to 6 changes no
    # result and keeps x^2 and exp(-x^2) finite and normal for every input.
    np.minimum(a, 6.0, out=a)
    z = a * a
    out = a * _polevl(z, _ERF_T)
    out /= _polevl(z, _ERF_U)
    tail = np.flatnonzero(a > 1.0)
    if tail.size:
        t = a.reshape(-1)[tail]
        y = np.exp(-t * t)
        y *= _polevl(t, _ERFC_P)
        y /= _polevl(t, _ERFC_Q)
        out.reshape(-1)[tail] = 1.0 - y
    np.copysign(out, x, out=out)
    return out.astype(x.dtype, copy=False)


def _gelu_derivative(s: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative ``cdf + s * pdf(s)``, given the normal CDF at ``s``."""
    pdf = np.exp(-0.5 * s * s) * _INV_SQRT2PI
    return cdf + s * pdf


def gelu(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Gaussian error linear unit, exact (erf) form, of the dense projection
    ``s = a @ weight + bias`` (see ``_dense``), as one node: a feed-forward's
    ``fc1`` and its GELU.

    erf comes from :func:`_erf`, the Cephes approximations scipy also runs.
    In float64 it is within 1 ulp of ``scipy.special.erf`` (identical on
    99.95% of a 1M-point grid over [-7, 7]; every mismatch is at |x| > 1,
    where ``np.exp`` and libm's ``exp`` differ) and within 3 ulp of libm's
    ``erf``.  Like scipy's, it computes a float32 input in float64 and
    rounds the result to float32.

    The forward runs ``matmul``'s operations, then GELU's, so the value and
    every gradient are those of a ``matmul`` node followed by a GELU node,
    to the bit.  The node keeps GELU's derivative at ``s``, computed in the
    forward and only when some parent requires grad, and ``a``: neither
    ``s`` nor its CDF outlives the forward.  The parents are ``a``,
    ``weight`` and ``bias``, as ``matmul``'s; the adjoint maps ``g *
    derivative`` through ``_dense``'s.
    """
    s, parents, dense = _dense("gelu", a, weight, bias)
    cdf = 0.5 * (1.0 + _erf(s * _INV_SQRT2))
    if any(p.requires_grad for p in parents):
        derivative = _gelu_derivative(s, cdf)
    return _make_node(s * cdf, "gelu", parents, lambda g: dense(g * derivative))


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def _dense(op: str, a: Tensor, b: Tensor, bias: Tensor | None
           ) -> tuple[np.ndarray, tuple[Tensor, ...], Callable[[np.ndarray], tuple]]:
    """``a @ b``, plus ``bias`` if given: a stack of rows times one matrix.

    ``b`` is (k, n) and ``a`` is (..., k); the leading axes of ``a`` fold
    into the row axis, so the forward and both adjoints are one 2-d GEMM
    each, and the weight gradient is ``a2.T @ g2`` rather than a per-batch
    stack reduced by ``_unbroadcast``.  A ``bias`` of shape (n,) is added in
    place to the GEMM output.  Returns the value, its parents ``a``, ``b``
    and the bias if given, and ``dense(ds)``, their contributions given
    ``ds``, the gradient of the value; ``a``'s is ``None``, and its GEMM
    skipped, when ``a`` is constant.  ``op`` names the node that records
    them in a shape error.
    """
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"{op} needs (..., k) @ (k, n) operands, got {a.shape} @ {b.shape}")
    x, w = a.data, b.data
    k, n = w.shape
    out = (x.reshape(-1, k) @ w).reshape(x.shape[:-1] + (n,))
    parents = (a, b)
    if bias is not None:
        if bias.shape != (n,):
            raise ShapeError(f"{op} bias must have shape ({n},), got {bias.shape}")
        out += bias.data
        parents += (bias,)
    need_a = a.requires_grad

    def dense(ds):
        # ``x`` is re-flattened here rather than captured flat, so a
        # non-contiguous ``x`` does not keep a row copy alive for the
        # graph's lifetime.
        d2 = ds.reshape(-1, n)
        da = (d2 @ w.T).reshape(x.shape) if need_a else None
        return (da, x.reshape(-1, k).T @ d2, ds)[:len(parents)]

    return out, parents, dense


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` if given, as one node (see ``_dense``): a
    dense layer ``x @ W + b`` is one node, its bias the third parent."""
    out, parents, dense = _dense("matmul", a, b, bias)
    return _make_node(out, "matmul", parents, dense)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-d input, got {a.shape}")
    return _make_node(np.swapaxes(a.data, -1, -2), "transpose_last2", (a,),
                      lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    old = a.shape
    return _make_node(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(old),))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _make_node(np.broadcast_to(a.data, shape).copy(), "broadcast_to", (a,), lambda g: (g,))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries starting at ``start`` along ``axis``."""
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} of {a.shape}"
        )
    index = (slice(None),) * axis + (slice(start, start + length),)
    x = a.data

    def adjoint(g):
        full = np.zeros_like(x)
        full[index] = g
        return (full,)

    return _make_node(x[index].copy(), "narrow", (a,), adjoint)


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    offsets = np.cumsum([0] + [p.shape[ax] for p in parts])
    indices = [(slice(None),) * ax + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _make_node(data, "concat", parts, lambda g: tuple(g[index] for index in indices))


def _gather(op: str, table: Tensor, indices) -> tuple[np.ndarray, Callable]:
    """Rows of a 2-d table, of shape indices.shape + (row_dim,), and the
    table's contribution given theirs: the gradient rows scatter-added, so
    a repeated index sums."""
    if table.ndim != 2:
        raise ShapeError(f"{op} table must be 2-d, got {table.shape}")
    idx = np.asarray(indices)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ShapeError(f"{op} index out of range for table {table.shape}")
    t = table.data

    def scatter(g):
        full = np.zeros_like(t)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, t.shape[1]))
        return full

    return t[idx], scatter


def gather_rows(table: Tensor, indices) -> Tensor:
    """Look up rows of a 2-d table; output shape is indices.shape + (row_dim,)."""
    rows, scatter = _gather("gather_rows", table, indices)
    return _make_node(rows, "gather_rows", (table,), lambda g: (scatter(g),))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def adjoint(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make_node(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), adjoint)


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


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the final axis (see ``_softmax_parts``)."""
    y, _ = _softmax_parts(a.data, "softmax_last")
    return _make_node(y, "softmax_last", (a,),
                      lambda g: ((g - np.sum(g * y, axis=-1, keepdims=True)) * y,))


def logsumexp_last(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over the final axis, stabilized; -inf entries drop out."""
    softmax, lse = _softmax_parts(a.data, "logsumexp_last")
    return _make_node(lse[..., 0], "logsumexp_last", (a,), lambda g: (g[..., None] * softmax,))


# ---------------------------------------------------------------------------
# fused ops: one node each, with closed-form adjoints
# ---------------------------------------------------------------------------

def layer_norm_last(h: Tensor, weight: Tensor, bias: Tensor, gamma: Tensor, beta: Tensor,
                    eps: float, residual: Tensor | None = None) -> Tensor:
    """The post-norm step ``LN(h @ weight + bias + residual)`` as one node:
    ``gamma * (s - mean) / sqrt(var + eps) + beta`` over the final axis,
    where ``s`` is the dense projection of ``h`` (see ``_dense``), plus
    ``residual`` if one is given.

    The forward runs ``matmul``'s operations, then the layer norm's, so the
    value is that of a ``matmul`` node followed by a layer norm, to the bit.
    The s adjoint is the closed form ``inv * (gg - mean(gg) - xhat *
    mean(gg * xhat))`` with ``gg = g * gamma`` (Ba et al. 2016); ``_dense``'s
    adjoint maps it to ``h``, weight and bias, and the residual receives it
    as it is.  The node keeps ``h``, ``xhat`` and ``inv``: the projection
    and the sum ``s``, which no adjoint reads, do not outlive the forward.

    The parents are ``h``, ``gamma``, ``beta``, the residual if given, then
    ``weight`` and ``bias``, so the backward walk reaches the residual's
    subgraph and the leaves in the order a layer norm node over a
    ``matmul`` node gives them.
    """
    s, _, dense = _dense("layer_norm", h, weight, bias)
    residuals = ()
    if residual is not None:
        if residual.shape != s.shape:
            raise ShapeError(f"layer_norm residual {residual.shape} does not match {s.shape}")
        s = s + residual.data
        residuals = (residual,)
    n = s.shape[-1]
    mu = s.sum(axis=-1, keepdims=True) * (1.0 / n)
    centered = s - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + eps)
    xhat = centered / std
    inv = 1.0 / std
    gam = gamma.data

    def adjoint(g):
        gg = g * gam
        ds = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        dh, dweight, dbias = dense(ds)
        return (dh, g * xhat, g) + (ds,) * len(residuals) + (dweight, dbias)

    return _make_node(xhat * gam + beta.data, "layer_norm",
                      (h, gamma, beta, *residuals, weight, bias), adjoint)


def gate(updated: Tensor, previous: Tensor) -> Tensor:
    """``updated * previous + previous`` as one node: the gated
    self-attention stage's gate.

    The value is that of a ``mul`` node followed by an ``add`` node, to the
    bit, and so is every gradient: the parents are ``previous`` (the sum's
    contribution), ``updated``, then ``previous`` again (the product's), the
    order in which the two nodes' adjoints sum them.  The product, which no
    adjoint reads, is not kept.
    """
    u, p = updated.data, previous.data
    return _make_node(u * p + p, "gate", (previous, updated, previous),
                      lambda g: (g, g * p, g * u))


def embed_patches(patches: Tensor, weight: Tensor, bias: Tensor, cls_row: Tensor,
                  positions: Tensor) -> Tensor:
    """A vision encoder's rows as one node: the (1, n) ``cls_row``, then
    the dense projection of the (.., num_patches, k) ``patches`` (see
    ``_dense``), plus the (num_patches + 1, n) ``positions``.

    The value is that of a ``matmul`` node, a ``broadcast_to`` of
    ``cls_row`` over the leading axes, a ``concat`` along the row axis and
    an ``add`` of ``positions``, to the bit, and so is every gradient: the
    leading axes are summed out by ``_unbroadcast``, as the chain's did.
    The node keeps ``patches``: the projection and the concatenated rows do
    not outlive the forward.  The parents are ``positions``, ``cls_row``,
    then ``patches``, ``weight`` and ``bias``, so the backward walk reaches
    the parameters in the chain's order.
    """
    proj, dense_parents, dense = _dense("embed_patches", patches, weight, bias)
    lead = proj.shape[:-2]
    rows = np.concatenate([np.broadcast_to(cls_row.data, lead + cls_row.shape), proj], axis=-2)
    rows += positions.data
    return _make_node(rows, "embed_patches", (positions, cls_row, *dense_parents),
                      lambda g: (g, g[..., :1, :], *dense(g[..., 1:, :])))


def embed_tokens(table: Tensor, indices, positions: Tensor) -> Tensor:
    """A text encoder's rows as one node: rows of the 2-d ``table`` at the
    (.., rows) integer ``indices`` plus the (rows, row_dim) ``positions``.

    The value and every gradient are those of a ``gather_rows`` node and an
    ``add`` of ``positions``, to the bit.  The node keeps the indices; the
    gathered rows do not outlive the forward.  The parents are
    ``positions``, then ``table``, the order the chain's backward reached
    them in.
    """
    rows, scatter = _gather("embed_tokens", table, indices)
    rows += positions.data
    return _make_node(rows, "embed_tokens", (positions, table), lambda g: (g, scatter(g)))


def _head_view(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(.., rows, heads * d) -> (.., heads, rows, d), as a view."""
    *lead, rows, width = x.shape
    return x.reshape(*lead, rows, num_heads, width // num_heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(.., heads, rows, d) -> (.., rows, heads * d): the inverse of ``_head_view``."""
    *lead, heads, rows, d = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, rows, heads * d)


def attention_heads(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                    key_bias=None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over ``num_heads`` heads, as one node.

    ``q`` is (.., q_rows, D) and ``k``, ``v`` are (.., k_rows, D), already
    projected; heads are numpy views of D's consecutive blocks.
    ``key_bias``, if given, is a (.., k_rows) array of the operands' dtype
    added to every head's logits for that key: 0 keeps it, -inf masks it; a
    query with every key masked is rejected by ``_softmax_parts``.  Returns
    the merged (.., q_rows, D) context node and the (.., heads, q_rows,
    k_rows) softmax weights as a plain array.  The node keeps the softmax
    for its adjoint.
    """
    width = q.shape[-1]
    if k.shape != v.shape or k.shape[-1] != width or q.ndim < 2 or k.ndim < 2:
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if num_heads < 1 or width % num_heads:
        raise ShapeError(f"feature dim {width} does not split into {num_heads} heads")
    qh, kh, vh = (_head_view(t.data, num_heads) for t in (q, k, v))
    factor = 1.0 / math.sqrt(width // num_heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * factor
    if key_bias is not None:
        if key_bias.shape[-1:] != k.shape[-2:-1]:
            raise ShapeError(f"key bias {key_bias.shape} does not match keys {k.shape}")
        scores = scores + key_bias[..., None, None, :]
    att, _ = _softmax_parts(scores, "attention_heads")

    def adjoint(g):
        gh = _head_view(g, num_heads)
        datt = gh @ vh.swapaxes(-1, -2)
        dscores = (datt - np.sum(datt * att, axis=-1, keepdims=True)) * att * factor
        return (_merge_heads(dscores @ kh), _merge_heads(dscores.swapaxes(-1, -2) @ qh),
                _merge_heads(att.swapaxes(-1, -2) @ gh))

    return _make_node(_merge_heads(att @ vh), "attention", (q, k, v), adjoint), att


def contrastive_sum(sim: Tensor, weights: np.ndarray, temperature: float) -> Tensor:
    """``-sum_ij W[i, j] * log_softmax(sim / T)[i, j]`` over rows of ``sim``.

    Each row's diagonal entry -- the anchor's own index -- leaves the softmax
    denominator; the log-ratios themselves come from the unmasked logits, so
    zero-weight cells (the diagonal among them) stay finite.  The adjoint is
    ``(rowsum(W) * softmax - W) / T``.
    """
    weights = np.asarray(weights, dtype=sim.data.dtype)
    if sim.ndim != 2 or weights.shape != sim.shape:
        raise ShapeError(f"contrastive_sum needs matching 2-d operands: {sim.shape} vs {weights.shape}")
    scaled = sim.data * (1.0 / temperature)
    denom = scaled.copy()
    np.fill_diagonal(denom, -np.inf)
    softmax, lse = _softmax_parts(denom, "contrastive_sum")
    row_weight = weights.sum(axis=-1, keepdims=True)
    return _make_node(-np.sum((scaled - lse) * weights), "contrastive_sum", (sim,),
                      lambda g: (g * ((row_weight * softmax - weights) * (1.0 / temperature)),))


def cross_entropy_mean(logits: Tensor, one_hot: np.ndarray) -> Tensor:
    """``mean_i(logsumexp(x_i) - x_i . one_hot_i)`` over the rows of 2-d
    ``logits``.  The adjoint is ``g/N * softmax - g/N * one_hot``, the two
    contributions the logsumexp, product, sum and scale chain summed, so the
    gradient is the chain's to the bit.
    """
    x = logits.data
    factor = 1.0 / x.shape[0]
    softmax, lse = _softmax_parts(x, "cross_entropy")
    true_logit = np.sum(x * one_hot, axis=-1)

    def adjoint(g):
        scaled = g * factor
        return (scaled * softmax - scaled * one_hot,)

    return _make_node(np.sum(lse[..., 0] - true_logit) * factor, "cross_entropy", (logits,),
                      adjoint)


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
