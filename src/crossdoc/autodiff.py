"""Dense float64 tensors with reverse-mode differentiation.

Every differentiable quantity in the model flows through :class:`Tensor`.
Operations record their inputs and an adjoint closure on the output; calling
:func:`backward` on a scalar replays the adjoints in reverse topological
order and returns the :class:`GradTape` that was walked.
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
    ``grad`` is allocated lazily on first accumulation.
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> "GradTape":
        return backward(self)

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


def _make_node(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    out = Tensor(data)
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
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
    """Ordered record of the nodes one backward pass walked, oldest first."""

    def __init__(self, nodes: Sequence[Tensor]):
        self._nodes = tuple(nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> tuple[Tensor, ...]:
        return self._nodes

    def clear(self) -> None:
        """Reset the walked graph's gradients for the next step.

        Leaf tensors (parameters and inputs) keep their grad array, zeroed in
        place.  Intermediate nodes drop theirs (``grad`` becomes None): nothing
        reads them once the optimizer has run, and a later backward over the
        same graph allocates them afresh.
        """
        for node in self._nodes:
            if node._parents:
                node.grad = None
            elif node.grad is not None:
                node.grad[...] = 0.0


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
    """Populate gradients of everything the scalar ``loss`` depends on.

    Gradients accumulate additively, both across multiple uses of a tensor
    inside one graph and across repeated backward calls; use the returned
    tape's ``clear()`` to reset them.  After ``clear()`` leaf grads are zero
    arrays and intermediate grads are None, so a fresh backward gives the
    same leaf grads as the first one did.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        node._backward()
    return GradTape(order)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make_node(a.data + b.data, (a, b), "add")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(out.grad, b.shape))

    out._backward = _bw
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make_node(a.data - b.data, (a, b), "sub")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-out.grad, b.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make_node(a.data * b.data, (a, b), "mul")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(out.grad * a.data, b.shape))

    out._backward = _bw
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make_node(a.data / b.data, (a, b), "div")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad / b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

    out._backward = _bw
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = _make_node(-a.data, (a,), "neg")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(-out.grad)

    out._backward = _bw
    return out


def scale(a, factor: float) -> Tensor:
    """Multiply by a plain python scalar."""
    a = as_tensor(a)
    factor = float(factor)
    out = _make_node(a.data * factor, (a,), "scale")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad * factor)

    out._backward = _bw
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = _make_node(np.exp(a.data), (a,), "exp")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad * out.data)

    out._backward = _bw
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericError("log of non-positive value")
    out = _make_node(np.log(a.data), (a,), "log")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad / a.data)

    out._backward = _bw
    return out


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    out = _make_node(np.sqrt(a.data), (a,), "sqrt")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad * 0.5 / out.data)

    out._backward = _bw
    return out


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact (erf) form."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _make_node(a.data * cdf, (a,), "gelu")

    def _bw():
        if a.requires_grad:
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
            a.accumulate_grad(out.grad * (cdf + a.data * pdf))

    out._backward = _bw
    return out


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
    out = _make_node(a.data @ b.data, (a, b), "matmul")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ out.grad, b.shape))

    out._backward = _bw
    return out


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """A stack of rows times one weight matrix, as single 2-d GEMMs.

    The leading axes of ``a`` are folded into the row axis, so the forward
    and both adjoints are one BLAS call each.  In particular the weight
    gradient is ``a2.T @ g2`` rather than a per-batch stack reduced by
    ``_unbroadcast``.
    """
    k, n = b.shape
    rows = a.data.reshape(-1, k) @ b.data
    out = _make_node(rows.reshape(a.shape[:-1] + (n,)), (a, b), "matmul")

    def _bw():
        g2 = out.grad.reshape(-1, n)
        if a.requires_grad:
            a.accumulate_grad((g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            # Re-flattened here rather than captured, so a non-contiguous
            # ``a`` does not keep a row copy alive for the graph's lifetime.
            b.accumulate_grad(a.data.reshape(-1, k).T @ g2)

    out._backward = _bw
    return out


def transpose_last2(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-d input, got {a.shape}")
    out = _make_node(np.swapaxes(a.data, -1, -2), (a,), "transpose_last2")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(out.grad, -1, -2))

    out._backward = _bw
    return out


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = _make_node(a.data.reshape(shape), (a,), "reshape")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad.reshape(a.shape))

    out._backward = _bw
    return out


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = _make_node(np.broadcast_to(a.data, shape).copy(), (a,), "broadcast_to")

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad, a.shape))

    out._backward = _bw
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries starting at ``start`` along ``axis``."""
    a = as_tensor(a)
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} of {a.shape}"
        )
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = _make_node(a.data[index].copy(), (a,), "narrow")

    def _bw():
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[index] = out.grad
            a.accumulate_grad(g)

    out._backward = _bw
    return out


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = _make_node(np.concatenate([p.data for p in parts], axis=axis), parts, "concat")
    ax = axis % out.ndim
    offsets = np.cumsum([0] + [p.shape[ax] for p in parts])

    def _bw():
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                index = [slice(None)] * out.ndim
                index[ax] = slice(lo, hi)
                p.accumulate_grad(out.grad[tuple(index)])

    out._backward = _bw
    return out


def gather_rows(table, indices) -> Tensor:
    """Look up rows of a 2-d table; output shape is indices.shape + (row_dim,)."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows table must be 2-d, got {table.shape}")
    idx = np.asarray(indices)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows index out of range for table {table.shape}")
    out = _make_node(table.data[idx], (table,), "gather_rows")

    def _bw():
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, idx.reshape(-1), out.grad.reshape(-1, table.shape[1]))
            table.accumulate_grad(g)

    out._backward = _bw
    return out


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _make_node(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")

    def _bw():
        if a.requires_grad:
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    out._backward = _bw
    return out


def mean_last(a) -> Tensor:
    a = as_tensor(a)
    return scale(tensor_sum(a, axis=-1, keepdims=True), 1.0 / a.shape[-1])


def softmax_last(a) -> Tensor:
    """Softmax over the final axis, stabilized by max subtraction.

    Entries equal to -inf get exactly zero weight; a row that is all -inf
    is a caller bug and would produce NaNs, so it is rejected.
    """
    a = as_tensor(a)
    m = np.max(a.data, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ContractError("softmax_last row with no finite entry")
    e = np.exp(a.data - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _make_node(y, (a,), "softmax_last")

    def _bw():
        if a.requires_grad:
            g = out.grad
            dot = np.sum(g * out.data, axis=-1, keepdims=True)
            a.accumulate_grad((g - dot) * out.data)

    out._backward = _bw
    return out


def logsumexp_last(a) -> Tensor:
    """log(sum(exp(x))) over the final axis, stabilized; -inf entries drop out."""
    a = as_tensor(a)
    m = np.max(a.data, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ContractError("logsumexp_last row with no finite entry")
    e = np.exp(a.data - m)
    out_data = (m + np.log(e.sum(axis=-1, keepdims=True)))[..., 0]
    out = _make_node(out_data, (a,), "logsumexp_last")
    softmax = e / e.sum(axis=-1, keepdims=True)

    def _bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad[..., None] * softmax)

    out._backward = _bw
    return out


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
