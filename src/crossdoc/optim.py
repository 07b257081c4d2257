"""AdamW with decoupled weight decay and a linear warmup / linear decay
learning-rate schedule."""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericError, ShapeError

# Elements per window of the in-place AdamW update.  Either half of the update
# touches at most five window-sized arrays, 5 x 128 KB in float64 (half that
# in float32), which stay in a core's L2 cache.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Schedule:
    total_steps: int
    base_lr: float
    warmup_frac: float

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("schedule needs at least one step")
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ConfigError(f"warmup_frac must lie in [0, 1), got {self.warmup_frac}")
        if not 0.0 < self.base_lr < math.inf:  # NaN fails too
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")

    @property
    def warmup_steps(self) -> int:
        return round(self.warmup_frac * self.total_steps)


def lr_at(schedule: Schedule, step: int) -> float:
    """Linear 0 -> base over the warmup, then linear base -> 0 at the end."""
    if step < 0 or step > schedule.total_steps:
        raise ContractError(
            f"step {step} outside schedule [0, {schedule.total_steps}]"
        )
    w = schedule.warmup_steps
    if w > 0 and step <= w:
        return schedule.base_lr * step / w
    return schedule.base_lr * (schedule.total_steps - step) / (schedule.total_steps - w)


def _plan_windows(spans: list[tuple[int, int]]) -> list[tuple]:
    """``(lo, hi, parts)`` per update window of the flat buffers.

    The buffers are cut into windows of ``_CHUNK`` elements (the last may be
    shorter); ``parts`` are ``(parameter index, start, stop)`` slices of the
    flat gradients that cover ``[lo, hi)``, in order.  A window inside one
    parameter has one part, which the update reads directly.
    """
    windows, start, parts = [], 0, []
    for i, (lo, hi) in enumerate(spans):
        pos = lo
        while pos < hi:
            end = min(hi, start + _CHUNK)
            parts.append((i, pos - lo, end - lo))
            pos = end
            if end - start == _CHUNK:
                windows.append((start, end, parts))
                start, parts = end, []
    if parts:
        windows.append((start, spans[-1][1], parts))
    return windows


def _gather(grads: list[np.ndarray], parts: list[tuple], out: np.ndarray) -> np.ndarray:
    """One window's gradient: its only part as it is, or every part copied
    into ``out``, which has the parameters' dtype."""
    if len(parts) == 1:
        i, a, b = parts[0]
        return grads[i][a:b]
    return np.concatenate([grads[i][a:b] for i, a, b in parts], out=out)


def _deliver(ref: weakref.ref, i: int) -> None:
    """A parameter's ``grad_hook``: hand its gradient to the optimizer, if
    that still exists.  The hook holds the optimizer weakly, so a parameter
    does not keep it alive."""
    opt = ref()
    if opt is not None:
        opt._arrive(i)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The constructor packs every parameter into one flat buffer of the
    parameters' dtype (float64 or float32; a mix is a ``ContractError``) and
    rebinds each ``p.data`` to its view of it; only then are the moments
    allocated, one flat buffer each of the same dtype, with ``m[name]`` and
    ``v[name]`` views of them.

    An update has two halves.  The moment half, ``m = b1*m + (1-b1)*g`` and
    ``v = b2*v + ((1-b2)*g)*g``, needs the gradient but neither the learning
    rate nor the step count, so it runs during ``backward``: the
    constructor sets each parameter's ``grad_hook``, and once every
    parameter of an update window (see ``_plan_windows``) has its final
    gradient, that window is checked and folded into the moments, and a
    parameter's ``grad`` is dropped once every window it touches is folded.
    ``step(lr)`` folds whatever windows are still pending, from ``p.grad``
    (gradients set by hand take this path), then writes the parameters.  The
    last optimizer built over a parameter receives its gradients.

    Every parameter needs one gradient of its dtype per step.  A missing
    gradient, one of another dtype, or a second one before ``step`` is a
    ``ContractError``; a non-finite one is a ``NumericError``.  Each names
    the parameter.  After any of these no parameter has been written and
    ``step_count`` has not moved.  The moments of the windows folded during
    ``backward`` before the failure have advanced, though, so the run must
    not step on.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        betas: tuple[float, float],
        eps: float,
        weight_decay: float,
    ):
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if not eps > 0.0:
            raise ConfigError("epsilon must be positive")
        if not weight_decay >= 0.0:
            raise ConfigError("weight decay must be >= 0")
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        dtypes = sorted({p.data.dtype.name for p in self.params.values()})
        if len(dtypes) > 1:
            raise ContractError(f"parameters mix dtypes {dtypes}")
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()])
        spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self._windows = _plan_windows(spans)
        total = int(bounds[-1])
        dtype = dtypes[0] if dtypes else np.float64
        self._p = np.empty(total, dtype)
        self._views = {}
        for (name, p), (lo, hi) in zip(self.params.items(), spans):
            view = self._p[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = self._views[name] = view
        # The parameters' own arrays are released before the moments exist.
        # The moments are written here rather than left to calloc's lazy zero
        # pages, so the first step does not pay their page faults.
        self._m, self._v = np.full(total, 0.0, dtype), np.full(total, 0.0, dtype)
        self.m, self.v = {}, {}
        for (name, p), (lo, hi) in zip(self.params.items(), spans):
            self.m[name] = self._m[lo:hi].reshape(p.shape)
            self.v[name] = self._v[lo:hi].reshape(p.shape)
        n = min(total, _CHUNK)
        self._scratch = (np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype))
        # The windows each parameter touches, and the fold state of one step.
        self._names, self._tensors = list(self.params), list(self.params.values())
        self._touches = [[] for _ in spans]
        for w, (_, _, parts) in enumerate(self._windows):
            for i, _, _ in parts:
                self._touches[i].append(w)
        self._new_step()
        ref = weakref.ref(self)
        for i, p in enumerate(self._tensors):
            p.grad_hook = functools.partial(_deliver, ref, i)

    def _new_step(self) -> None:
        """Forget the gradients of the step just written: no parameter has
        arrived and no window is folded."""
        self._grads = [None] * len(self._tensors)  # flat gradients in use
        self._arrived = [False] * len(self._tensors)  # delivered by backward
        self._waiting = [len(parts) for _, _, parts in self._windows]
        self._open = [len(ws) for ws in self._touches]
        self._folded = [False] * len(self._windows)

    def _take(self, i: int) -> None:
        """Hold parameter ``i``'s gradient, flattened, for the folds."""
        p = self._tensors[i]
        if p.grad is None:
            raise ContractError(f"parameter {self._names[i]!r} has no gradient")
        if p.grad.dtype != self._p.dtype:
            raise ContractError(
                f"parameter {self._names[i]!r} has a {p.grad.dtype} gradient, not {self._p.dtype}")
        self._grads[i] = p.grad.reshape(-1)

    def _arrive(self, i: int) -> None:
        """Parameter ``i``'s gradient is final: fold every window it
        completes."""
        if self._arrived[i]:
            raise ContractError(
                f"parameter {self._names[i]!r} got a second gradient before step")
        self._take(i)
        self._arrived[i] = True
        for w in self._touches[i]:
            self._waiting[w] -= 1
            if not self._waiting[w]:
                self._fold(w)

    def _checked(self, w: int) -> np.ndarray:
        """Window ``w``'s gradient, once it is known to be finite."""
        lo, hi, parts = self._windows[w]
        gc = _gather(self._grads, parts, self._scratch[2][:hi - lo])
        if not np.isfinite(gc).all():
            bad = next(i for i, a, b in parts if not np.isfinite(self._grads[i][a:b]).all())
            raise NumericError(f"non-finite gradient for parameter {self._names[bad]!r}")
        return gc

    def _fold(self, w: int) -> None:
        """Fold window ``w``'s gradient into the moments once it is checked;
        release the gradient of each parameter with no window left to fold."""
        gc = self._checked(w)
        lo, hi, parts = self._windows[w]
        b1, b2 = self.betas
        mc, vc, a = self._m[lo:hi], self._v[lo:hi], self._scratch[0][:hi - lo]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=a)
        mc += a
        vc *= b2
        np.multiply(gc, 1.0 - b2, out=a)
        a *= gc
        vc += a
        self._folded[w] = True
        for i, _, _ in parts:
            self._open[i] -= 1
            if not self._open[i]:
                self._grads[i] = None
                if self._arrived[i]:
                    self._tensors[i].grad = None

    def step(self, lr: float) -> None:
        """Fold the pending windows, then write every parameter.

        Gradients ``backward`` did not deliver are read from ``p.grad``;
        every one of them, and every pending window, is checked before any
        pending window is folded.  The update runs in place over the flat
        buffers, window by window, with three scratch buffers.  Every
        operation is in the parameters' dtype, with each scalar rounded to
        it.  Per element it performs the IEEE operations of the whole-array
        formula, in its order: ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g`` and ``p = p*decay - lr*(m/bias1) /
        (sqrt(v/bias2) + eps)``, so the results are bit-identical to it
        evaluated in that dtype, whichever half ran during ``backward``; at
        zero weight decay ``p*decay`` is ``p`` exactly.  The contract on
        failures is the class docstring's.
        """
        for name, p in self.params.items():
            if p.data is not self._views[name]:
                raise ContractError(f"parameter {name!r} no longer holds the optimizer's buffer")
        for i, arrived in enumerate(self._arrived):
            if not arrived:
                self._take(i)
        pending = [w for w, folded in enumerate(self._folded) if not folded]
        for w in pending:
            self._checked(w)
        for w in pending:
            self._fold(w)
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        buf_a, buf_b, _ = self._scratch
        for lo, hi, _ in self._windows:
            n = hi - lo
            pc, mc, vc, a, b = self._p[lo:hi], self._m[lo:hi], self._v[lo:hi], buf_a[:n], buf_b[:n]
            np.divide(vc, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(mc, bias1, out=a)
            a *= lr
            a /= b
            np.multiply(pc, decay, out=b)
            np.subtract(b, a, out=pc)
        self._new_step()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing."""
        out = {}
        for name in self.params:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, step_count: int, arrays: dict[str, np.ndarray]) -> None:
        """Restore the step count and the moments, written in place into the
        flat buffers; every shape is checked before anything is written."""
        for name, p in self.params.items():
            for key in (f"m.{name}", f"v.{name}"):
                if np.shape(arrays[key]) != p.shape:
                    raise ShapeError(f"optimizer state {key} has shape {np.shape(arrays[key])}, not {p.shape}")
        self.step_count = step_count
        for name in self.params:
            self.m[name][...] = arrays[f"m.{name}"]
            self.v[name][...] = arrays[f"v.{name}"]
