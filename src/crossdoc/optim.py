"""AdamW with decoupled weight decay and a linear warmup / linear decay
learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericError, ShapeError

# Elements per window of the in-place AdamW update.  One window of p, m, v and g
# plus the two scratch buffers is 6 x 128 KB in float64 (half that in
# float32), which stays in a core's L2 cache.
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


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The constructor packs every parameter into one flat buffer of the
    parameters' dtype (float64 or float32; a mix is a ``ContractError``) and
    rebinds each ``p.data`` to its view of it; the moments are one flat
    buffer each of the same dtype, and ``m[name]``/``v[name]`` are views of
    them.
    Every parameter needs a gradient of its dtype at every step: a missing
    one or one of another dtype is a ``ContractError`` and a non-finite one
    a ``NumericError``, each naming the parameter and raised before anything
    is written.
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
        # The moments are written here rather than left to calloc's lazy zero
        # pages, so the first step does not pay their page faults.
        dtype = dtypes[0] if dtypes else np.float64
        self._p = np.empty(total, dtype)
        self._m, self._v = np.full(total, 0.0, dtype), np.full(total, 0.0, dtype)
        self._views, self.m, self.v = {}, {}, {}
        for (name, p), (lo, hi) in zip(self.params.items(), spans):
            shape = p.data.shape
            view = self._p[lo:hi].reshape(shape)
            view[...] = p.data
            p.data = self._views[name] = view
            self.m[name] = self._m[lo:hi].reshape(shape)
            self.v[name] = self._v[lo:hi].reshape(shape)
        n = min(total, _CHUNK)
        self._scratch = (np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype))

    def step(self, lr: float) -> None:
        """One update of every parameter.

        The update is written in place over the flat buffers, window by
        window (see ``_plan_windows``), with three scratch buffers.  Every
        operation is in the parameters' dtype, with each scalar rounded to
        it.  Per element it performs the IEEE operations of the whole-array
        formula, in its order: ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g`` and ``p = p*decay - lr*(m/bias1) /
        (sqrt(v/bias2) + eps)``, so the results are bit-identical to it
        evaluated in that dtype; at zero weight decay ``p*decay`` is ``p``
        exactly.  A gradient of another dtype is a ``ContractError``.
        """
        grads = []
        for name, p in self.params.items():
            if p.data is not self._views[name]:
                raise ContractError(f"parameter {name!r} no longer holds the optimizer's buffer")
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            if p.grad.dtype != self._p.dtype:
                raise ContractError(f"parameter {name!r} has a {p.grad.dtype} gradient, not {self._p.dtype}")
            grads.append(p.grad.reshape(-1))
        buf_a, buf_b, buf_g = self._scratch
        # Every gradient is checked before anything is written.
        for lo, hi, parts in self._windows:
            if not np.isfinite(_gather(grads, parts, buf_g[:hi - lo])).all():
                bad = next(name for name, g in zip(self.params, grads) if not np.isfinite(g).all())
                raise NumericError(f"non-finite gradient for parameter {bad!r}")
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        for lo, hi, parts in self._windows:
            n = hi - lo
            pc, mc, vc, a, b = self._p[lo:hi], self._m[lo:hi], self._v[lo:hi], buf_a[:n], buf_b[:n]
            gc = _gather(grads, parts, buf_g[:n])
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=a)
            a *= gc
            vc += a
            np.divide(vc, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(mc, bias1, out=a)
            a *= lr
            a /= b
            np.multiply(pc, decay, out=b)
            np.subtract(b, a, out=pc)

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
