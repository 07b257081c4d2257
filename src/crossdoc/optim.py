"""AdamW with decoupled weight decay and a linear warmup / linear decay
learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericError, ShapeError

# Elements per window of the in-place AdamW update.  One window of p, m, v and g
# plus the two scratch buffers is 6 x 128 KB, which stays in a core's L2 cache.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Schedule:
    total_steps: int
    base_lr: float
    warmup_frac: float = 0.1

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("schedule needs at least one step")
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ConfigError("warmup fraction must lie in [0, 1)")
        if self.base_lr <= 0.0:
            raise ConfigError("base learning rate must be positive")

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


def _gather(parts: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """One window's gradient: its only part as it is, or every part copied
    into ``out``."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, out=out)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The constructor packs every parameter into one flat float64 buffer and
    rebinds each ``p.data`` to its view of it; the moments are one flat
    buffer each, and ``m[name]``/``v[name]`` are views of them.  Parameters
    whose grad is None are skipped entirely (they were not part of the
    step's graph).  A non-finite gradient halts the run naming the offending
    parameter, before anything is written.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if eps <= 0.0:
            raise ConfigError("epsilon must be positive")
        if weight_decay < 0.0:
            raise ConfigError("weight decay must be >= 0")
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()])
        self._spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        total = int(bounds[-1])
        # The moments are written here rather than left to calloc's lazy zero
        # pages, so the first step does not pay their page faults.
        self._p, self._m, self._v = np.empty(total), np.full(total, 0.0), np.full(total, 0.0)
        self._views, self.m, self.v = {}, {}, {}
        for (name, p), (lo, hi) in zip(self.params.items(), self._spans):
            shape = p.data.shape
            view = self._p[lo:hi].reshape(shape)
            view[...] = p.data
            p.data = self._views[name] = view
            self.m[name] = self._m[lo:hi].reshape(shape)
            self.v[name] = self._v[lo:hi].reshape(shape)
        n = min(total, _CHUNK)
        self._scratch = (np.empty(n), np.empty(n), np.empty(n))

    def step(self, lr: float) -> None:
        """One update of every parameter that has a gradient.

        The update is written in place over the flat buffers, window by
        window (see ``_windows``), with three scratch buffers.  Per element
        it performs the IEEE operations of the whole-array formula, in its
        order: ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
        ``p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)``, so results are
        bit-identical to it.
        """
        flat_grads = []
        for name, p in self.params.items():
            if p.data is not self._views[name]:
                raise ContractError(f"parameter {name!r} no longer holds the optimizer's buffer")
            flat_grads.append(None if p.grad is None else p.grad.reshape(-1))
        windows = list(self._windows(flat_grads))
        buf_a, buf_b, buf_g = self._scratch
        # Every gradient is checked before anything is written.
        for lo, hi, parts in windows:
            if not np.isfinite(_gather(parts, buf_g[:hi - lo])).all():
                bad = next(name for name, g in zip(self.params, flat_grads)
                           if g is not None and not np.isfinite(g).all())
                raise NumericError(f"non-finite gradient for parameter {bad!r}")
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        for lo, hi, parts in windows:
            n = hi - lo
            pc, mc, vc, a, b = self._p[lo:hi], self._m[lo:hi], self._v[lo:hi], buf_a[:n], buf_b[:n]
            gc = _gather(parts, buf_g[:n])
            if self.weight_decay:
                pc *= decay
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
            pc -= a

    def _windows(self, flat_grads):
        """``(lo, hi, parts)`` per update window of the flat buffers.

        Each run of consecutive parameters that have a gradient is cut into
        windows of at most ``_CHUNK`` elements; ``parts`` are the slices of
        the flat gradients that cover ``[lo, hi)``, in order.  A window
        inside one parameter has one part, which the update reads directly.
        """
        start, parts = 0, []
        for (lo, hi), g in zip(self._spans, flat_grads):
            if g is None:
                if parts:
                    yield start, lo, parts
                    parts = []
                continue
            if not parts:
                start = lo
            pos = lo
            while pos < hi:
                end = min(hi, start + _CHUNK)
                parts.append(g[pos - lo:end - lo])
                pos = end
                if end - start == _CHUNK:
                    yield start, end, parts
                    start, parts = end, []
        if parts:
            yield start, self._p.size, parts

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
