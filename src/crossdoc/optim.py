"""AdamW with decoupled weight decay and a linear warmup / linear decay
learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericError

# Elements per slice of the in-place AdamW update.  One slice of p, m, v and g
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


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Parameters whose grad is None are skipped entirely (they were not part of
    the step's graph).  A non-finite gradient halts the run naming the
    offending parameter, before anything is written.  Parameters must be
    C-contiguous, because the update is written through flat views of them.
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
        for name, p in params.items():
            if not p.data.flags.c_contiguous:
                raise ContractError(f"parameter {name!r} is not C-contiguous")
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        largest = max((p.data.size for p in self.params.values()), default=0)
        self._scratch = (np.empty(min(largest, _CHUNK)), np.empty(min(largest, _CHUNK)))

    def step(self, lr: float) -> None:
        """One update of every parameter that has a gradient.

        The update is written in place, chunk by chunk (see ``_chunks``), with
        two scratch buffers.  Per element it performs the IEEE operations of
        the whole-array formula, in its order: ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g`` and
        ``p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)``, so results are
        bit-identical to it.
        """
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            for pc, mc, vc, gc, a, b in self._chunks(p.data, self.m[name], self.v[name], g):
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

    def _chunks(self, p, m, v, g):
        """Matching slices of p, m, v and g, plus two scratch slices of their shape.

        A parameter of at most ``_CHUNK`` elements comes whole; a larger one
        is walked through flat views.  ``reshape(copy=False)`` raises rather
        than hand back a copy that would silently swallow the update.
        """
        buf_a, buf_b = self._scratch
        n = p.size
        if n <= _CHUNK:
            yield p, m, v, g, buf_a[:n].reshape(p.shape), buf_b[:n].reshape(p.shape)
            return
        flat = [x.reshape(-1, copy=False) for x in (p, m, v)] + [g.reshape(-1)]
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            yield (*(x[lo:hi] for x in flat), buf_a[:hi - lo], buf_b[:hi - lo])

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing."""
        out = {}
        for name in self.params:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, step_count: int, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = step_count
        for name in self.params:
            self.m[name] = np.array(arrays[f"m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"v.{name}"], dtype=np.float64)
