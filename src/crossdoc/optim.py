"""AdamW with decoupled weight decay.  The learning rate of each step is
the caller's (``RunConfig.lr_at``)."""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NumericError, ShapeError

# Elements per piece of the in-place AdamW update, and the most a fold group of
# several parameters holds.  Either half of the update touches at most five
# piece-sized arrays, 5 x 128 KB in float64 (half in float32), which stay in L2.
_CHUNK = 1 << 14


def _plan_groups(sizes: list[int]) -> list[list]:
    """``[lo, hi, members]`` per fold group of the flat buffers: a run of
    consecutive parameters whose sizes sum to at most ``_CHUNK``, or one
    larger parameter on its own.  No parameter is split, so a group can be
    folded, and its gradients dropped, once each member's has arrived."""
    groups, pos = [], 0
    for i, n in enumerate(sizes):
        if not groups or pos + n - groups[-1][0] > _CHUNK:
            groups.append([pos, pos, []])
        pos += n
        groups[-1][1] = pos
        groups[-1][2].append(i)
    return groups


def _deliver(ref: weakref.ref, i: int, k: int) -> None:
    """Parameter ``i``'s ``grad_hook``, in group ``k``: hand its gradient to
    the optimizer, if that still exists; the hook holds it only weakly."""
    opt = ref()
    if opt is not None:
        opt._arrive(i, k)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The parameters live in one flat buffer of their dtype (float64 or
    float32; a mix is a ``ContractError``), and each ``p.data`` is rebound
    to a new view of it.  Parameters that already are consecutive
    C-contiguous views of one 1-D buffer, in dict order, keep that buffer
    (``CrossModalModel.create`` builds them so); any other set is copied
    into a new one, and its own arrays are released before the moments
    exist: one flat buffer each of the same dtype, with ``m[name]`` and
    ``v[name]`` views of them.  Adopting the model's buffer holds the
    wide-pretrain peak RSS at 476.6 MB, where packing a copy reads 564.7 MB
    (3 of 3 pairs on a 2-core x86 box, ``BENCH_perf_debt.json``).

    An update has two halves.  The moment half, ``m = b1*m + (1-b1)*g`` and
    ``v = b2*v + ((1-b2)*g)*g``, needs neither the learning rate nor the
    step count, so it runs during ``backward``: the constructor sets each
    parameter's ``grad_hook``, and once each member of a group of whole
    parameters (``_plan_groups``) has its final gradient, the group is
    checked, folded into the moments and each member's ``grad`` dropped, so
    no step holds every gradient at once: folding every group in ``step``
    instead raises the wide-pretrain peak RSS from 476.6 to 576.7 MB and
    ``step_ms`` from 332 to 387 ms (3 of 3 pairs).  ``step(lr)`` writes the
    parameters.  No ``grad`` set by hand, or left by a ``backward`` run
    before the optimizer existed, is read.  The last optimizer built over a
    parameter receives its gradients.

    Every parameter needs one gradient of its dtype per step.  A missing
    gradient, one of another dtype, or a second one before ``step`` is a
    ``ContractError``; a non-finite one is a ``NumericError`` raised before
    any of its group is folded.  Each names the parameter.  After any of
    these no parameter has been written and ``step_count`` has not moved,
    but the groups folded during ``backward`` before the failure have
    advanced their moments, so the run must not step on.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        betas: tuple[float, float],
        eps: float,
        weight_decay: float,
    ):
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
        self._groups = _plan_groups([hi - lo for lo, hi in spans])
        total = int(bounds[-1])
        dtype = dtypes[0] if dtypes else np.float64
        base = next(iter(self.params.values())).data.base if self.params else None
        shared = (isinstance(base, np.ndarray) and base.shape == (total,) and base.flags.writeable
                  and all(p.data.__array_interface__ == base[lo:hi].reshape(p.shape).__array_interface__
                          for p, (lo, hi) in zip(self.params.values(), spans)))
        self._p = base if shared else np.empty(total, dtype)
        self._views = {}
        for (name, p), (lo, hi) in zip(self.params.items(), spans):
            view = self._p[lo:hi].reshape(p.data.shape)
            if not shared:
                view[...] = p.data
            p.data = self._views[name] = view
        self._m, self._v = np.zeros(total, dtype), np.zeros(total, dtype)
        self.m, self.v = {}, {}
        for (name, p), (lo, hi) in zip(self.params.items(), spans):
            self.m[name] = self._m[lo:hi].reshape(p.shape)
            self.v[name] = self._v[lo:hi].reshape(p.shape)
        n = min(total, _CHUNK)
        self._scratch = (np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype))
        self._names, self._tensors = list(self.params), list(self.params.values())
        self._new_step()
        ref = weakref.ref(self)
        for k, (_, _, members) in enumerate(self._groups):
            for i in members:
                self._tensors[i].grad_hook = functools.partial(_deliver, ref, i, k)

    def _new_step(self) -> None:
        """Forget the step just written: each group waits for all its members."""
        self._arrived = [False] * len(self._tensors)
        self._waiting = [len(members) for _, _, members in self._groups]

    def _arrive(self, i: int, k: int) -> None:
        """Parameter ``i``'s gradient is final: fold its group ``k`` if that
        was the last member it waited for.  ``i`` counts as arrived, and is
        no longer waited for, only once that fold is done, so a group whose
        fold failed still waits for it and ``step`` refuses."""
        p = self._tensors[i]
        if self._arrived[i]:
            raise ContractError(
                f"parameter {self._names[i]!r} got a second gradient before step")
        if p.grad.dtype != self._p.dtype:
            raise ContractError(
                f"parameter {self._names[i]!r} has a {p.grad.dtype} gradient, not {self._p.dtype}")
        if self._waiting[k] == 1:
            self._fold(k)
        self._waiting[k] -= 1
        self._arrived[i] = True

    def _fold(self, k: int) -> None:
        """Check group ``k``'s gradient, fold it into the moments piece by
        piece, and drop each member's ``grad``."""
        lo, hi, members = self._groups[k]
        grads = [self._tensors[i].grad.reshape(-1) for i in members]
        g = grads[0] if len(grads) == 1 else np.concatenate(grads, out=self._scratch[2][:hi - lo])
        if not np.isfinite(g).all():
            bad = next(i for i, gi in zip(members, grads) if not np.isfinite(gi).all())
            raise NumericError(f"non-finite gradient for parameter {self._names[bad]!r}")
        b1, b2 = self.betas
        m, v = self._m[lo:hi], self._v[lo:hi]
        for s in range(0, hi - lo, _CHUNK):
            gc, mc, vc = g[s:s + _CHUNK], m[s:s + _CHUNK], v[s:s + _CHUNK]
            a = self._scratch[0][:gc.size]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=a)
            a *= gc
            vc += a
        for i in members:
            self._tensors[i].grad = None

    def step(self, lr: float) -> None:
        """Write every parameter from the moments ``backward`` folded.

        The update runs in place over the flat buffers, ``_CHUNK`` elements
        at a time, with three scratch buffers, every operation in the
        parameters' dtype with each scalar rounded to it.  Per element the
        two halves perform the IEEE operations of the whole-array formula,
        in its order: ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``
        and ``p = p*decay - lr*(m/bias1) / (sqrt(v/bias2) + eps)``, so the
        results are bit-identical to it evaluated in that dtype; at zero
        weight decay ``p*decay`` is ``p`` exactly.  The contract on failures
        is the class docstring's.
        """
        for name, p in self.params.items():
            if p.data is not self._views[name]:
                raise ContractError(f"parameter {name!r} no longer holds the optimizer's buffer")
        for name, arrived in zip(self._names, self._arrived):
            if not arrived:
                raise ContractError(
                    f"parameter {name!r} got no gradient from backward since the last step; "
                    "a grad set any other way is not read")
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        buf_a, buf_b, _ = self._scratch
        for lo in range(0, self._p.size, _CHUNK):
            piece = slice(lo, lo + _CHUNK)
            pc, mc, vc = self._p[piece], self._m[piece], self._v[piece]
            a, b = buf_a[:pc.size], buf_b[:pc.size]
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
        """The moments as ``m.<name>`` then ``v.<name>`` views, in the order
        of the flat buffers, which is the order a checkpoint stores them."""
        return {f"{key}.{name}": arr for key, moments in (("m", self.m), ("v", self.v))
                for name, arr in moments.items()}

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
