"""Optimizer and schedule tests."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.autodiff import Tensor
from crossdoc.config import RunConfig
from crossdoc.errors import ConfigError, ContractError, NumericError, ShapeError
from crossdoc.model import CrossModalModel
from crossdoc.optim import _CHUNK

from oracles import reference_adamw_step
from run_settings import adamw, backward_grads


def wide_range_grad(rng, shape):
    """Gradients whose magnitudes span 1e-8 to 1e3, with exact zeros."""
    g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 3.0, size=shape)
    g.reshape(-1)[::7] = 0.0
    return g


# Parameters of every kind of fold group: "big" (2.5 chunks) and "last" (one
# chunk and 5) are groups of their own, and "small" and "bias" share one.
# "big" ends mid-chunk, in the same chunk of the flat buffer as "small".
SPANNING_SHAPES = {"big": (5, _CHUNK // 2), "small": (3, 7), "bias": (7,), "last": (_CHUNK + 5,)}


class TestSchedule:
    """``RunConfig.lr_at``: linear warmup over ``warmup_frac`` of the steps,
    then linear decay to 0 at ``steps``."""

    def test_boundary_values(self):
        cfg = RunConfig(steps=100, base_lr=2e-5, warmup_frac=0.1)
        assert cfg.lr_at(0) == 0.0
        assert cfg.lr_at(10) == pytest.approx(2e-5)
        assert cfg.lr_at(100) == 0.0

    def test_linear_in_both_phases(self):
        cfg = RunConfig(steps=200, base_lr=1.0, warmup_frac=0.1)
        assert cfg.lr_at(10) == pytest.approx(0.5)
        assert cfg.lr_at(110) == pytest.approx(0.5)

    def test_out_of_range_step(self):
        cfg = RunConfig(steps=10, base_lr=1.0, warmup_frac=0.1)
        with pytest.raises(ContractError):
            cfg.lr_at(11)
        with pytest.raises(ContractError):
            cfg.lr_at(-1)

    def test_validation(self):
        with pytest.raises(ConfigError, match=re.escape("warmup_frac must lie in [0, 1), got 1.0")):
            RunConfig(warmup_frac=1.0)
        with pytest.raises(ConfigError, match="base_lr must be finite and positive, got 0.0"):
            RunConfig(base_lr=0.0)
        # zero steps train nothing; the schedule still spans one step
        cfg = RunConfig(steps=0, base_lr=1.0)
        assert (cfg.lr_at(0), cfg.lr_at(1)) == (1.0, 0.0)
        with pytest.raises(ContractError):
            cfg.lr_at(2)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = adamw({"w": w}, weight_decay=0.0)
        backward_grads({"w": w}, {"w": np.zeros(2)})
        opt.step(0.1)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])

    def test_single_step_on_quadratic(self):
        """One step on f(w) = w^2/2 from w=1 at lr 0.1: bias correction makes
        the first update ~ lr * sign(grad), so w moves to ~0.9."""
        w = Tensor([1.0], requires_grad=True)
        opt = adamw({"w": w}, weight_decay=0.0)
        loss = ad.scale(ad.tensor_sum(ad.mul(w, w)), 0.5)
        ad.backward(loss)
        opt.step(0.1)
        assert abs(w.data[0] - 0.9) < 1e-6

    def test_decay_only_shrinks_weights(self):
        """With zero gradients, decoupled decay gives w <- w * (1 - lr * d)."""
        w = Tensor([2.0, -4.0], requires_grad=True)
        opt = adamw({"w": w}, weight_decay=0.5)
        backward_grads({"w": w}, {"w": np.zeros(2)})
        opt.step(0.1)
        np.testing.assert_allclose(w.data, [2.0 * 0.95, -4.0 * 0.95], atol=1e-15)

    def test_non_finite_grad_names_parameter(self):
        w = Tensor([1.0], requires_grad=True)
        opt = adamw({"encoder.table": w})
        with pytest.raises(NumericError, match="encoder.table"):
            backward_grads({"encoder.table": w}, {"encoder.table": np.array([np.nan])})
        assert opt.step_count == 0 and w.data[0] == 1.0

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            w = Tensor(rng.normal(size=4), requires_grad=True)
            opt = adamw({"w": w})
            history = []
            for step in range(20):
                loss = ad.scale(ad.tensor_sum(ad.mul(w, w)), 0.5)
                tape = ad.backward(loss)
                opt.step(0.05)
                tape.clear()
                history.append(w.data.copy())
            return np.stack(history)

        np.testing.assert_array_equal(run(), run())

    def test_monotone_descent_on_convex_quadratic(self):
        """After warmup, loss on a convex quadratic is nonincreasing within
        200 steps at default settings."""
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=8), requires_grad=True)
        target = rng.normal(size=8)
        cfg = RunConfig(steps=200, base_lr=0.05, warmup_frac=0.1)
        opt = adamw({"w": w}, weight_decay=0.0)
        losses = []
        for step in range(cfg.steps):
            diff = ad.sub(w, Tensor(target))
            loss = ad.tensor_sum(ad.mul(diff, diff))
            losses.append(loss.item())
            tape = ad.backward(loss)
            opt.step(cfg.lr_at(step))
            tape.clear()
        after_warmup = losses[round(cfg.warmup_frac * cfg.steps):]
        diffs = np.diff(after_warmup)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_whole_array_reference(self, weight_decay):
        """The chunked in-place update is bit-identical to the whole-array
        formula over 20 steps, for a parameter of 2.5 chunks (not a multiple
        of the chunk size) and one smaller than a chunk."""
        rng = np.random.default_rng(14)
        shapes = {"big": (5, _CHUNK // 2), "small": (3, 7)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        ref = {k: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for k, p in params.items()}
        opt = adamw(params, weight_decay=weight_decay)
        for t in range(1, 21):
            lr = 1e-3 * t
            grads = {name: wide_range_grad(rng, p.shape) for name, p in params.items()}
            for name, g in grads.items():
                reference_adamw_step(*ref[name], g, lr, t, RunConfig(weight_decay=weight_decay))
            backward_grads(params, grads)
            opt.step(lr)
        for name, p in params.items():
            ref_p, ref_m, ref_v = ref[name]
            np.testing.assert_array_equal(p.data, ref_p)
            np.testing.assert_array_equal(opt.m[name], ref_m)
            np.testing.assert_array_equal(opt.v[name], ref_v)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_float32_update_is_the_reference_in_float32(self, weight_decay):
        """float32 parameters keep float32 moments and update in float32:
        over 5 steps, parameters and moments equal the whole-array formula
        evaluated on float32 arrays bit for bit.  The shapes give a group of
        two parameters, folded from the scratch buffer, and groups of one
        larger than a chunk."""
        rng = np.random.default_rng(17)
        params = {k: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for k, s in SPANNING_SHAPES.items()}
        ref = {k: [p.data.copy(), np.zeros(p.shape, np.float32), np.zeros(p.shape, np.float32)]
               for k, p in params.items()}
        opt = adamw(params, weight_decay=weight_decay)
        assert {a.dtype for a in (opt._p, opt._m, opt._v, *opt._scratch)} == {np.dtype(np.float32)}
        assert any(len(members) > 1 for _, _, members in opt._groups)
        for t in range(1, 6):
            lr = 1e-3 * t
            grads = {name: wide_range_grad(rng, p.shape).astype(np.float32)
                     for name, p in params.items()}
            for name, g in grads.items():
                reference_adamw_step(*ref[name], g, lr, t, RunConfig(weight_decay=weight_decay))
            backward_grads(params, grads)
            opt.step(lr)
            for name, p in params.items():
                ref_p, ref_m, ref_v = ref[name]
                assert p.data.tobytes() == ref_p.tobytes()
                assert opt.m[name].tobytes() == ref_m.tobytes()
                assert opt.v[name].tobytes() == ref_v.tobytes()

    def test_mixed_parameter_dtypes_rejected(self):
        params = {"a": Tensor(np.zeros(3, np.float32)), "b": Tensor(np.zeros(3))}
        with pytest.raises(ContractError, match=r"mix dtypes \['float32', 'float64'\]"):
            adamw(params)

    def test_non_finite_in_last_chunk_leaves_state_unchanged(self):
        name = "stack.block1.ff.weight"
        rng = np.random.default_rng(15)
        w = Tensor(rng.normal(size=(5, _CHUNK // 2)), requires_grad=True)
        opt = adamw({name: w})
        backward_grads({name: w}, {name: wide_range_grad(rng, w.shape)})
        opt.step(1e-3)
        before = [w.data.copy(), opt.m[name].copy(), opt.v[name].copy()]
        g = wide_range_grad(rng, w.shape)
        g.reshape(-1)[-1] = np.nan
        with pytest.raises(NumericError, match=name):
            backward_grads({name: w}, {name: g})
        for after, expected in zip([w.data, opt.m[name], opt.v[name]], before):
            np.testing.assert_array_equal(after, expected)

    def test_non_contiguous_parameter_is_packed(self):
        """A transposed parameter is copied into the flat buffer; its update
        matches the oracle."""
        x = np.arange(12.0).reshape(3, 4).T
        w = Tensor(x, requires_grad=True)
        opt = adamw({"w": w})
        assert w.data.flags.c_contiguous
        np.testing.assert_array_equal(w.data, x)
        ref = [x.copy(), np.zeros(x.shape), np.zeros(x.shape)]
        reference_adamw_step(*ref, np.ones(x.shape), 1e-3, 1, RunConfig())
        backward_grads({"w": w}, {"w": np.ones(x.shape)})
        opt.step(1e-3)
        np.testing.assert_array_equal(w.data, ref[0])

    def test_model_buffer_is_adopted_not_copied(self):
        """Over a model's parameters, which are consecutive views of one flat
        buffer, AdamW uses that buffer: it allocates the moments and its
        scratch and no copy of the parameters, and the moments are zero.  A
        second optimizer over the same parameters adopts it too, and the
        first, now stale, cannot step."""
        params = CrossModalModel.create(RunConfig()).parameters()
        flat = next(iter(params.values())).data.base
        before = {name: p.data.copy() for name, p in params.items()}
        tracemalloc.start()
        try:
            first = adamw(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first._p is flat
        assert peak < 2 * flat.nbytes + sum(a.nbytes for a in first._scratch) + flat.nbytes // 2
        assert all(np.shares_memory(p.data, flat) for p in params.values())
        assert not first._m.any() and not first._v.any()
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes()
        second = adamw(params)
        assert second._p is flat
        backward_grads(params, {name: np.ones(p.shape) for name, p in params.items()})
        with pytest.raises(ContractError, match="no longer holds the optimizer's buffer"):
            first.step(1e-3)
        second.step(1e-3)
        assert second.step_count == 1 and first.step_count == 0

    def test_rebound_parameter_data_rejected(self):
        """Data swapped for another array after construction is not the
        optimizer's view; the step raises instead of updating the wrong array.
        The moments folded during backward have advanced, but no parameter
        has been written and the step count has not moved."""
        w = Tensor(np.zeros((4, _CHUNK)), requires_grad=True)
        opt = adamw({"w": w})
        w.data = np.ones((4, _CHUNK))
        backward_grads({"w": w}, {"w": np.ones(w.shape)})
        with pytest.raises(ContractError, match="'w' no longer holds the optimizer's buffer"):
            opt.step(1e-3)
        np.testing.assert_array_equal(w.data, 1.0)
        np.testing.assert_array_equal(opt._p, 0.0)
        assert opt.step_count == 0

    @pytest.mark.parametrize("missing", ["a", "big", "c"])
    def test_missing_grad_rejected_before_any_write(self, missing):
        """A parameter that got no gradient from backward is a ContractError
        naming it, even with a ``grad`` set by hand, which is not read.  The
        other parameters' moments were folded during backward, but no
        parameter is written and the step count does not move."""
        rng = np.random.default_rng(16)
        shapes = {"a": (3, 5), "big": (3, _CHUNK // 2), "c": (7,)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        opt = adamw(params)
        backward_grads(params, {k: wide_range_grad(rng, p.shape) for k, p in params.items()})
        opt.step(1e-3)
        before = {k: p.data.copy() for k, p in params.items()}
        backward_grads(params, {k: wide_range_grad(rng, p.shape)
                                for k, p in params.items() if k != missing})
        params[missing].grad = wide_range_grad(rng, params[missing].shape)
        with pytest.raises(ContractError, match=(
                f"'{missing}' got no gradient from backward since the last step; "
                "a grad set any other way is not read")):
            opt.step(1e-3)
        assert opt.step_count == 1
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_gradient_of_another_dtype_rejected_before_any_write(self):
        """The update runs in the parameters' dtype; a float64 gradient for a
        float32 parameter is a ContractError naming it, and nothing moves."""
        params = {k: Tensor(np.ones(3, np.float32), requires_grad=True) for k in ("a", "b")}
        opt = adamw(params)
        # backward casts each gradient to its parameter's dtype, so the hook
        # is handed one of another dtype directly.
        params["a"].grad = np.ones(3, np.float32)
        params["a"].grad_hook()
        params["b"].grad = np.ones(3)
        with pytest.raises(ContractError, match="'b' has a float64 gradient, not float32"):
            params["b"].grad_hook()
        assert opt.step_count == 0
        assert params["a"].data.tobytes() == np.ones(3, np.float32).tobytes()
        assert not opt._m.any() and not opt._v.any()

    def test_non_finite_in_small_parameter_sharing_a_window(self):
        """Small parameters share one fold group; a NaN in the middle one is
        reported under its name and nothing at all is written."""
        rng = np.random.default_rng(17)
        params = {f"p{i}": Tensor(rng.normal(size=(3, 4)), requires_grad=True) for i in range(3)}
        opt = adamw(params)
        assert [members for _, _, members in opt._groups] == [[0, 1, 2]]
        backward_grads(params, {k: wide_range_grad(rng, p.shape) for k, p in params.items()})
        opt.step(1e-3)
        before = {k: [p.data.copy(), opt.m[k].copy(), opt.v[k].copy()] for k, p in params.items()}
        grads = {k: wide_range_grad(rng, p.shape) for k, p in params.items()}
        grads["p1"][1, 2] = np.nan
        with pytest.raises(NumericError, match="'p1'"):
            backward_grads(params, grads)
        for name, p in params.items():
            for got, expected in zip([p.data, opt.m[name], opt.v[name]], before[name]):
                np.testing.assert_array_equal(got, expected)
        assert opt.step_count == 1

    def test_load_state_then_step_equals_uninterrupted_run(self):
        shapes = {"w": (5, _CHUNK // 2), "b": (6,)}

        def grads(t):
            rng = np.random.default_rng(100 + t)
            return {k: wide_range_grad(rng, s) for k, s in shapes.items()}

        def run(params, opt, steps):
            for t in steps:
                backward_grads(params, grads(t))
                opt.step(1e-3 * t)

        rng = np.random.default_rng(18)
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        straight = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt = adamw(straight)
        run(straight, opt, range(1, 7))

        first = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt_first = adamw(first)
        run(first, opt_first, range(1, 4))
        saved = {k: v.copy() for k, v in opt_first.state_arrays().items()}
        resumed = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in first.items()}
        opt_resumed = adamw(resumed)
        opt_resumed.load_state(opt_first.step_count, saved)
        run(resumed, opt_resumed, range(4, 7))

        for name in shapes:
            np.testing.assert_array_equal(resumed[name].data, straight[name].data)
            np.testing.assert_array_equal(opt_resumed.m[name], opt.m[name])
            np.testing.assert_array_equal(opt_resumed.v[name], opt.v[name])

    def test_state_round_trip(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = adamw({"w": w})
        backward_grads({"w": w}, {"w": np.array([0.1, -0.2])})
        opt.step(0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}

        w2 = Tensor([1.0, 2.0], requires_grad=True)
        opt2 = adamw({"w": w2})
        opt2.load_state(opt.step_count, arrays)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])
        np.testing.assert_array_equal(opt2.v["w"], opt.v["w"])

    def test_load_state_of_another_shape_writes_nothing(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = adamw({"w": w})
        with pytest.raises(ShapeError, match="m.w"):
            opt.load_state(3, {"m.w": np.ones(3), "v.w": np.ones(2)})
        assert opt.step_count == 0
        np.testing.assert_array_equal(opt.v["w"], 0.0)

    def test_dropped_optimizer_is_freed_without_the_cyclic_gc(self):
        """A parameter's hook holds its optimizer weakly: dropping the
        optimizer frees it, and a later backward leaves the gradient in
        place."""
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = adamw({"w": w})
        alive = weakref.ref(opt)
        gc.disable()
        try:
            del opt
            assert alive() is None
        finally:
            gc.enable()
        ad.backward(ad.tensor_sum(ad.mul(w, w)))
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestFoldDuringBackward:
    """The moment half of the update runs as ``backward`` delivers each
    gradient; ``step`` writes the parameters."""

    def setup_params(self, dtype, seed=21):
        rng = np.random.default_rng(seed)
        return {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                for k, s in SPANNING_SHAPES.items()}

    def grads(self, rng, dtype):
        return {k: wide_range_grad(rng, s).astype(dtype) for k, s in SPANNING_SHAPES.items()}

    def test_folded_in_backward_equals_the_reference_in_either_arrival_order(self, dtype):
        forward, reverse = self.setup_params(dtype), self.setup_params(dtype)
        ref = {k: [p.data.copy(), np.zeros(p.shape, dtype), np.zeros(p.shape, dtype)]
               for k, p in forward.items()}
        opt_forward, opt_reverse = adamw(forward), adamw(reverse)
        assert any(len(members) > 1 for _, _, members in opt_forward._groups)
        rng = np.random.default_rng(22)
        for t in range(1, 4):
            lr = 1e-3 * t
            grads = self.grads(rng, dtype)
            tape = backward_grads(forward, grads)
            opt_forward.step(lr)
            tape.clear()
            backward_grads(reverse, dict(reversed(grads.items())))
            opt_reverse.step(lr)
            for name, g in grads.items():
                reference_adamw_step(*ref[name], g, lr, t, RunConfig())
            for name in SPANNING_SHAPES:
                ref_p, ref_m, ref_v = ref[name]
                for opt, params in ((opt_forward, forward), (opt_reverse, reverse)):
                    assert params[name].data.tobytes() == ref_p.tobytes()
                    assert opt.m[name].tobytes() == ref_m.tobytes()
                    assert opt.v[name].tobytes() == ref_v.tobytes()

    def test_backward_leaves_no_parameter_gradient(self, dtype):
        params = self.setup_params(dtype)
        opt = adamw(params)
        x = Tensor(np.ones(SPANNING_SHAPES["small"], dtype), requires_grad=True)
        grads = self.grads(np.random.default_rng(23), dtype)
        terms = [ad.tensor_sum(ad.mul(params[k], Tensor(g))) for k, g in grads.items()]
        loss = ad.tensor_sum(ad.mul(x, params["small"]))
        for term in terms:
            loss = ad.add(loss, term)
        ad.backward(loss)
        assert all(p.grad is None for p in params.values())
        assert x.grad is not None  # a leaf the optimizer does not own keeps its gradient
        assert all(opt._arrived)
        opt.step(1e-3)
        assert opt.step_count == 1

    def test_nan_met_in_backward_names_the_parameter_and_writes_no_parameter(self, dtype):
        params = self.setup_params(dtype)
        opt = adamw(params)
        before = {k: p.data.copy() for k, p in params.items()}
        grads = self.grads(np.random.default_rng(24), dtype)
        grads["small"][1, 2] = np.nan
        with pytest.raises(NumericError, match="'small'"):
            backward_grads(params, grads)
        assert opt.step_count == 0
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes()

    def test_second_backward_before_step_rejected(self, dtype):
        params = self.setup_params(dtype)
        opt = adamw(params)
        rng = np.random.default_rng(25)
        backward_grads(params, self.grads(rng, dtype))
        again = {"small": self.grads(rng, dtype)["small"]}
        with pytest.raises(ContractError, match="'small' got a second gradient before step"):
            backward_grads(params, again)
        opt.step(1e-3)
        backward_grads(params, self.grads(rng, dtype))  # a new step takes it

    def test_a_whole_parameter_is_dropped_on_arrival(self, dtype):
        """A parameter is never split across groups, so "big", a group of
        its own, is folded and its gradient dropped as soon as it arrives,
        before its flat neighbour "small" does."""
        params = self.setup_params(dtype)
        opt = adamw(params)
        arrived, big_dropped_when_small_arrived = [], []
        hooks = {k: p.grad_hook for k, p in params.items()}

        def watch(name):
            arrived.append(name)
            if name == "small":
                big_dropped_when_small_arrived.append(params["big"].grad is None)
            hooks[name]()

        for name, p in params.items():
            p.grad_hook = lambda name=name: watch(name)
        backward_grads(params, self.grads(np.random.default_rng(26), dtype))
        assert arrived == list(SPANNING_SHAPES)
        assert big_dropped_when_small_arrived == [True]
        opt.step(1e-3)

    def test_nan_in_a_shared_group_folds_none_of_it(self, dtype):
        """A NaN in "bias" is found before its group, which it shares with
        "small", is folded: neither member's moments move, while "big",
        which arrived first, has been folded.  "bias" completed the group
        whose fold failed, so it has not arrived and ``step`` refuses."""
        params = self.setup_params(dtype)
        opt = adamw(params)
        rng = np.random.default_rng(27)
        backward_grads(params, self.grads(rng, dtype))
        opt.step(1e-3)
        before = {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in params}
        grads = self.grads(rng, dtype)
        grads["bias"][3] = np.nan
        with pytest.raises(NumericError, match="'bias'"):
            backward_grads(params, grads)
        for name in ("small", "bias"):
            assert (opt.m[name].tobytes(), opt.v[name].tobytes()) == before[name]
        assert opt.m["big"].tobytes() != before["big"][0]
        written = {k: p.data.tobytes() for k, p in params.items()}
        with pytest.raises(ContractError, match="'bias' got no gradient from backward"):
            opt.step(1e-3)
        assert opt.step_count == 1
        assert {k: p.data.tobytes() for k, p in params.items()} == written
