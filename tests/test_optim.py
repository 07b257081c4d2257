"""Optimizer and schedule tests."""

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.autodiff import Tensor
from crossdoc.errors import ConfigError, ContractError, NumericError, ShapeError
from crossdoc.optim import _CHUNK, AdamW, Schedule, lr_at

from oracles import reference_adamw_step


def wide_range_grad(rng, shape):
    """Gradients whose magnitudes span 1e-8 to 1e3, with exact zeros."""
    g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 3.0, size=shape)
    g.reshape(-1)[::7] = 0.0
    return g


class TestSchedule:
    def test_boundary_values(self):
        s = Schedule(total_steps=100, base_lr=2e-5, warmup_frac=0.1)
        assert lr_at(s, 0) == 0.0
        assert lr_at(s, 10) == pytest.approx(2e-5)
        assert lr_at(s, 100) == 0.0

    def test_linear_in_both_phases(self):
        s = Schedule(total_steps=200, base_lr=1.0, warmup_frac=0.1)
        assert lr_at(s, 10) == pytest.approx(0.5)
        assert lr_at(s, 110) == pytest.approx(0.5)

    def test_out_of_range_step(self):
        s = Schedule(total_steps=10, base_lr=1.0)
        with pytest.raises(ContractError):
            lr_at(s, 11)
        with pytest.raises(ContractError):
            lr_at(s, -1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Schedule(total_steps=0, base_lr=1.0)
        with pytest.raises(ConfigError):
            Schedule(total_steps=10, base_lr=1.0, warmup_frac=1.0)
        with pytest.raises(ConfigError):
            Schedule(total_steps=10, base_lr=0.0)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        w.grad = np.zeros(2)
        opt = AdamW({"w": w}, weight_decay=0.0)
        opt.step(0.1)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])

    def test_none_grad_params_are_skipped(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW({"w": w}, weight_decay=0.01)
        opt.step(0.1)
        np.testing.assert_array_equal(w.data, [1.0])

    def test_single_step_on_quadratic(self):
        """One step on f(w) = w^2/2 from w=1 at lr 0.1: bias correction makes
        the first update ~ lr * sign(grad), so w moves to ~0.9."""
        w = Tensor([1.0], requires_grad=True)
        loss = ad.scale(ad.tensor_sum(ad.mul(w, w)), 0.5)
        ad.backward(loss)
        opt = AdamW({"w": w}, weight_decay=0.0)
        opt.step(0.1)
        assert abs(w.data[0] - 0.9) < 1e-6

    def test_decay_only_shrinks_weights(self):
        """With zero gradients, decoupled decay gives w <- w * (1 - lr * d)."""
        w = Tensor([2.0, -4.0], requires_grad=True)
        w.grad = np.zeros(2)
        opt = AdamW({"w": w}, weight_decay=0.5)
        opt.step(0.1)
        np.testing.assert_allclose(w.data, [2.0 * 0.95, -4.0 * 0.95], atol=1e-15)

    def test_non_finite_grad_names_parameter(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([np.nan])
        opt = AdamW({"encoder.table": w})
        with pytest.raises(NumericError, match="encoder.table"):
            opt.step(0.1)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            w = Tensor(rng.normal(size=4), requires_grad=True)
            opt = AdamW({"w": w})
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
        schedule = Schedule(total_steps=200, base_lr=0.05, warmup_frac=0.1)
        opt = AdamW({"w": w}, weight_decay=0.0)
        losses = []
        for step in range(schedule.total_steps):
            diff = ad.sub(w, Tensor(target))
            loss = ad.tensor_sum(ad.mul(diff, diff))
            losses.append(loss.item())
            tape = ad.backward(loss)
            opt.step(lr_at(schedule, step))
            tape.clear()
        after_warmup = losses[schedule.warmup_steps:]
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
        opt = AdamW(params, weight_decay=weight_decay)
        for t in range(1, 21):
            lr = 1e-3 * t
            for name, p in params.items():
                p.grad = wide_range_grad(rng, p.shape)
                reference_adamw_step(*ref[name], p.grad, lr, t, weight_decay=weight_decay)
            opt.step(lr)
        for name, p in params.items():
            ref_p, ref_m, ref_v = ref[name]
            np.testing.assert_array_equal(p.data, ref_p)
            np.testing.assert_array_equal(opt.m[name], ref_m)
            np.testing.assert_array_equal(opt.v[name], ref_v)

    def test_non_finite_in_last_chunk_leaves_state_unchanged(self):
        name = "stack.block1.ff.weight"
        rng = np.random.default_rng(15)
        w = Tensor(rng.normal(size=(5, _CHUNK // 2)), requires_grad=True)
        opt = AdamW({name: w})
        w.grad = wide_range_grad(rng, w.shape)
        opt.step(1e-3)
        before = [w.data.copy(), opt.m[name].copy(), opt.v[name].copy()]
        w.grad = wide_range_grad(rng, w.shape)
        w.grad.reshape(-1)[-1] = np.nan
        with pytest.raises(NumericError, match=name):
            opt.step(1e-3)
        for after, expected in zip([w.data, opt.m[name], opt.v[name]], before):
            np.testing.assert_array_equal(after, expected)

    def test_non_contiguous_parameter_is_packed(self):
        """A transposed parameter is copied into the flat buffer; its update
        matches the oracle."""
        x = np.arange(12.0).reshape(3, 4).T
        w = Tensor(x, requires_grad=True)
        opt = AdamW({"w": w})
        assert w.data.flags.c_contiguous
        np.testing.assert_array_equal(w.data, x)
        ref = [x.copy(), np.zeros(x.shape), np.zeros(x.shape)]
        w.grad = np.ones(x.shape)
        reference_adamw_step(*ref, w.grad, 1e-3, 1)
        opt.step(1e-3)
        np.testing.assert_array_equal(w.data, ref[0])

    def test_rebound_parameter_data_rejected(self):
        """Data swapped for another array after construction is not the
        optimizer's view; the step raises instead of updating the wrong array."""
        w = Tensor(np.zeros((4, _CHUNK)), requires_grad=True)
        opt = AdamW({"w": w})
        w.data = np.ones((4, _CHUNK))
        w.grad = np.ones(w.shape)
        with pytest.raises(ContractError, match="'w'"):
            opt.step(1e-3)
        np.testing.assert_array_equal(w.data, 1.0)
        np.testing.assert_array_equal(opt.m["w"], 0.0)

    def test_none_grad_parameter_between_others_untouched(self):
        """A parameter without a gradient splits the run of updated ones: it
        and its moments stay as they are, its neighbours match the oracle."""
        rng = np.random.default_rng(16)
        shapes = {"a": (3, 5), "skipped": (4, 4), "big": (3, _CHUNK // 2), "c": (7,)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        start = {k: p.data.copy() for k, p in params.items()}
        ref = {k: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for k, p in params.items()}
        opt = AdamW(params)
        for t in range(1, 6):
            for name, p in params.items():
                if name == "skipped":
                    continue
                p.grad = wide_range_grad(rng, p.shape)
                reference_adamw_step(*ref[name], p.grad, 1e-3, t)
            opt.step(1e-3)
        np.testing.assert_array_equal(params["skipped"].data, start["skipped"])
        np.testing.assert_array_equal(opt.m["skipped"], 0.0)
        np.testing.assert_array_equal(opt.v["skipped"], 0.0)
        for name in ("a", "big", "c"):
            for got, expected in zip([params[name].data, opt.m[name], opt.v[name]], ref[name]):
                np.testing.assert_array_equal(got, expected)

    def test_non_finite_in_small_parameter_sharing_a_window(self):
        """Small parameters share one update window; a NaN in the middle one
        is reported under its name and nothing at all is written."""
        rng = np.random.default_rng(17)
        params = {f"p{i}": Tensor(rng.normal(size=(3, 4)), requires_grad=True) for i in range(3)}
        opt = AdamW(params)
        for p in params.values():
            p.grad = wide_range_grad(rng, p.shape)
        opt.step(1e-3)
        before = {k: [p.data.copy(), opt.m[k].copy(), opt.v[k].copy()] for k, p in params.items()}
        for p in params.values():
            p.grad = wide_range_grad(rng, p.shape)
        params["p1"].grad[1, 2] = np.nan
        with pytest.raises(NumericError, match="'p1'"):
            opt.step(1e-3)
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
                for name, g in grads(t).items():
                    params[name].grad = g
                opt.step(1e-3 * t)

        rng = np.random.default_rng(18)
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        straight = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt = AdamW(straight)
        run(straight, opt, range(1, 7))

        first = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt_first = AdamW(first)
        run(first, opt_first, range(1, 4))
        saved = {k: v.copy() for k, v in opt_first.state_arrays().items()}
        resumed = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in first.items()}
        opt_resumed = AdamW(resumed)
        opt_resumed.load_state(opt_first.step_count, saved)
        run(resumed, opt_resumed, range(4, 7))

        for name in shapes:
            np.testing.assert_array_equal(resumed[name].data, straight[name].data)
            np.testing.assert_array_equal(opt_resumed.m[name], opt.m[name])
            np.testing.assert_array_equal(opt_resumed.v[name], opt.v[name])

    def test_state_round_trip(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = AdamW({"w": w})
        w.grad = np.array([0.1, -0.2])
        opt.step(0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}

        w2 = Tensor([1.0, 2.0], requires_grad=True)
        opt2 = AdamW({"w": w2})
        opt2.load_state(opt.step_count, arrays)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])
        np.testing.assert_array_equal(opt2.v["w"], opt.v["w"])

    def test_load_state_of_another_shape_writes_nothing(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        opt = AdamW({"w": w})
        with pytest.raises(ShapeError, match="m.w"):
            opt.load_state(3, {"m.w": np.ones(3), "v.w": np.ones(2)})
        assert opt.step_count == 0
        np.testing.assert_array_equal(opt.v["w"], 0.0)

    def test_hyperparameter_validation(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            AdamW({"w": w}, betas=(1.0, 0.999))
        with pytest.raises(ConfigError):
            AdamW({"w": w}, eps=0.0)
        with pytest.raises(ConfigError):
            AdamW({"w": w}, weight_decay=-1.0)
