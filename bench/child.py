"""One repetition of one workload, in a fresh process.

Usage: python3 bench/child.py '<json spec>'

The spec names the workload, seed, traced flag, output directory and result
file.  The child runs the workload's public call once, measures it, checks
its outputs and writes a JSON result.  Measurements are taken before the
checks, so the checks' own time and memory never show in them.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from crossdoc import checkpoint, train
from crossdoc.config import parse_config

import workloads


def _versions() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _losses(metrics_path: Path) -> list[float]:
    with metrics_path.open() as f:
        return [json.loads(line)["total"] for line in f]


def _check_pretrain(cfg, result, opt, failures: list[str]) -> float:
    """Loss log, final loss and the final checkpoint against the trained state."""
    losses = _losses(result.metrics_path)
    if len(losses) != cfg.steps:
        failures.append(f"metrics log has {len(losses)} steps, expected {cfg.steps}")
    if not all(math.isfinite(x) for x in losses) or not math.isfinite(result.final_loss):
        failures.append("non-finite loss")
    elif losses[-1] != result.final_loss:
        failures.append("metrics log disagrees with the returned final loss")
    ckpt = checkpoint.load_checkpoint(result.checkpoint_path)
    if ckpt.step != cfg.steps or ckpt.optimizer_step != cfg.steps:
        failures.append(f"checkpoint step {ckpt.step}/{ckpt.optimizer_step}, expected {cfg.steps}")
    if parse_config(ckpt.config_text) != cfg:
        failures.append("checkpoint config echo differs from the run config")
    if set(ckpt.params) != set(opt.params):
        failures.append("checkpoint parameter names differ from the model's")
    elif not all(np.array_equal(ckpt.params[n], p.data) for n, p in opt.params.items()):
        failures.append("checkpoint parameters differ from the trained ones")
    state = opt.state_arrays()
    if set(ckpt.optimizer_arrays or {}) != set(state) or not all(
            np.array_equal(ckpt.optimizer_arrays[n], a) for n, a in state.items()):
        failures.append("checkpoint optimizer moments differ from the trained ones")
    return result.final_loss


def _check_ablate(cfg, table, out: Path, failures: list[str], extra: dict) -> float:
    """Ablation table rows and every variant's checkpoint and loss log."""
    variants = [v[0] for v in train.ABLATION_VARIANTS]
    rows = table["rows"]
    if [r["variant"] for r in rows] != variants:
        failures.append(f"ablation rows {[r['variant'] for r in rows]} != {variants}")
    on_disk = json.loads((out / "ablation.json").read_text())
    if on_disk != table:
        failures.append("ablation.json differs from the returned table")
    seed = cfg.ablate_seeds[0]
    accuracy = {}
    final = {}
    for row, (name, use_cross, use_gate, loss_mode) in zip(rows, train.ABLATION_VARIANTS):
        accs = [row["vision_mean"], row["text_mean"]]
        accs += [run[m] for run in row["runs"] for m in ("vision", "text")]
        if [run["seed"] for run in row["runs"]] != [seed]:
            failures.append(f"{name}: runs {row['runs']} do not match seed {seed}")
        if not all(0.0 <= a <= 1.0 for a in accs):
            failures.append(f"{name}: accuracy outside [0, 1]: {accs}")
        accuracy[name] = [row["vision_mean"], row["text_mean"]]
        run_dir = out / f"{name}_seed{seed}"
        ckpt = checkpoint.load_checkpoint(run_dir / train.CHECKPOINT_NAME)
        echo = parse_config(ckpt.config_text)
        if ckpt.step != cfg.ablate_steps or (echo.use_cross, echo.use_gate, echo.loss_mode) != (
                use_cross, use_gate, loss_mode):
            failures.append(f"{name}: checkpoint step or config echo does not match the variant")
        losses = _losses(run_dir / train.METRICS_NAME)
        if len(losses) != cfg.ablate_steps or not all(math.isfinite(x) for x in losses):
            failures.append(f"{name}: loss log has missing or non-finite steps")
        final[name] = losses[-1] if losses else math.nan
    # Recorded as measured; `neither` sits at chance by construction.
    extra["accuracy"] = accuracy
    extra["variant_final_loss"] = final
    return sum(final.values()) / len(final)


def main(spec: dict) -> dict:
    workload, seed, traced = spec["workload"], spec["seed"], spec["traced"]
    out = Path(spec["out_dir"])
    cfg = workloads.build_config(workload, seed, spec["tiny"])
    call = workloads.WORKLOADS[workload]["call"]

    tracer = None
    clock_times: list[float] = []
    if traced:
        from tracer import Tracer

        tracer = Tracer(workloads.steps_per_call(cfg, workload))
        tracer.install()
        clock = tracer.clock
    else:
        def clock() -> float:
            t = time.perf_counter()
            clock_times.append(t)
            return t

    optimizers = []
    if call == "pretrain":
        # Keeps a handle on the trained parameters for the checkpoint check.
        make_optimizer = train.AdamW

        def capture(*args, **kwargs):
            opt = make_optimizer(*args, **kwargs)
            optimizers.append(opt)
            return opt

        train.AdamW = capture

    t0 = time.perf_counter()
    if call == "pretrain":
        output = train.pretrain(cfg, out, clock=clock)
    else:
        output = train.ablate(cfg, out, clock=clock)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "versions": _versions()}
    if tracer is not None:
        result["trace"] = tracer.dump()
        step_times = tracer.step_times
    else:
        result["first_clock"] = clock_times[0]
        # Each pretrain call reads the clock once before its first step and
        # once after every step.
        per_call = workloads.steps_per_call(cfg, workload) + 1
        step_times = []
        for i in range(0, len(clock_times), per_call):
            call_times = clock_times[i:i + per_call]
            step_times += [b - a for a, b in zip(call_times, call_times[1:])]
    result["step_s"] = step_times

    # Measurements are done; free the last steps' unreachable graphs so the
    # checks below do not add their memory on top of them.
    gc.collect()
    failures: list[str] = []
    if call == "pretrain":
        result["final_loss"] = _check_pretrain(cfg, output, optimizers[0], failures)
        ckpt_path = output.checkpoint_path
    else:
        result["final_loss"] = _check_ablate(cfg, output, out, failures, result)
        ckpt_path = out / f"full_seed{seed}" / train.CHECKPOINT_NAME
    result["checkpoint_mb"] = ckpt_path.stat().st_size / 1e6
    result["failures"] = failures
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        res = main(spec)
        code = 0
    except Exception:  # reported to the parent, which counts the run as failed
        res = {"failures": [traceback.format_exc()]}
        code = 1
    Path(spec["result"]).write_text(json.dumps(res))
    sys.exit(code)
