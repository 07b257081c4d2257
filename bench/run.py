"""crossdoc benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload desk-pretrain --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --trace 1

Each repetition of a workload runs in a fresh child process, one at a time,
with its own temporary output directory under ``.bench_tmp/`` that is
deleted when the child ends.  Repetitions continue until ``--seconds`` have
passed and at least three have run; the metrics are medians over them.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {value, unit}}).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PROBE_SPANS, layer_metric_units, layer_metrics, variant_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"

END_TO_END = {
    "setup_s": "s", "run_s": "s", "step_ms": "ms", "step_ms_p90": "ms",
    "peak_rss_mb": "MB", "final_loss": "nats",
}
MIN_RUNS = 3  # set-up time is a median over at least this many processes
DEADLINE_S = 170.0  # one invocation ends within 180 s, whatever --seconds says
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = tmp
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_once(workload: str, seed: int, traced: bool, tiny: bool, timeout: float) -> dict:
    """One repetition in a child process; returns its result, with
    ``failures`` non-empty if it raised, timed out or failed a check."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    result_path = Path(tmp) / "result.json"
    spec = {"workload": workload, "seed": seed, "traced": traced, "tiny": tiny,
            "out_dir": str(Path(tmp) / "out"), "result": str(result_path)}
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(tmp), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if result_path.is_file():
            result = json.loads(result_path.read_text())
        else:
            result = {"failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    except subprocess.TimeoutExpired:
        result = {"failures": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if "first_clock" in result:
        # perf_counter is the system-wide monotonic clock, shared by both processes.
        result["setup_s"] = result["first_clock"] - spawned
    for failure in result["failures"]:
        print(f"[{workload} seed {seed}] FAILED: {failure}", file=sys.stderr)
    return result


def repeat(workload, seed, traced, tiny, seconds, min_runs, deadline) -> list[dict]:
    """Repetitions until ``seconds`` have passed and ``min_runs`` have run,
    never starting one that the deadline would cut."""
    results = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(results) >= min_runs and now - start >= seconds:
            break
        if results and now + (now - start) / len(results) > deadline:
            break
        results.append(run_once(workload, seed, traced, tiny, deadline - now))
    return results


def check_losses(results: list[dict]) -> None:
    """The final loss at one seed is bit-identical across repetitions; a
    repetition that disagrees with the first good one fails."""
    good = [r for r in results if not r["failures"]]
    for r in good[1:]:
        if r["final_loss"] != good[0]["final_loss"]:
            r["failures"].append(
                f"final loss {r['final_loss']!r} differs from {good[0]['final_loss']!r} at the same seed")


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Medians over the repetitions; the p90 pools every step.

    ``step_ms`` is each repetition's mean step, not the median of single
    steps: on a host whose speed drifts, the median of single steps jumps
    between the fast and the slow cluster while the mean moves smoothly.
    """
    good = [r for r in results if not r["failures"]]
    steps = [1e3 * s for r in good for s in r["step_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "run_s": statistics.median(r["run_s"] for r in good),
        "step_ms": statistics.median(1e3 * statistics.mean(r["step_s"]) for r in good),
        "step_ms_p90": statistics.quantiles(steps, n=10)[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "final_loss": good[0]["final_loss"],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Declared per-layer metrics, and the probing extras printed beside them."""
    good = [r for r in traced if not r["failures"]]
    values = layer_metrics([r["trace"] for r in good])
    values["checkpoint.mb"] = statistics.median(r["checkpoint_mb"] for r in good)
    values["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in good)
        - statistics.median(r["run_s"] for r in untraced if not r["failures"]))
    declared = {name: values.get(name, 0) for name in layer_metric_units()}
    extras = {name: values.get(name, 0.0)
              for name in list(PROBE_SPANS.values()) + ["model.embed_ms"]}
    return declared, extras


def print_env(result: dict) -> None:
    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
    env.update(result.get("versions", {}))
    print("env " + json.dumps(env))


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, 'ms')}")


def print_ablation(result: dict) -> None:
    print("  ablation accuracy (vision, text); `neither` is at chance by construction:")
    for name, (vision, text) in result["accuracy"].items():
        loss = result["variant_final_loss"][name]
        print(f"    {name:<12} {vision:.4f} {text:.4f}  final loss {loss:.6g}")


def run_workload(workload: str, args, deadline: float) -> dict:
    """Measure one workload; returns its summary (JSON-able)."""
    trace = bool(args.trace)
    budget = max(args.seconds, 0.0)
    if trace:
        untraced = repeat(workload, args.seed, False, args.tiny, budget / 2, 1, deadline)
        traced = repeat(workload, args.seed, True, args.tiny, budget / 2, 1, deadline)
    else:
        untraced = repeat(workload, args.seed, False, args.tiny, budget, MIN_RUNS, deadline)
        traced = []
    results = untraced + traced
    check_losses(results)
    failed = sum(1 for r in results if r["failures"])
    summary = {"workload": workload, "attempted": len(results), "failed": failed}
    good_untraced = [r for r in untraced if not r["failures"]]
    good_traced = [r for r in traced if not r["failures"]]
    if not good_untraced or (trace and not good_traced):
        return summary
    print_env(good_untraced[0])
    print(f"{workload}: seed {args.seed}, {len(results)} runs, {failed} failed, "
          f"failed_share {failed / len(results):.3g}")
    if trace:
        metrics, extras = per_layer(untraced, traced)
        units = layer_metric_units()
        print_metrics(metrics, units)
        print("  probing layers (desk-ablate only; not in the declared set):")
        print_metrics(extras, {})
        m = metrics
        parts = sum(m[k] for k in ("train.fwd_ms", "train.bwd_ms", "train.opt_ms",
                                   "train.reset_ms", "data.batch_ms"))
        print(f"  traced step {m['train.step_ms']:.4g} ms: fwd+bwd+opt+reset+batch {parts:.4g} ms, "
              f"tracer bookkeeping {m['trace.bookkeeping_ms']:.4g} ms, "
              f"unaccounted {m['train.unaccounted_ms']:.4g} ms; "
              f"tracing overhead {m['trace.overhead_s']:.4g} s per run")
        if WORKLOADS[workload]["call"] == "ablate":
            variants = list(good_traced[0]["accuracy"])
            for name, pre, probe in variant_times(good_traced[0]["trace"], variants):
                print(f"    {name:<12} pretrain {pre:.3f} s  probe {probe:.3f} s")
    else:
        metrics = end_to_end(results)
        units = END_TO_END
        print_metrics(metrics, units)
        steps = sum(len(r["step_s"]) for r in good_untraced)
        print(f"  {'failed_share':<40} {failed / len(results):>14.6g} ({failed} of {len(results)} runs)")
        print(f"  ({steps} steps in {len(good_untraced)} processes)")
    if WORKLOADS[workload]["call"] == "ablate":
        print_ablation(good_untraced[0])
    summary["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload (at least three runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separate traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "crossdoc" / "__init__.py").is_file():
        print(f"crossdoc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(name, args, time.perf_counter() + DEADLINE_S) for name in names]
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass
    if any("metrics" not in s for s in summaries):
        print("no successful run for: " + ", ".join(
            s["workload"] for s in summaries if "metrics" not in s), file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
