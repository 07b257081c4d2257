"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

The tracer wraps public functions of ``crossdoc`` at the module attribute
their callers look up (``crossdoc.cross_modal.multi_head_attention``,
``crossdoc.train.save_checkpoint``, ...).  Each call becomes a span -- name,
start, end, parent and training step -- kept in memory and written out when
the run ends.  Each autodiff node's adjoint is timed by shimming its
``_backward`` inside the wrapper around ``backward``; the time goes to the
node's op and to the span that created the node.  Nothing under ``src/`` is
changed: the wrappers exist only in a traced child process.
"""

from __future__ import annotations

import gc
import statistics
import time
import weakref
from collections import Counter, defaultdict

pc = time.perf_counter

# autodiff functions that create exactly one node; mean_last is composite and
# is covered by the tensor_sum and scale calls it makes.
OP_FUNCTIONS = (
    "add", "sub", "mul", "div", "neg", "scale", "exp", "log", "sqrt", "gelu",
    "matmul", "transpose_last2", "reshape", "broadcast_to", "narrow", "concat",
    "gather_rows", "tensor_sum", "softmax_last", "logsumexp_last",
)

# Node op labels a training step uses, as ``Tensor.op`` spells them.
STEP_OPS = (
    "add", "sub", "mul", "div", "neg", "scale", "sqrt", "gelu", "matmul",
    "transpose_last2", "reshape", "broadcast_to", "narrow", "concat",
    "gather_rows", "sum", "softmax_last", "logsumexp_last",
)

DEPTH = 2  # every workload runs the default two-block stack
STAGES = tuple(
    f"cross_modal.block{b}.{stage}"
    for b in range(DEPTH) for stage in ("cross", "gate_vision", "gate_text")
)
NN_SPANS = ("nn.attention", "nn.layer_norm", "nn.feed_forward", "nn.head")
# Spans whose forward time is reported inclusive of their children, with the
# backward time of every node created inside them.
MODULE_SPANS = ("encoders.vision", "encoders.text") + STAGES + ("losses",)
BATCH_SPANS = ("data.make_batch", "data.collate")
STEP_SPANS = {"train.fwd": "train.fwd_ms", "train.bwd": "train.bwd_ms",
              "train.opt": "train.opt_ms", "train.reset": "train.reset_ms",
              "trace.bookkeeping": "trace.bookkeeping_ms"}
# Per-run totals, summed over every call in the run.
TOTAL_SPANS = {"data.corpus": "data.corpus_ms", "model.create": "model.create_ms",
               "checkpoint.save": "checkpoint.save_ms"}
# Probing layers: only the ablation calls them, so they are printed but are
# not part of the per-layer metric set every workload reports.
PROBE_SPANS = {"train.embed_records": "train.embed_records_ms",
               "train.probe_fit": "train.probe_fit_ms",
               "checkpoint.load": "checkpoint.load_ms"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"train.step_ms": "ms"}
    units.update({metric: "ms" for metric in STEP_SPANS.values()})
    units["train.unaccounted_ms"] = "ms"
    units["data.batch_ms"] = "ms"
    units.update({metric: "ms" for metric in TOTAL_SPANS.values()})
    units["checkpoint.mb"] = "MB"
    for name in MODULE_SPANS + NN_SPANS:
        units[f"{name}.fwd_ms"] = "ms"
        units[f"{name}.bwd_ms"] = "ms"
    units.update({
        "autodiff.nodes_per_step": "count",
        "autodiff.backward_overhead_ms": "ms",
        "autodiff.graph_mb": "MB",
        "autodiff.grad_mb": "MB",
        "autodiff.retained_graphs_max": "count",
    })
    for op in STEP_OPS:
        units[f"autodiff.op.{op}.count"] = "count"
        units[f"autodiff.op.{op}.fwd_ms"] = "ms"
        units[f"autodiff.op.{op}.bwd_ms"] = "ms"
    units["runtime.gc_pause_ms"] = "ms"
    units["runtime.gc_collections"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans, per-op times and per-step graph sizes in memory.

    ``steps_per_call`` is the number of training steps in each pretrain call;
    the tracer's ``clock`` (passed to ``pretrain``/``ablate``) uses it to
    know which training step is running.
    """

    def __init__(self, steps_per_call: int):
        self.steps_per_call = steps_per_call
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_steps: list[int] = []
        self.bwd: list[float] = []  # adjoint time of nodes the span created itself
        self.stack: list[int] = []
        self.step = -1  # training step now running, -1 outside steps
        self.step_times: list[float] = []
        self._clock_calls = 0
        self._last_clock = 0.0
        self.op_fwd: dict[tuple[int, str], float] = {}
        self.op_bwd: dict[tuple[int, str], float] = {}
        self.graphs: list[dict] = []
        self.stage_names: dict[int, str] = {}
        self._node_span: dict[int, int] = {}
        self._losses: list[weakref.ref] = []
        self._adjoint_s = 0.0
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    # -- clock and spans ------------------------------------------------------
    def clock(self) -> float:
        """``pretrain``'s clock: called once before the first step and once
        after each step."""
        t = pc()
        if self.step >= 0:
            self.step_times.append(t - self._last_clock)
        if self._clock_calls < self.steps_per_call:
            self.step = len(self.step_times)
            self._clock_calls += 1
        else:
            self.step = -1
            self._clock_calls = 0
        self._last_clock = t
        return t

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.span_steps.append(self.step)
        self.bwd.append(0.0)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(pc())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = pc()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def _wrap_stage(self, fn):
        # One function serves every block and modality; the params object
        # passed in says which stage is running.
        def traced(params, *args, **kwargs):
            i = self._open(self.stage_names[id(params)])
            try:
                return fn(params, *args, **kwargs)
            finally:
                self._close(i)
        return traced

    def _wrap_create(self, create):
        def traced(cls, *args, **kwargs):
            i = self._open("model.create")
            try:
                model = create(cls, *args, **kwargs)
            finally:
                self._close(i)
            for b, block in enumerate(model.stack.blocks):
                for stage in ("cross", "gate_vision", "gate_text"):
                    self.stage_names[id(getattr(block, stage))] = f"cross_modal.block{b}.{stage}"
            return model
        return classmethod(traced)

    def _wrap_op(self, fn):
        def traced(*args, **kwargs):
            t = pc()
            out = fn(*args, **kwargs)
            dt = pc() - t
            key = (self.step, out.op)
            self.op_fwd[key] = self.op_fwd.get(key, 0.0) + dt
            self._node_span[id(out)] = self.stack[-1] if self.stack else -1
            return out
        return traced

    def _timed_adjoint(self, adjoint, span: int, key: tuple[int, str]):
        def timed():
            t = pc()
            adjoint()
            dt = pc() - t
            self._adjoint_s += dt
            if span >= 0:
                self.bwd[span] += dt
            self.op_bwd[key] = self.op_bwd.get(key, 0.0) + dt
        return timed

    def _wrap_backward(self, backward, topo_order):
        def traced(loss):
            step = self.step
            if step < 0:  # probe fitting: one span, no per-node detail
                self._node_span.clear()
                i = self._open("train.bwd")
                try:
                    return backward(loss)
                finally:
                    self._close(i)
            # The tracer's own work around the real backward is a span of its
            # own, so that the step's spans account for the whole step.
            pre = self._open("trace.bookkeeping")
            # A second topological walk finds the nodes whose adjoints get timed.
            order = topo_order(loss)
            inner = [node for node in order if node.op != "leaf"]
            for node in inner:
                span = self._node_span.get(id(node), -1)
                node._backward = self._timed_adjoint(node._backward, span, (step, node.op))
            self._node_span.clear()
            self._losses = [ref for ref in self._losses if ref() is not None]
            retained = len(self._losses)
            self._losses.append(weakref.ref(loss.data))
            self._adjoint_s = 0.0
            self._close(pre)
            i = self._open("train.bwd")
            try:
                tape = backward(loss)
            finally:
                self._close(i)
            post = self._open("trace.bookkeeping")
            self.graphs.append({
                "step": step,
                "nodes": len(order),
                "ops": dict(Counter(node.op for node in inner)),
                "graph_bytes": sum(node.data.nbytes for node in inner),
                "grad_bytes": sum(node.grad.nbytes for node in inner if node.grad is not None),
                "overhead_s": self.ends[i] - self.starts[i] - self._adjoint_s,
                "retained": retained,
            })
            self._close(post)
            return tape
        return traced

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = pc()
        else:
            self.gc_pauses.append(pc() - self._gc_start)

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function; call once, before the workload runs."""
        from crossdoc import autodiff, cross_modal, model, optim, train

        for attr, name in (
            ("pretrain", "train.pretrain"), ("probe", "train.probe"),
            ("load_corpus", "data.corpus"), ("make_batch", "data.make_batch"),
            ("collate", "data.collate"), ("batch_loss", "train.fwd"),
            ("cross_modal_contrastive_loss", "losses"),
            ("save_checkpoint", "checkpoint.save"), ("load_checkpoint", "checkpoint.load"),
            ("embed_records", "train.embed_records"), ("_fit_linear_probe", "train.probe_fit"),
        ):
            setattr(train, attr, self._wrap(getattr(train, attr), name))
        train.backward = self._wrap_backward(train.backward, autodiff._topo_order)
        optim.AdamW.step = self._wrap(optim.AdamW.step, "train.opt")
        autodiff.GradTape.clear = self._wrap(autodiff.GradTape.clear, "train.reset")
        cls = model.CrossModalModel
        cls.create = self._wrap_create(cls.__dict__["create"].__func__)
        cls.embed = self._wrap(cls.embed, "model.embed")
        model.patch_embed = self._wrap(model.patch_embed, "encoders.vision")
        model.token_embed = self._wrap(model.token_embed, "encoders.text")
        for attr, name in (
            ("multi_head_attention", "nn.attention"), ("layer_norm", "nn.layer_norm"),
            ("feed_forward", "nn.feed_forward"), ("project_and_normalize", "nn.head"),
        ):
            setattr(cross_modal, attr, self._wrap(getattr(cross_modal, attr), name))
        for attr in ("cross_attention_block", "gated_self_attention"):
            setattr(cross_modal, attr, self._wrap_stage(getattr(cross_modal, attr)))
        for attr in OP_FUNCTIONS:
            setattr(autodiff, attr, self._wrap_op(getattr(autodiff, attr)))
        gc.callbacks.append(self._on_gc)

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": {
                "name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents, "step": self.span_steps, "bwd": self.bwd,
            },
            "step_times": self.step_times,
            "op_fwd": [[s, op, t] for (s, op), t in self.op_fwd.items()],
            "op_bwd": [[s, op, t] for (s, op), t in self.op_bwd.items()],
            "graphs": self.graphs,
            "gc_pauses": self.gc_pauses,
        }


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def _per_step(dump: dict) -> list[dict[str, float]]:
    """One {metric: value} dict per training step, in milliseconds/MB/counts.

    A metric is present in a step only if the step ran that layer, so
    ablation variants that skip a stage do not pull its median to zero.
    """
    sp = dump["spans"]
    names, parents, steps = sp["name"], sp["parent"], sp["step"]
    dur = [e - s for s, e in zip(sp["start"], sp["end"])]
    children = [0.0] * len(names)
    bwd_incl = list(sp["bwd"])
    for i in range(len(names) - 1, -1, -1):  # a child's index exceeds its parent's
        p = parents[i]
        if p >= 0:
            children[p] += dur[i]
            bwd_incl[p] += bwd_incl[i]

    rows = [defaultdict(float) for _ in dump["step_times"]]
    top = [0.0] * len(rows)
    for i, name in enumerate(names):
        s = steps[i]
        if s < 0:
            continue
        row = rows[s]
        p = parents[i]
        if p < 0 or steps[p] != s:
            top[s] += dur[i]
        if name in STEP_SPANS:
            row[STEP_SPANS[name]] += 1e3 * dur[i]
        elif name in BATCH_SPANS:
            row["data.batch_ms"] += 1e3 * dur[i]
        elif name in MODULE_SPANS:
            row[f"{name}.fwd_ms"] += 1e3 * dur[i]
            row[f"{name}.bwd_ms"] += 1e3 * bwd_incl[i]
        elif name in NN_SPANS:
            row[f"{name}.fwd_ms"] += 1e3 * (dur[i] - children[i])
            row[f"{name}.bwd_ms"] += 1e3 * sp["bwd"][i]
    for s, step_s in enumerate(dump["step_times"]):
        rows[s]["train.step_ms"] = 1e3 * step_s
        rows[s]["train.unaccounted_ms"] = 1e3 * (step_s - top[s])
    for key, table in (("fwd_ms", dump["op_fwd"]), ("bwd_ms", dump["op_bwd"])):
        for s, op, t in table:
            if s >= 0:
                rows[s][f"autodiff.op.{op}.{key}"] += 1e3 * t
    for graph in dump["graphs"]:
        row = rows[graph["step"]]
        row["autodiff.nodes_per_step"] = graph["nodes"]
        row["autodiff.graph_mb"] = graph["graph_bytes"] / 1e6
        row["autodiff.grad_mb"] = graph["grad_bytes"] / 1e6
        row["autodiff.backward_overhead_ms"] = 1e3 * graph["overhead_s"]
        for op in STEP_OPS:
            row[f"autodiff.op.{op}.count"] = graph["ops"].get(op, 0)
    return rows


def _per_run(dump: dict) -> dict[str, float]:
    sp = dump["spans"]
    totals = defaultdict(float)
    per_run = {**TOTAL_SPANS, **PROBE_SPANS}
    for name, start, end, step in zip(sp["name"], sp["start"], sp["end"], sp["step"]):
        if name in per_run:
            totals[per_run[name]] += 1e3 * (end - start)
        elif name == "model.embed" and step < 0:
            totals["model.embed_ms"] += 1e3 * (end - start)
    totals["runtime.gc_pause_ms"] = 1e3 * sum(dump["gc_pauses"])
    totals["runtime.gc_collections"] = len(dump["gc_pauses"])
    totals["autodiff.retained_graphs_max"] = max(
        (g["retained"] for g in dump["graphs"]), default=0)
    return totals


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-step metrics as medians over every traced step, per-run totals as
    medians over the traced runs."""
    steps = [row for dump in dumps for row in _per_step(dump)]
    runs = [_per_run(dump) for dump in dumps]
    out = {}
    for key in {k for row in steps for k in row}:
        out[key] = statistics.median(row[key] for row in steps if key in row)
    for key in {k for run in runs for k in run}:
        out[key] = statistics.median(run.get(key, 0.0) for run in runs)
    return out


def variant_times(dump: dict, variants: list[str]) -> list[tuple[str, float, float]]:
    """(variant, pretrain s, probe s) for each ablation variant, in run order."""
    sp = dump["spans"]
    spans = {"train.pretrain": [], "train.probe": []}
    for name, start, end in zip(sp["name"], sp["start"], sp["end"]):
        if name in spans:
            spans[name].append(end - start)
    return list(zip(variants, spans["train.pretrain"], spans["train.probe"]))
