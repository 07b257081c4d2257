"""Training harness: contrastive pretraining, frozen linear probing, the
ablation grid, and the gradient audit.

Pretraining optimizes the contrastive objective only; the cross-entropy
branch appears exclusively in the probing stage, which trains one linear
classifier per modality on frozen embeddings.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, finite_diff_check
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, format_config
from .cross_modal import (
    CrossAttentionBlockParams,
    GatedSelfAttentionParams,
    cross_attention_block,
    gated_self_attention,
)
from .data import (
    CorpusSplits,
    SyntheticCorpusSpec,
    collate,
    generate_corpus,
    make_batch,
    read_corpus,
)
from .encoders import DocumentLayout, token_embed
from .errors import DataError, NumericError
from .losses import (
    EmbeddingBatch,
    contrastive_term,
    cross_entropy,
    cross_modal_contrastive_loss,
    positive_weights,
)
from .model import CrossModalModel
from .nn import FeedForwardParams, LayerNormParams, LinearParams, MHAParams, l2_normalize, layer_norm, linear, multi_head_attention, project_and_normalize
from .optim import AdamW, lr_at

CHECKPOINT_NAME = "checkpoint.bin"
METRICS_NAME = "metrics.jsonl"
EMBED_CHUNK = 64  # records per no-grad forward pass when probing
GRADCHECK_TOLERANCE = 1e-4  # max relative error a block's adjoint may show

# (name, use_cross, use_gate, loss_mode): the four architecture variants plus
# the supervised-contrastive baseline on the full architecture.
ABLATION_VARIANTS = (
    ("neither", False, False, "cross"),
    ("gate_only", False, True, "cross"),
    ("cross_only", True, False, "cross"),
    ("full", True, True, "cross"),
    ("full_scl", True, True, "scl"),
)


@dataclass
class PretrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps: int
    final_loss: float


def load_corpus(cfg: RunConfig, layout: DocumentLayout) -> tuple[SyntheticCorpusSpec, CorpusSplits]:
    """Read the configured corpus container, or generate one inline; its
    documents must have the model's ``layout``."""
    if cfg.corpus_path:
        spec, splits = read_corpus(cfg.corpus_path)
        if spec.classes != cfg.classes:
            raise DataError(
                f"corpus file has {spec.classes} classes but config says {cfg.classes}"
            )
    else:
        spec = cfg.corpus_spec()
        splits = generate_corpus(spec)
    if spec.layout != layout:
        raise DataError(f"corpus has {spec.layout} but the model expects {layout}")
    return spec, splits


def batch_loss(model: CrossModalModel, records: np.ndarray, cfg: RunConfig) -> dict[str, Tensor]:
    """Embed a batch and evaluate the configured objective on it: the
    ``cross_modal_contrastive_loss`` record of ``total`` and its terms."""
    images, ids, labels = collate(records)
    v_emb, t_emb = model.embed(images, ids)
    inter_weight = cfg.inter_weight if cfg.loss_mode == "cross" else 0.0
    batch = EmbeddingBatch(
        vision=v_emb, text=t_emb, labels=labels,
        temperature=cfg.temperature, inter_weight=inter_weight,
    )
    return cross_modal_contrastive_loss(batch)


def _keep_freed_heap() -> None:
    """Let the memory a step frees stay with the process for the next step.

    glibc hands the top of its heap back to the OS whenever more than its
    trim threshold (128 KB at start) lies free there, so a desk step frees
    its graph and faults 1600 to 2500 pages back in on the next step.
    Freeing one block large enough to be mmapped raises glibc's mmap
    threshold to the block's size (16 MB) and its trim threshold to twice
    that (mallopt(3), M_MMAP_THRESHOLD), as any run that frees a large array
    does by itself.  ``np.empty`` touches no page of the block, so this
    costs no memory.

    With it, a steady-state step faults no page at desk and about 5 at paper
    width (``ru_minflt`` per phase, 2-core x86, at batch 8 and 64).  At
    paper width that rests on ``AdamW`` dropping each gradient during
    ``backward``, where later arrays reuse its memory: freeing all 130 MB of
    gradients at once, more than the trim threshold, would let glibc trim
    them, and the next step would fault about 61K pages back in at batch 8.
    """
    np.empty(16 << 20, np.uint8)


def pretrain(
    cfg: RunConfig,
    out_dir,
    clock: Optional[Callable[[], float]] = None,
    splits: Optional[CorpusSplits] = None,
) -> PretrainResult:
    """Optimize the contrastive objective; writes a metrics log and a
    checkpoint before the first step, every ``checkpoint_every`` steps and
    after the last step, saving a step that is both once.  The corpus
    (``splits`` if given, else ``load_corpus``), the model and the optimizer
    are built before the output directory is created, so a run they reject
    writes nothing.

    A numeric failure in a step -- a non-finite loss, or a NaN or inf met
    by the forward, the backward or the optimizer -- aborts the run naming
    the step, and leaves the last cadence checkpoint in place.  No parameter
    of the failed step has been written, but ``AdamW`` folds each group of
    gradients into its moments during ``backward``, so the moments of the
    groups folded before the failure have advanced in memory; the checkpoint
    on disk has not.  Each save
    writes a temporary file and renames it over the checkpoint, so a crash
    mid-write also leaves the previous checkpoint whole.  ``clock``
    exists so tests can pin wall times; the default is the real monotonic
    clock.
    """
    clock = time.perf_counter if clock is None else clock
    if splits is None:
        _, splits = load_corpus(cfg, cfg.layout())
    model = CrossModalModel.create(cfg)
    params = model.parameters()
    opt = AdamW(params, (cfg.beta1, cfg.beta2), cfg.adam_eps, cfg.weight_decay)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / CHECKPOINT_NAME
    metrics_path = out / METRICS_NAME
    config_text = format_config(cfg)
    save_checkpoint(ckpt_path, 0, config_text, params, opt)

    _keep_freed_heap()
    schedule = cfg.schedule()
    batch_rng = np.random.default_rng(cfg.seed + 1_000_003)
    start = clock()
    final_loss = math.nan
    with metrics_path.open("w") as metrics_file:
        for step in range(cfg.steps):
            records = make_batch(splits.train, cfg.batch_size, batch_rng)
            try:
                terms = batch_loss(model, records, cfg)
                final_loss = terms["total"].item()
                if not math.isfinite(final_loss):
                    raise NumericError("non-finite loss")
                lr = lr_at(schedule, step)
                backward(terms["total"])
                opt.step(lr)
            except NumericError as e:
                raise NumericError(
                    f"step {step}: {e}; last checkpoint retained at {ckpt_path}") from e
            if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.steps:
                record = {"step": step + 1, "lr": lr,
                          **{name: term.item() for name, term in terms.items()}}
                record["total_per_anchor"] = record["total"] / cfg.batch_size
                record["wall_time"] = clock() - start
                metrics_file.write(json.dumps(record) + "\n")
            if (step + 1) % cfg.checkpoint_every == 0 or step + 1 == cfg.steps:
                save_checkpoint(ckpt_path, step + 1, config_text, params, opt)
    return PretrainResult(ckpt_path, metrics_path, cfg.steps, final_loss)


def embed_records(model: CrossModalModel, records: np.ndarray):
    """Frozen embeddings for a record array: (vision, text, labels) arrays."""
    vs, ts, ys = [], [], []
    for lo in range(0, len(records), EMBED_CHUNK):
        part = records[lo:lo + EMBED_CHUNK]
        images, ids, labels = collate(part)
        v_emb, t_emb = model.embed(images, ids)
        vs.append(v_emb.data.copy())
        ts.append(t_emb.data.copy())
        ys.append(labels)
    return np.concatenate(vs), np.concatenate(ts), np.concatenate(ys)


def _fit_linear_probe(
    train_x: np.ndarray, train_y: np.ndarray,
    test_x: np.ndarray, test_y: np.ndarray, cfg: RunConfig, seed: int,
) -> float:
    """Train one ``cfg.classes``-way linear classifier on frozen features;
    return test top-1."""
    rng = np.random.default_rng(seed)
    clf = LinearParams.create(rng, train_x.shape[1], cfg.classes)
    opt = AdamW(
        {"probe.weight": clf.weight, "probe.bias": clf.bias},
        (cfg.beta1, cfg.beta2), cfg.adam_eps, weight_decay=0.0,
    )
    features = Tensor(train_x)
    for _ in range(cfg.probe_steps):
        loss = cross_entropy(linear(clf, features), train_y)
        backward(loss)
        opt.step(cfg.probe_lr)
    logits = linear(clf, Tensor(test_x)).data
    return float((logits.argmax(axis=1) == test_y).mean())


def probe(cfg: RunConfig, ckpt_path, splits: Optional[CorpusSplits] = None) -> dict[str, float]:
    """Frozen-feature linear probing on ``splits``, or on the configured
    corpus: ``{"vision": ..., "text": ...}``, each modality's test top-1
    accuracy.  Every report takes its metrics from this record, in its
    order: ``ablate``'s runs, means and text table, and ``crossdoc probe``.

    The encoder is rebuilt, in its dtype, from the checkpoint's config echo
    and parameters (its AdamW moments are not read), and its parameters are
    never updated; only the fresh linear classifiers train.
    """
    ckpt = load_checkpoint(ckpt_path, moments=False)
    model = CrossModalModel.create(ckpt.config, draw=False)
    model.load_arrays(ckpt.params)
    del ckpt  # the model holds its own copy of the parameters
    for param in model.parameters().values():
        param.requires_grad = False  # frozen: embedding records no graph

    if splits is None:
        _, splits = load_corpus(cfg, model.layout)  # its classes are cfg.classes
    v_train, t_train, y_train = embed_records(model, splits.train)
    v_test, t_test, y_test = embed_records(model, splits.test)
    return {
        "vision": _fit_linear_probe(v_train, y_train, v_test, y_test, cfg, cfg.seed + 11),
        "text": _fit_linear_probe(t_train, y_train, t_test, y_test, cfg, cfg.seed + 12),
    }


def ablate(cfg: RunConfig, out_dir, clock: Optional[Callable[[], float]] = None) -> dict:
    """Run the architecture/objective grid over the configured seeds.

    Each variant pretrains for ``ablate_steps`` and is probed, all on the
    one corpus loaded here.  A row holds one run per seed, the seed and
    every metric of ``probe``'s record, then each metric's seed mean as
    ``<metric>_mean``.
    """
    _, splits = load_corpus(cfg, cfg.layout())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, use_cross, use_gate, loss_mode in ABLATION_VARIANTS:
        runs = []
        for seed in cfg.ablate_seeds:
            run_cfg = replace(
                cfg, seed=int(seed), steps=cfg.ablate_steps,
                use_cross=use_cross, use_gate=use_gate, loss_mode=loss_mode,
            )
            run_dir = out / f"{name}_seed{seed}"
            result = pretrain(run_cfg, run_dir, clock=clock, splits=splits)
            runs.append({"seed": int(seed), **probe(run_cfg, result.checkpoint_path, splits=splits)})
        rows.append({
            "variant": name,
            "cross_attention": use_cross,
            "gated_self_attention": use_gate,
            "objective": loss_mode,
            "runs": runs,
            **{f"{metric}_mean": float(np.mean([run[metric] for run in runs]))
               for metric in _metrics(runs[0])},
        })
    table = {"seeds": [int(s) for s in cfg.ablate_seeds], "rows": rows}
    (out / "ablation.json").write_text(json.dumps(table, indent=2) + "\n")
    (out / "ablation.txt").write_text(render_ablation_table(table))
    return table


def _metrics(run: dict) -> list[str]:
    """The metric names of an ablation run entry, in ``probe``'s order."""
    return [key for key in run if key != "seed"]


def render_ablation_table(table: dict) -> str:
    """Text table: one line per (variant, metric), with the metric's seed
    mean."""
    lines = [
        f"{'variant':<12} {'gate':<5} {'cross':<6} {'objective':<9} "
        f"{'modality':<8} {'mean_acc':>8}"
    ]
    for row in table["rows"]:
        for metric in _metrics(row["runs"][0]):
            lines.append(
                f"{row['variant']:<12} "
                f"{'yes' if row['gated_self_attention'] else 'no':<5} "
                f"{'yes' if row['cross_attention'] else 'no':<6} "
                f"{row['objective']:<9} {metric:<8} "
                f"{row[f'{metric}_mean']:>8.4f}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    passed: bool
    message: str = ""


def _standard_checks() -> list[tuple[str, Callable[[Tensor], Tensor], Tensor]]:
    """Small-dimension probes covering every differentiable block, each
    with respect to its input, then the parameter adjoints of a dense layer
    and a layer norm, and the layer norm's residual adjoint."""
    rng = np.random.default_rng(2024)
    d, heads, rows, batch = 8, 2, 3, 4
    checks = []

    mha = MHAParams.create(rng, d, heads)
    kv = Tensor(rng.normal(size=(rows, d)))
    x_attn = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    checks.append((
        "multi_head_attention",
        lambda t: ad.tensor_sum(ad.mul(multi_head_attention(mha, t, kv),
                                       multi_head_attention(mha, t, kv))),
        x_attn,
    ))

    cross = CrossAttentionBlockParams.create(rng, d, heads)
    other = Tensor(rng.normal(size=(rows, d)))
    x_cross = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_cross(t):
        v_out, t_out = cross_attention_block(cross, t, other)
        return ad.add(ad.tensor_sum(ad.mul(v_out, v_out)),
                      ad.tensor_sum(ad.exp(ad.scale(t_out, 0.1))))

    checks.append(("cross_attention_block", f_cross, x_cross))

    gate = GatedSelfAttentionParams.create(rng, d, heads)
    prev = Tensor(rng.normal(size=(rows, d)))
    x_gate = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_gate(t):
        out = gated_self_attention(gate, prev, t)
        return ad.tensor_sum(ad.mul(out, out))

    checks.append(("gated_self_attention", f_gate, x_gate))

    head = FeedForwardParams.create(rng, d, d, 4)
    target = Tensor(rng.normal(size=4))
    x_head = Tensor(rng.normal(size=d), requires_grad=True)
    checks.append((
        "projection_head",
        lambda t: ad.tensor_sum(ad.mul(project_and_normalize(head, t), target)),
        x_head,
    ))

    labels = rng.integers(0, 2, size=batch)
    raw_t = Tensor(rng.normal(size=(batch, 4)))

    def f_crosscl(t):
        emb_batch = EmbeddingBatch(l2_normalize(t), l2_normalize(raw_t), labels, 0.1, 0.5)
        return cross_modal_contrastive_loss(emb_batch)["total"]

    x_loss = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
    checks.append(("cross_modal_contrastive_loss", f_crosscl, x_loss))

    x_intra = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)

    def f_intra(t):
        e = l2_normalize(t)
        return contrastive_term(e, e, positive_weights(labels), 0.1)

    checks.append(("intra_modality_term", f_intra, x_intra))

    ce_labels = rng.integers(0, 3, size=batch)
    x_ce = Tensor(rng.normal(size=(batch, 3)), requires_grad=True)
    checks.append(("cross_entropy", lambda t: cross_entropy(t, ce_labels), x_ce))

    tiny = RunConfig(feature_dim=d, num_heads=heads, depth=2, hidden_dim=d,
                     embed_dim=4, image_size=8, patch_size=4, vocab_size=16,
                     classes=2, samples_per_class=10, seed=5)
    model = CrossModalModel.create(tiny)
    ids = np.array([[1, 5, 4, 2, 0], [1, 7, 2, 0, 0], [1, 9, 9, 2, 0], [1, 4, 2, 0, 0]])
    loss_labels = np.array([0, 0, 1, 1])

    def f_model(raw_vision):
        # raw vision features in, full depth-2 stack and loss on top
        text, mask = token_embed(model.text_encoder, model.layout, ids)
        v_emb, t_emb = model.stack.forward(raw_vision, text, text_mask=mask)
        emb_batch = EmbeddingBatch(v_emb, t_emb, loss_labels, 0.1, 0.5)
        return cross_modal_contrastive_loss(emb_batch)["total"]

    x_model = Tensor(rng.normal(size=(batch, 5, d)), requires_grad=True)
    checks.append(("full_stack_loss", f_model, x_model))

    norm = LayerNormParams(Tensor(rng.normal(size=d)), Tensor(rng.normal(size=d)))
    norm_target = Tensor(rng.normal(size=(rows, d)))
    x_norm = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    checks.append((
        "layer_norm", lambda t: ad.tensor_sum(ad.mul(layer_norm(norm, t), norm_target)), x_norm,
    ))

    k_heads, v_heads = (Tensor(rng.normal(size=(batch, rows + 1, d))) for _ in range(2))
    key_bias = np.where(np.arange(rows + 1) < rows, 0.0, -np.inf)  # last key masked
    heads_target = Tensor(rng.normal(size=(batch, rows, d)))
    x_heads = Tensor(rng.normal(size=(batch, rows, d)), requires_grad=True)
    checks.append((
        "attention_heads",
        lambda t: ad.tensor_sum(ad.mul(
            ad.attention_heads(t, k_heads, v_heads, heads, key_bias)[0], heads_target)),
        x_heads,
    ))

    # Parameter adjoints and the residual's, each under a squared readout.
    # The dense layer's input is 3-d, so its bias gradient sums over two axes.
    dense = LinearParams(Tensor(rng.normal(size=(d, d)), requires_grad=True),
                         Tensor(rng.normal(size=d), requires_grad=True))
    x_dense = Tensor(rng.normal(size=(batch, rows, d)))
    ln = LayerNormParams(Tensor(rng.normal(size=d), requires_grad=True),
                         Tensor(rng.normal(size=d), requires_grad=True))
    x_ln = Tensor(rng.normal(size=(rows, d)))
    x_residual = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def squared(out):
        return ad.tensor_sum(ad.mul(out, out))

    checks += [
        ("linear.weight",
         lambda w: squared(linear(LinearParams(w, dense.bias), x_dense)), dense.weight),
        ("linear.bias",
         lambda b: squared(linear(LinearParams(dense.weight, b), x_dense)), dense.bias),
        ("layer_norm.gamma",
         lambda g: squared(layer_norm(LayerNormParams(g, ln.beta), x_ln)), ln.gamma),
        ("layer_norm.beta",
         lambda b: squared(layer_norm(LayerNormParams(ln.gamma, b), x_ln)), ln.beta),
        ("layer_norm.residual",
         lambda r: squared(layer_norm(ln, x_ln, residual=r)), x_residual),
    ]
    return checks


def gradcheck_report() -> list[GradCheckEntry]:
    """Compare every block's adjoints with central finite differences;
    failures never raise, they become report entries."""
    report = []
    for name, fn, x in _standard_checks():
        try:
            err = finite_diff_check(fn, x)
            report.append(GradCheckEntry(name, err, err < GRADCHECK_TOLERANCE))
        except NumericError as e:
            report.append(GradCheckEntry(name, math.inf, False, str(e)))
    return report


def render_gradcheck_report(report: list[GradCheckEntry]) -> str:
    lines = [f"{'block':<32} {'max_rel_err':>12}  status"]
    for entry in report:
        status = "pass" if entry.passed else f"FAIL {entry.message}".rstrip()
        lines.append(f"{entry.name:<32} {entry.max_rel_error:>12.3e}  {status}")
    return "\n".join(lines) + "\n"
