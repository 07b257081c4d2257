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
from .config import RunConfig, format_config, parse_config
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
from .encoders import DocumentLayout, ModalityFeatures, token_embed
from .errors import ConfigError, DataError, NumericError
from .losses import (
    EmbeddingBatch,
    cross_entropy,
    cross_modal_contrastive_loss,
    intra_modality_term,
)
from .model import CrossModalModel
from .nn import LayerNormParams, LinearParams, MHAParams, ProjectionHeadParams, l2_normalize, layer_norm, linear, multi_head_attention, project_and_normalize
from .optim import AdamW, lr_at

CHECKPOINT_NAME = "checkpoint.bin"
METRICS_NAME = "metrics.jsonl"

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


@dataclass
class ProbeResult:
    vision_accuracy: float
    text_accuracy: float


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


def batch_loss(model: CrossModalModel, records, cfg: RunConfig):
    """Embed a batch and evaluate the configured objective on it."""
    images, ids, labels = collate(records)
    v_emb, t_emb = model.embed(images, ids)
    inter_weight = cfg.inter_weight if cfg.loss_mode == "cross" else 0.0
    batch = EmbeddingBatch(
        vision=v_emb, text=t_emb, labels=labels,
        temperature=cfg.temperature, inter_weight=inter_weight,
        include_own_pair=cfg.include_own_pair,
    )
    return cross_modal_contrastive_loss(batch)


def pretrain(
    cfg: RunConfig,
    out_dir,
    clock: Optional[Callable[[], float]] = None,
) -> PretrainResult:
    """Optimize the contrastive objective; writes a metrics log and
    checkpoints at the configured cadence plus a final one.

    A non-finite loss aborts the run, leaving the last cadence checkpoint in
    place.  ``clock`` exists so tests can pin wall times; the default is the
    real monotonic clock.
    """
    clock = time.perf_counter if clock is None else clock
    _, splits = load_corpus(cfg, cfg.layout())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / CHECKPOINT_NAME
    metrics_path = out / METRICS_NAME

    model = CrossModalModel.create(cfg, cfg.seed)
    params = model.parameters()
    opt = AdamW(params, (cfg.beta1, cfg.beta2), cfg.adam_eps, cfg.weight_decay)
    config_text = format_config(cfg)
    save_checkpoint(ckpt_path, 0, config_text, params, opt)

    schedule = cfg.schedule()
    batch_rng = np.random.default_rng(cfg.seed + 1_000_003)
    start = clock()
    final_loss = math.nan
    with metrics_path.open("w") as metrics_file:
        for step in range(cfg.steps):
            records = make_batch(splits.train, cfg.batch_size, batch_rng)
            report = batch_loss(model, records, cfg)
            final_loss = report.total.item()
            if not math.isfinite(final_loss):
                raise NumericError(
                    f"non-finite loss at step {step}; "
                    f"last checkpoint retained at {ckpt_path}"
                )
            lr = lr_at(schedule, step)
            tape = backward(report.total)
            opt.step(lr)
            tape.clear()
            if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.steps:
                record = {"step": step + 1, "lr": lr}
                record.update(report.values())
                record["wall_time"] = clock() - start
                metrics_file.write(json.dumps(record) + "\n")
            if (step + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(ckpt_path, step + 1, config_text, params, opt)
    save_checkpoint(ckpt_path, cfg.steps, config_text, params, opt)
    return PretrainResult(ckpt_path, metrics_path, cfg.steps, final_loss)


def embed_records(model: CrossModalModel, records, chunk: int = 64):
    """Frozen embeddings for a record list: (vision, text, labels) arrays."""
    vs, ts, ys = [], [], []
    for lo in range(0, len(records), chunk):
        part = records[lo:lo + chunk]
        images, ids, labels = collate(part)
        v_emb, t_emb = model.embed(images, ids)
        vs.append(v_emb.data.copy())
        ts.append(t_emb.data.copy())
        ys.append(labels)
    return np.concatenate(vs), np.concatenate(ts), np.concatenate(ys)


def _fit_linear_probe(
    train_x: np.ndarray, train_y: np.ndarray,
    test_x: np.ndarray, test_y: np.ndarray,
    num_classes: int, cfg: RunConfig, seed: int,
) -> float:
    """Train one linear classifier on frozen features; return test top-1."""
    rng = np.random.default_rng(seed)
    clf = LinearParams.create(rng, train_x.shape[1], num_classes)
    opt = AdamW(
        {"probe.weight": clf.weight, "probe.bias": clf.bias},
        (cfg.beta1, cfg.beta2), cfg.adam_eps, weight_decay=0.0,
    )
    features = Tensor(train_x)
    for _ in range(cfg.probe_steps):
        loss = cross_entropy(linear(clf, features), train_y)
        tape = backward(loss)
        opt.step(cfg.probe_lr)
        tape.clear()
    logits = linear(clf, Tensor(test_x)).data
    return float((logits.argmax(axis=1) == test_y).mean())


def probe(cfg: RunConfig, ckpt_path) -> ProbeResult:
    """Frozen-feature linear probing: per-modality test top-1 accuracy.

    The encoder is rebuilt from the checkpoint's config echo and its
    parameters are never updated; only the fresh linear classifiers train.
    """
    ckpt = load_checkpoint(ckpt_path)
    try:
        ckpt_cfg = parse_config(ckpt.config_text)
        model = CrossModalModel.create(ckpt_cfg, ckpt_cfg.seed)
    except ConfigError as e:
        raise DataError(f"checkpoint {ckpt_path} has an invalid config echo: {e}") from e
    model.load_arrays(ckpt.params)
    for param in model.parameters().values():
        param.requires_grad = False  # frozen: embedding records no graph

    spec, splits = load_corpus(cfg, model.layout)
    v_train, t_train, y_train = embed_records(model, splits.train)
    v_test, t_test, y_test = embed_records(model, splits.test)
    if y_train.max() >= spec.classes:
        raise DataError("corpus labels exceed declared class count")
    vision_acc = _fit_linear_probe(
        v_train, y_train, v_test, y_test, spec.classes, cfg, cfg.seed + 11)
    text_acc = _fit_linear_probe(
        t_train, y_train, t_test, y_test, spec.classes, cfg, cfg.seed + 12)
    return ProbeResult(vision_accuracy=vision_acc, text_accuracy=text_acc)


def ablate(cfg: RunConfig, out_dir, clock: Optional[Callable[[], float]] = None) -> dict:
    """Run the architecture/objective grid over the configured seeds.

    Each variant pretrains for ``ablate_steps`` and is probed per modality;
    the result table carries per-seed accuracies and seed means.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, use_cross, use_gate, loss_mode in ABLATION_VARIANTS:
        per_seed = []
        for seed in cfg.ablate_seeds:
            run_cfg = replace(
                cfg, seed=int(seed), steps=cfg.ablate_steps,
                use_cross=use_cross, use_gate=use_gate, loss_mode=loss_mode,
            )
            run_dir = out / f"{name}_seed{seed}"
            result = pretrain(run_cfg, run_dir, clock=clock)
            acc = probe(run_cfg, result.checkpoint_path)
            per_seed.append({
                "seed": int(seed),
                "vision": acc.vision_accuracy,
                "text": acc.text_accuracy,
            })
        rows.append({
            "variant": name,
            "cross_attention": use_cross,
            "gated_self_attention": use_gate,
            "objective": loss_mode,
            "runs": per_seed,
            "vision_mean": float(np.mean([r["vision"] for r in per_seed])),
            "text_mean": float(np.mean([r["text"] for r in per_seed])),
        })
    table = {"seeds": [int(s) for s in cfg.ablate_seeds], "rows": rows}
    (out / "ablation.json").write_text(json.dumps(table, indent=2) + "\n")
    (out / "ablation.txt").write_text(render_ablation_table(table))
    return table


def render_ablation_table(table: dict) -> str:
    """Text table: one row per (variant, modality), accuracy columns."""
    lines = [
        f"{'variant':<12} {'gate':<5} {'cross':<6} {'objective':<9} "
        f"{'modality':<8} {'mean_acc':>8}"
    ]
    for row in table["rows"]:
        for modality in ("vision", "text"):
            lines.append(
                f"{row['variant']:<12} "
                f"{'yes' if row['gated_self_attention'] else 'no':<5} "
                f"{'yes' if row['cross_attention'] else 'no':<6} "
                f"{row['objective']:<9} {modality:<8} "
                f"{row[f'{modality}_mean']:>8.4f}"
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
    """Small-dimension probes covering every differentiable block."""
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
    other = ModalityFeatures(Tensor(rng.normal(size=(rows, d))))
    x_cross = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_cross(t):
        v_out, t_out = cross_attention_block(cross, ModalityFeatures(t), other)
        return ad.add(ad.tensor_sum(ad.mul(v_out.tensor, v_out.tensor)),
                      ad.tensor_sum(ad.exp(ad.scale(t_out.tensor, 0.1))))

    checks.append(("cross_attention_block", f_cross, x_cross))

    gate = GatedSelfAttentionParams.create(rng, d, heads)
    prev = ModalityFeatures(Tensor(rng.normal(size=(rows, d))))
    x_gate = Tensor(rng.normal(size=(rows, d)), requires_grad=True)

    def f_gate(t):
        out = gated_self_attention(gate, prev, ModalityFeatures(t))
        return ad.tensor_sum(ad.mul(out.tensor, out.tensor))

    checks.append(("gated_self_attention", f_gate, x_gate))

    head = ProjectionHeadParams.create(rng, d, d, 4)
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
        emb_batch = EmbeddingBatch(l2_normalize(t), l2_normalize(raw_t), labels)
        return cross_modal_contrastive_loss(emb_batch).total

    x_loss = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
    checks.append(("cross_modal_contrastive_loss", f_crosscl, x_loss))

    x_intra = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
    checks.append((
        "intra_modality_term",
        lambda t: intra_modality_term(l2_normalize(t), labels, 0.1),
        x_intra,
    ))

    ce_labels = rng.integers(0, 3, size=batch)
    x_ce = Tensor(rng.normal(size=(batch, 3)), requires_grad=True)
    checks.append(("cross_entropy", lambda t: cross_entropy(t, ce_labels), x_ce))

    tiny = RunConfig(feature_dim=d, num_heads=heads, depth=2, hidden_dim=d,
                     embed_dim=4, image_size=8, patch_size=4, vocab_size=16,
                     classes=2, samples_per_class=10)
    model = CrossModalModel.create(tiny, seed=5)
    ids = np.array([[1, 5, 4, 2, 0], [1, 7, 2, 0, 0], [1, 9, 9, 2, 0], [1, 4, 2, 0, 0]])
    loss_labels = np.array([0, 0, 1, 1])

    def f_model(raw_vision):
        # raw vision features in, full depth-2 stack and loss on top
        text, mask = token_embed(model.text_encoder, model.layout, ids)
        v_emb, t_emb = model.stack.forward(
            ModalityFeatures(raw_vision), text, text_mask=mask)
        emb_batch = EmbeddingBatch(v_emb, t_emb, loss_labels)
        return cross_modal_contrastive_loss(emb_batch).total

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
    return checks


def gradcheck_report(
    extra_checks=None,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> list[GradCheckEntry]:
    """Compare every block's adjoints with central finite differences.

    ``extra_checks`` takes additional (name, f, x) triples; failures never
    raise, they become report entries.
    """
    checks = _standard_checks()
    if extra_checks:
        checks = checks + list(extra_checks)
    report = []
    for name, fn, x in checks:
        try:
            err = finite_diff_check(fn, x, step=step)
            report.append(GradCheckEntry(name, err, err < tolerance))
        except NumericError as e:
            report.append(GradCheckEntry(name, math.inf, False, str(e)))
    return report


def render_gradcheck_report(report: list[GradCheckEntry]) -> str:
    lines = [f"{'block':<32} {'max_rel_err':>12}  status"]
    for entry in report:
        status = "pass" if entry.passed else f"FAIL {entry.message}".rstrip()
        lines.append(f"{entry.name:<32} {entry.max_rel_error:>12.3e}  {status}")
    return "\n".join(lines) + "\n"
