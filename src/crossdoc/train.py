"""Training harness: contrastive pretraining, frozen linear probing and the
ablation grid.  The gradient audit that checks this pipeline's adjoints is
``gradcheck``.

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

from .autodiff import Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, format_config
from .data import (
    CorpusSplits,
    SyntheticCorpusSpec,
    collate,
    generate_corpus,
    make_batch,
    read_corpus,
)
from .encoders import DocumentLayout
from .errors import DataError, NumericError
from .losses import cross_entropy, cross_modal_contrastive_loss
from .model import CrossModalModel
from .nn import LinearParams, linear
from .optim import AdamW

CHECKPOINT_NAME = "checkpoint.bin"
METRICS_NAME = "metrics.jsonl"
EMBED_CHUNK = 64  # records per no-grad forward pass when probing

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
    documents must have the model's ``layout``.  A corpus file's train split
    must hold two classes or more, as ``make_batch`` needs, and its test
    split a record or more, as the probe needs."""
    if cfg.corpus_path:
        spec, splits = read_corpus(cfg.corpus_path)
        where = f"corpus file {cfg.corpus_path}"
        if spec.classes != cfg.classes:
            raise DataError(f"{where} has {spec.classes} classes but config says {cfg.classes}")
        train_classes = len(np.unique(splits.train["label"]))
        if train_classes < 2:
            raise DataError(
                f"{where}: the train split holds {train_classes} class(es), and a batch needs two")
        if not len(splits.test):
            raise DataError(f"{where}: the test split holds 0 records, and the probe needs one")
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
    return cross_modal_contrastive_loss(v_emb, t_emb, labels, cfg.temperature, inter_weight)


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
                lr = cfg.lr_at(step)
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
        vs.append(v_emb.data)
        ts.append(t_emb.data)
        ys.append(labels)
    return np.concatenate(vs), np.concatenate(ts), np.concatenate(ys)


def _fit_linear_probe(
    train_x: np.ndarray, train_y: np.ndarray,
    test_x: np.ndarray, test_y: np.ndarray, cfg: RunConfig, seed: int,
) -> float:
    """Train a linear classifier on frozen features, one output per class
    up to the largest label in ``train_y``; return test top-1."""
    rng = np.random.default_rng(seed)
    clf = LinearParams.create(rng, train_x.shape[1], int(train_y.max()) + 1)
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
