"""Command-line surface.

Subcommands, each with only the options it reads:
    pretrain    --config --preset --seed --out
    probe       --ckpt    (every setting is the checkpoint's config echo)
    ablate      --config --preset --out    (each run's seed is from ablate_seeds)
    gen-corpus  --config --preset --out    (the corpus reads corpus_seed)
    gradcheck   none: the audit reads no run config
Exit codes: 0 success, 1 configuration error, 2 data/file error (including
an ``OSError``: an output path the OS refuses, a full disk), 3 numeric
failure (or a failed gradient audit), 4 contract or shape violation: an
operation called outside its contract, which no valid input should reach.
Every ``CrossdocError`` and ``OSError`` ends in one of these codes with a
one-line message on stderr, never in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESETS, RunConfig, apply_preset, format_config, read_config
from .data import generate_corpus, write_corpus
from .errors import ConfigError, CrossdocError, DataError, FormatError, NumericError
from .gradcheck import gradcheck_report, render_gradcheck_report
from .train import ablate, pretrain, probe, render_ablation_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdoc",
        description="Cross-modal contrastive pretraining on synthetic documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config, seed, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", type=Path, default=None, help="flat key = value file")
    config.add_argument("--preset", choices=PRESETS, default="desk")
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    out.add_argument("--out", type=Path, default=Path("runs/out"), help="output directory")

    sub.add_parser("pretrain", parents=[config, seed, out], help="optimize the contrastive objective")
    sub.add_parser("probe", help="linear probing on frozen embeddings").add_argument(
        "--ckpt", type=Path, required=True, help="checkpoint to probe")
    sub.add_parser("ablate", parents=[config, out], help="attention/objective ablation grid")
    sub.add_parser("gradcheck", help="finite-difference gradient audit")
    sub.add_parser("gen-corpus", parents=[config, out], help="generate and write a corpus container")
    return parser


def resolve_config(args) -> RunConfig:
    cfg = apply_preset(args.preset)
    if args.config is not None:
        cfg = read_config(args.config, base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def run(args) -> int:
    if args.command == "gradcheck":
        report = gradcheck_report()
        print(render_gradcheck_report(report), end="")
        return 0 if all(entry.passed for entry in report) else 3

    if args.command == "probe":
        print(json.dumps(probe(args.ckpt)))
        return 0

    cfg = resolve_config(args)

    if args.command == "pretrain":
        result = pretrain(cfg, args.out)
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"metrics:    {result.metrics_path}")
        print(f"final loss: {result.final_loss:.6f} after {result.steps} steps")
        return 0

    if args.command == "ablate":
        table = ablate(cfg, args.out)
        print(render_ablation_table(table), end="")
        print(f"written: {args.out / 'ablation.json'}")
        return 0

    # gen-corpus: argparse admits no other command
    spec = cfg.corpus_spec()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "corpus.bin"
    write_corpus(path, spec, generate_corpus(spec))
    print(f"written: {path}")
    (args.out / "corpus_config.txt").write_text(format_config(cfg), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except CrossdocError as e:  # ContractError, ShapeError
        print(f"contract violation: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
