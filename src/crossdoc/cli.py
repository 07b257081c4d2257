"""Command-line surface.

Subcommands: pretrain, probe, ablate, gradcheck, gen-corpus.
Exit codes: 0 success, 1 configuration error, 2 data/file error,
3 numeric failure (or a failed gradient audit), 4 contract or shape
violation: an operation called outside its contract, which no valid input
should reach.  Every ``CrossdocError`` ends in one of these codes with a
one-line message on stderr, never in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESETS, RunConfig, apply_preset, format_config, parse_config
from .data import generate_corpus, write_corpus
from .errors import ConfigError, CrossdocError, DataError, FormatError, NumericError
from .train import (
    ablate,
    gradcheck_report,
    pretrain,
    probe,
    render_ablation_table,
    render_gradcheck_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdoc",
        description="Cross-modal contrastive pretraining on synthetic documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="flat key = value file")
        p.add_argument("--preset", choices=PRESETS, default="desk")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("runs/out"), help="output directory")

    common(sub.add_parser("pretrain", help="optimize the contrastive objective"))

    p_probe = sub.add_parser("probe", help="linear probing on frozen embeddings")
    common(p_probe)
    p_probe.add_argument("--ckpt", type=Path, required=True, help="checkpoint to probe")

    common(sub.add_parser("ablate", help="attention/objective ablation grid"))
    common(sub.add_parser("gradcheck", help="finite-difference gradient audit"))
    common(sub.add_parser("gen-corpus", help="generate and write a corpus container"))
    return parser


def resolve_config(args) -> RunConfig:
    cfg = apply_preset(args.preset)
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise DataError(f"cannot read config file {args.config}: {e}") from e
        cfg = parse_config(text, base=cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def run(args) -> int:
    cfg = resolve_config(args)
    out: Path = args.out

    if args.command == "pretrain":
        result = pretrain(cfg, out)
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"metrics:    {result.metrics_path}")
        print(f"final loss: {result.final_loss:.6f} after {result.steps} steps")
        return 0

    if args.command == "probe":
        result = probe(cfg, args.ckpt)
        print(json.dumps({
            "vision_accuracy": result.vision_accuracy,
            "text_accuracy": result.text_accuracy,
        }))
        return 0

    if args.command == "ablate":
        table = ablate(cfg, out)
        print(render_ablation_table(table), end="")
        print(f"written: {out / 'ablation.json'}")
        return 0

    if args.command == "gradcheck":
        report = gradcheck_report()
        print(render_gradcheck_report(report), end="")
        return 0 if all(entry.passed for entry in report) else 3

    if args.command == "gen-corpus":
        out.mkdir(parents=True, exist_ok=True)
        spec = cfg.corpus_spec()
        path = out / "corpus.bin"
        write_corpus(path, spec, generate_corpus(spec))
        print(f"written: {path}")
        config_echo = out / "corpus_config.txt"
        config_echo.write_text(format_config(cfg))
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError) as e:
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
