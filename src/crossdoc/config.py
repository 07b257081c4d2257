"""Run configuration: one flat dataclass, a flat ``key = value`` text format,
and the two named presets.

The ``desk`` preset (the defaults) finishes in minutes on one CPU core and
computes in float64, the reference; the ``paper`` preset carries the
reference hyperparameters (768-wide features, batch 64, lr 2e-5, 100 epochs)
and computes in float32, as do AdamW's moments, and its checkpoints store
every array in float32.

``RunConfig`` is the one place a run setting has a default: the library
functions it feeds (``SyntheticCorpusSpec``, ``AdamW``,
``CrossModalStack.create``, ``cross_modal_contrastive_loss``) take every
setting explicitly.  Each rule on a setting is written once, too.  The rules
on the document layout and the corpus live in ``DocumentLayout`` and
``SyntheticCorpusSpec``, which a corpus header read from a file needs as
well; ``RunConfig`` applies them by building those types.  Their fields
carry the ``RunConfig`` keys' names, as the header does, so a refusal names
the key.  Every other rule, the learning-rate schedule's included, lives in
``RunConfig`` alone, and the library takes those values as given.

A key may appear once in a file, and must name a ``RunConfig`` field.
Values a run cannot use -- a negative seed, a feature width below 2, an
infinite rate, weight or temperature -- are refused here, before any command
writes output.  A config file is read as UTF-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import SyntheticCorpusSpec, train_per_class
from .encoders import DocumentLayout
from .errors import ConfigError, ContractError

PRESETS = ("desk", "paper")
DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class RunConfig:
    # model
    feature_dim: int = 32
    num_heads: int = 4
    depth: int = 2
    hidden_dim: int = 32  # projection head hidden width
    embed_dim: int = 16  # contrastive embedding width
    dtype: str = "float64"  # parameters and compute: "float64" or "float32"
    # loss
    temperature: float = 0.1
    inter_weight: float = 0.5
    loss_mode: str = "cross"  # "cross" (four-term objective) or "scl" (intra only)
    # architecture switches (stage absent when false)
    use_cross: bool = True
    use_gate: bool = True
    # corpus: either a container path or inline generation fields
    corpus_path: str = ""
    classes: int = 4
    samples_per_class: int = 100
    image_size: int = 16
    channels: int = 1
    patch_size: int = 4
    vocab_size: int = 64
    pixel_noise: float = 0.08
    token_corruption: float = 0.1
    corpus_seed: int = 0
    # optimization
    steps: int = 500
    batch_size: int = 16
    base_lr: float = 3e-3
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    log_every: int = 10
    checkpoint_every: int = 250
    # probing
    probe_steps: int = 300
    probe_lr: float = 0.05
    # ablation
    ablate_seeds: tuple = (0, 1, 2)
    ablate_steps: int = 300

    def __post_init__(self):
        if self.feature_dim < 2:  # layer norm needs two features
            raise ConfigError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.feature_dim % self.num_heads != 0:
            raise ConfigError(
                f"feature_dim {self.feature_dim} not divisible by {self.num_heads} heads"
            )
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.embed_dim < 2:
            raise ConfigError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        if self.batch_size < 4 or self.batch_size % 2:
            raise ConfigError(f"batch_size must be even and >= 4, got {self.batch_size}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        for key in ("log_every", "checkpoint_every"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("seed", "corpus_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        self.corpus_spec()  # raises on an invalid layout or corpus field
        for key in ("beta1", "beta2", "warmup_frac"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        # NaN fails both comparisons
        for key in ("temperature", "adam_eps", "probe_lr", "base_lr"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and positive, got {getattr(self, key)}")
        for key in ("inter_weight", "weight_decay"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if self.probe_steps < 1:
            raise ConfigError(f"probe_steps must be >= 1, got {self.probe_steps}")
        seeds = self.ablate_seeds
        if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
            raise ConfigError(
                f"ablate_seeds must be non-empty, distinct and >= 0, got {seeds}")
        if self.ablate_steps < 0:
            raise ConfigError(f"ablate_steps must be >= 0, got {self.ablate_steps}")
        if self.loss_mode not in ("cross", "scl"):
            raise ConfigError(f"loss_mode must be 'cross' or 'scl', got {self.loss_mode!r}")
        # parse_config cuts values at '#' and at line breaks, and strips them
        path = self.corpus_path
        if "#" in path or "".join(path.splitlines()) != path or path.strip() != path:
            raise ConfigError(
                f"corpus_path may not contain '#' or a line break, nor start or end "
                f"with whitespace: {path!r}")

    def layout(self) -> DocumentLayout:
        return self.corpus_spec().layout

    def corpus_spec(self) -> SyntheticCorpusSpec:
        return SyntheticCorpusSpec.from_values(vars(self))

    def lr_at(self, step: int) -> float:
        """The learning rate of ``step`` over ``max(steps, 1)`` steps: linear
        0 -> ``base_lr`` over the first ``warmup_frac`` of them, then linear
        ``base_lr`` -> 0 at the end."""
        total = max(self.steps, 1)
        if step < 0 or step > total:
            raise ContractError(f"step {step} outside schedule [0, {total}]")
        w = round(self.warmup_frac * total)
        if w > 0 and step <= w:
            return self.base_lr * step / w
        return self.base_lr * (total - step) / (total - w)


def apply_preset(name: str) -> RunConfig:
    cfg = RunConfig()
    if name == "desk":
        return cfg
    if name == "paper":
        train_size = cfg.classes * train_per_class(cfg.samples_per_class)
        epochs = 100
        steps = epochs * math.ceil(train_size / 64)
        return replace(
            cfg,
            feature_dim=768, hidden_dim=768, embed_dim=384, dtype="float32",
            batch_size=64, base_lr=2e-5, steps=steps,
        )
    raise ConfigError(f"unknown preset {name!r} (choose from {PRESETS})")


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_render(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def _parse_value(field_type, raw: str, key: str):
    raw = raw.strip()
    if field_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    if field_type is int:
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"bad integer for {key}: {raw!r}") from e
    if field_type is float:
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"bad float for {key}: {raw!r}") from e
    if field_type is tuple:
        if not raw:
            return ()
        try:
            return tuple(int(v.strip()) for v in raw.split(","))
        except ValueError as e:
            raise ConfigError(f"bad integer list for {key}: {raw!r}") from e
    return raw


def read_config(path, base: RunConfig) -> RunConfig:
    """``parse_config`` of the UTF-8 file at ``path``, over ``base``."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(
            f"config file {path} is not UTF-8: byte {e.start} is {raw[e.start]:#04x}") from e
    return parse_config(text, base=base)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat ``key = value`` lines; '#' starts a comment, and a key may
    appear once."""
    known = {f.name: f for f in fields(RunConfig)}
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: config key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _parse_value(_TYPE_BY_NAME[known[key].type], raw, key)
    cfg = base if base is not None else RunConfig()
    return replace(cfg, **values)


# dataclass field .type is a string under `from __future__ import annotations`
_TYPE_BY_NAME = {"int": int, "float": float, "bool": bool, "str": str, "tuple": tuple}
