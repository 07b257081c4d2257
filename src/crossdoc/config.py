"""Run configuration: one flat dataclass, a flat ``key = value`` text format,
and the two named presets.

The ``desk`` preset (the defaults) finishes in minutes on one CPU core; the
``paper`` preset carries the reference hyperparameters (768-wide features,
batch 64, lr 2e-5, 100 epochs) and is not meant to be fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .data import SyntheticCorpusSpec
from .encoders import DocumentLayout
from .errors import ConfigError
from .optim import Schedule

PRESETS = ("desk", "paper")


@dataclass(frozen=True)
class RunConfig:
    # model
    feature_dim: int = 32
    num_heads: int = 4
    depth: int = 2
    hidden_dim: int = 32  # projection head hidden width
    embed_dim: int = 16  # contrastive embedding width
    # loss
    temperature: float = 0.1
    inter_weight: float = 0.5
    include_own_pair: bool = False
    loss_mode: str = "cross"  # "cross" (four-term objective) or "scl" (intra only)
    # architecture switches (identity replacement when false)
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
        if self.feature_dim % self.num_heads != 0:
            raise ConfigError(
                f"feature_dim {self.feature_dim} not divisible by {self.num_heads} heads"
            )
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.batch_size < 4 or self.batch_size % 2:
            raise ConfigError(f"batch_size must be even and >= 4, got {self.batch_size}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.log_every < 1 or self.checkpoint_every < 1:
            raise ConfigError("log/checkpoint cadences must be >= 1")
        if self.loss_mode not in ("cross", "scl"):
            raise ConfigError(f"loss_mode must be 'cross' or 'scl', got {self.loss_mode!r}")
        # parse_config cuts values at '#' and at line breaks, and strips them
        path = self.corpus_path
        if "#" in path or "".join(path.splitlines()) != path or path.strip() != path:
            raise ConfigError(
                f"corpus_path may not contain '#' or a line break, nor start or end "
                f"with whitespace: {path!r}")

    def layout(self) -> DocumentLayout:
        """The document geometry the flat image/patch/vocab fields describe."""
        return DocumentLayout(
            height=self.image_size, width=self.image_size, channels=self.channels,
            patch=self.patch_size, vocab_size=self.vocab_size,
        )

    def corpus_spec(self) -> SyntheticCorpusSpec:
        return SyntheticCorpusSpec(
            self.layout(),
            classes=self.classes,
            samples_per_class=self.samples_per_class,
            pixel_noise=self.pixel_noise,
            token_corruption=self.token_corruption,
            seed=self.corpus_seed,
        )

    def schedule(self, steps: int | None = None) -> Schedule:
        return Schedule(
            total_steps=steps if steps is not None else max(self.steps, 1),
            base_lr=self.base_lr,
            warmup_frac=self.warmup_frac,
        )


def apply_preset(name: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    if name == "desk":
        return cfg
    if name == "paper":
        train_size = int(0.8 * cfg.classes * cfg.samples_per_class)
        epochs = 100
        steps = epochs * math.ceil(train_size / 64)
        return replace(
            cfg,
            feature_dim=768, hidden_dim=768, embed_dim=384,
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


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    known = {f.name: f for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        field = known[key]
        ftype = field.type if isinstance(field.type, type) else _TYPE_BY_NAME[field.type]
        values[key] = _parse_value(ftype, raw, key)
    cfg = base if base is not None else RunConfig()
    return replace(cfg, **values)


# dataclass field .type is a string under `from __future__ import annotations`
_TYPE_BY_NAME = {"int": int, "float": float, "bool": bool, "str": str, "tuple": tuple}
