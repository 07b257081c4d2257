"""Deterministic synthetic corpus of paired (image, tokens, label) documents.

Each class gets a distinct patch-grid intensity template and a disjoint block
of the vocabulary, so the class is recoverable from either modality alone.
Gaussian pixel noise and uniform token corruption control how clean each
modality's signal is; zeroing one side's signal-to-noise simulates documents
where only the other modality is informative.

On-disk container (all little-endian):

    magic "XCLC" | u16 version=1 | spec | 3 x record set (train, val, test)
    spec: u16 classes | u32 samples_per_class | u16 height | u16 width
          | u16 channels | u16 patch | u32 vocab_size
          | f64 pixel_noise | f64 token_corruption | u64 seed
    record set: u32 count | count x record
    record: f32[height*width*channels] image | u32[rows] token ids | u16 label

``write_corpus`` streams the records to ``<path>.tmp`` and renames it over
``path`` when complete (see ``container``), so an existing corpus survives a
failed write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import open_container, write_container
from .encoders import (
    NUM_RESERVED_IDS,
    DocumentImage,
    DocumentLayout,
    TokenSequence,
)
from .errors import ConfigError, DataError, FormatError

MAGIC = b"XCLC"
VERSION = 1


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    layout: DocumentLayout
    classes: int = 4
    samples_per_class: int = 100
    pixel_noise: float = 0.08
    token_corruption: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("corpus needs at least two classes")
        if self.samples_per_class < 10:
            raise ConfigError("need >= 10 samples per class for an 80/10/10 split")
        if not (0.0 <= self.pixel_noise <= 1.0 and 0.0 <= self.token_corruption <= 1.0):
            raise ConfigError("noise levels must lie in [0, 1]")
        if self.content_vocab < self.classes:
            raise ConfigError(
                f"vocab of {self.layout.vocab_size} cannot hold {self.classes} disjoint "
                f"token blocks after {NUM_RESERVED_IDS} reserved ids"
            )

    @property
    def content_vocab(self) -> int:
        return self.layout.vocab_size - NUM_RESERVED_IDS

    @property
    def block_size(self) -> int:
        return self.content_vocab // self.classes

    def class_token_range(self, label: int) -> tuple[int, int]:
        lo = NUM_RESERVED_IDS + label * self.block_size
        return lo, lo + self.block_size

    def class_templates(self) -> np.ndarray:
        """Per-class patch-grid intensities in [0.1, 0.9], pairwise distinct."""
        rng = np.random.default_rng(self.seed)
        layout = self.layout
        grid = (layout.height // layout.patch, layout.width // layout.patch, layout.channels)
        while True:
            templates = rng.uniform(0.1, 0.9, size=(self.classes,) + grid)
            flat = templates.reshape(self.classes, -1)
            distinct = all(
                np.max(np.abs(flat[i] - flat[j])) > 1e-6
                for i in range(self.classes) for j in range(i + 1, self.classes)
            )
            if distinct:
                return templates


@dataclass
class CorpusRecord:
    image: DocumentImage
    tokens: TokenSequence
    label: int


@dataclass
class CorpusSplits:
    train: list[CorpusRecord] = field(default_factory=list)
    val: list[CorpusRecord] = field(default_factory=list)
    test: list[CorpusRecord] = field(default_factory=list)


def _render_image(spec: SyntheticCorpusSpec, template: np.ndarray,
                  rng: np.random.Generator) -> DocumentImage:
    pixels = np.kron(template, np.ones((spec.layout.patch, spec.layout.patch, 1)))
    if spec.pixel_noise > 0.0:
        pixels = pixels + rng.normal(0.0, spec.pixel_noise, size=pixels.shape)
    return DocumentImage(np.clip(pixels, 0.0, 1.0).astype(np.float32))


def _draw_tokens(spec: SyntheticCorpusSpec, label: int,
                 rng: np.random.Generator) -> TokenSequence:
    rows = spec.layout.rows
    lo, hi = spec.class_token_range(label)
    max_content = rows - 2
    length = int(rng.integers(max(1, max_content // 2), max_content + 1))
    content = rng.integers(lo, hi, size=length)
    if spec.token_corruption > 0.0:
        corrupt = rng.random(length) < spec.token_corruption
        noise = rng.integers(NUM_RESERVED_IDS, spec.layout.vocab_size, size=length)
        content = np.where(corrupt, noise, content)
    return TokenSequence.build(content.tolist(), rows)


def generate_corpus(spec: SyntheticCorpusSpec) -> CorpusSplits:
    """Deterministically generate balanced train/val/test record sets.

    Per class: 80% train, 10% val, remainder test; splits are disjoint and
    exhaustive.
    """
    templates = spec.class_templates()
    rng = np.random.default_rng(spec.seed + 1)  # templates consumed seed itself
    per_class: list[list[CorpusRecord]] = []
    for label in range(spec.classes):
        records = [
            CorpusRecord(
                image=_render_image(spec, templates[label], rng),
                tokens=_draw_tokens(spec, label, rng),
                label=label,
            )
            for _ in range(spec.samples_per_class)
        ]
        per_class.append(records)

    n_train = int(0.8 * spec.samples_per_class)
    n_val = int(0.1 * spec.samples_per_class)
    splits = CorpusSplits()
    for records in per_class:
        splits.train.extend(records[:n_train])
        splits.val.extend(records[n_train:n_train + n_val])
        splits.test.extend(records[n_train + n_val:])
    return splits


def make_batch(records: list[CorpusRecord], size: int,
               rng: np.random.Generator) -> list[CorpusRecord]:
    """Class-balanced batch in which every sampled class appears at least
    twice, so no contrastive anchor has an empty positive set."""
    if size < 4:
        raise ConfigError("contrastive batches need size >= 4")
    if size % 2 != 0:
        raise ConfigError("batch size must be even")
    by_class: dict[int, list[CorpusRecord]] = {}
    for r in records:
        by_class.setdefault(r.label, []).append(r)
    available = sorted(by_class)
    n_classes = min(len(available), size // 2)
    if n_classes < 2:
        raise ConfigError("need at least two distinct classes to form a batch")
    chosen = rng.choice(available, size=n_classes, replace=False)
    base, extra = divmod(size, n_classes)
    batch: list[CorpusRecord] = []
    for i, label in enumerate(chosen):
        count = base + (1 if i < extra else 0)
        pool = by_class[int(label)]
        idx = rng.choice(len(pool), size=count, replace=len(pool) < count)
        batch.extend(pool[int(j)] for j in idx)
    return batch


def collate(records: list[CorpusRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack records into (images f32, token ids i64, labels i64) arrays."""
    images = np.stack([r.image.pixels for r in records])
    ids = np.stack([r.tokens.ids for r in records])
    labels = np.array([r.label for r in records], dtype=np.int64)
    return images, ids, labels


# ---------------------------------------------------------------------------
# on-disk container
# ---------------------------------------------------------------------------

_SPEC_FMT = "<HIHHHHIddQ"


def write_corpus(path, spec: SyntheticCorpusSpec, splits: CorpusSplits) -> None:
    layout = spec.layout
    with write_container(path, MAGIC, VERSION) as writer:
        writer.pack(
            _SPEC_FMT, spec.classes, spec.samples_per_class, layout.height, layout.width,
            layout.channels, layout.patch, layout.vocab_size,
            spec.pixel_noise, spec.token_corruption, spec.seed,
        )
        for records in (splits.train, splits.val, splits.test):
            writer.pack("<I", len(records))
            for r in records:
                writer.array(r.image.pixels, "<f4")
                writer.array(r.tokens.ids, "<u4")
                writer.pack("<H", r.label)


def read_corpus(path) -> tuple[SyntheticCorpusSpec, CorpusSplits]:
    with open_container(path, MAGIC, VERSION, "corpus file") as reader:
        spec_offset = reader.offset
        fields = reader.unpack(_SPEC_FMT)
        try:
            layout = DocumentLayout(*fields[2:7])
            spec = SyntheticCorpusSpec(
                layout, classes=fields[0], samples_per_class=fields[1],
                pixel_noise=fields[7], token_corruption=fields[8], seed=fields[9],
            )
        except ConfigError as e:
            raise FormatError(f"invalid corpus spec at byte {spec_offset}: {e}") from e
        image_shape = (layout.height, layout.width, layout.channels)
        splits = CorpusSplits()
        for records in (splits.train, splits.val, splits.test):
            (count,) = reader.unpack("<I")
            for _ in range(count):
                pixels = reader.array(image_shape, "<f4")
                ids = reader.array((layout.rows,), "<u4").astype(np.int64)
                (label,) = reader.unpack("<H")
                if label >= spec.classes:
                    raise DataError(f"record label {label} >= {spec.classes} classes")
                records.append(CorpusRecord(DocumentImage(pixels), TokenSequence(ids), label))
        reader.finish()
    return spec, splits
