"""Deterministic synthetic corpus of paired (image, tokens, label) documents.

Each class gets a distinct patch-grid intensity template and a disjoint block
of the vocabulary, so the class is recoverable from either modality alone.
Gaussian pixel noise and uniform token corruption control how clean each
modality's signal is.  Only the text can be made uninformative: at
``token_corruption`` 1 every content token is uniform, while ``pixel_noise``
is capped at 1 and never removes the class template (a nearest-centroid
classifier on raw pixels still scores 0.9625 on the default corpus's test
split at ``pixel_noise`` 1).

On-disk container (all little-endian):

    magic "XCLC" | u16 version=3 | spec | 2 x record set (train, test)
    spec: the fields of ``SPEC_HEADER``, in its order and widths
    record set: u32 count | count x record
    record: ``record_dtype(layout)``, packed: f32[image_size, image_size,
            channels] image | u32[rows] token ids | u16 label

In memory each record set is one numpy array of ``record_dtype``, the same
bytes as on disk.  ``read_corpus`` checks every record as it loads: label
below ``classes``, ids ``[CLS] content... [SEP] [PAD]...`` below
``vocab_size`` with no reserved id in the content, pixels finite in [0, 1].

``write_corpus`` streams the records to ``<path>.tmp`` and renames it over
``path`` when complete (see ``container``), so an existing corpus survives a
failed write.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .container import open_container, write_container
from .encoders import CLS_ID, NUM_RESERVED_IDS, PAD_ID, SEP_ID, DocumentLayout
from .errors import ConfigError, ContractError, FormatError

MAGIC = b"XCLC"
VERSION = 3
# The corpus header after the version: each field of a spec and of its
# layout, in file order, with its struct code.  Each name is a ``RunConfig``
# key as well, so one name runs from the config file to the corpus file.
SPEC_HEADER = (
    ("classes", "H"), ("samples_per_class", "I"), ("image_size", "H"),
    ("channels", "H"), ("patch_size", "H"), ("vocab_size", "I"),
    ("pixel_noise", "d"), ("token_corruption", "d"), ("corpus_seed", "Q"),
)
_SPEC_FMT = "<" + "".join(code for _, code in SPEC_HEADER)


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    layout: DocumentLayout
    classes: int
    samples_per_class: int
    pixel_noise: float
    token_corruption: float
    corpus_seed: int

    @classmethod
    def from_values(cls, values) -> "SyntheticCorpusSpec":
        """The spec, with its layout, of a mapping of every ``SPEC_HEADER``
        name to its value: a ``RunConfig``'s fields or a corpus header's."""
        layout = DocumentLayout(**{f.name: values[f.name] for f in fields(DocumentLayout)})
        return cls(layout, **{f.name: values[f.name] for f in fields(cls) if f.name != "layout"})

    def __post_init__(self):
        values = self.header_values()
        for name, code in SPEC_HEADER:
            bits = 8 * struct.calcsize("<" + code)
            if code != "d" and not 0 <= values[name] < 1 << bits:
                raise ConfigError(f"{name} must lie in [0, {(1 << bits) - 1}], a u{bits} "
                                  f"in the corpus header, got {values[name]}")
        if self.classes < 2:
            raise ConfigError("corpus needs at least two classes")
        if self.samples_per_class < 10:
            raise ConfigError("need >= 10 samples per class for an 80/20 train/test split")
        if not (0.0 <= self.pixel_noise <= 1.0 and 0.0 <= self.token_corruption <= 1.0):
            raise ConfigError("noise levels must lie in [0, 1]")
        if self.layout.rows < 3:
            raise ConfigError(
                f"layout has {self.layout.rows} rows, which leaves no room for a content "
                f"token between [CLS] and [SEP]; a corpus needs rows >= 3 (two or more patches)")
        if self.content_vocab < self.classes:
            raise ConfigError(
                f"vocab of {self.layout.vocab_size} cannot hold {self.classes} disjoint "
                f"token blocks after {NUM_RESERVED_IDS} reserved ids"
            )

    def header_values(self) -> dict:
        """The inverse of ``from_values``: each ``SPEC_HEADER`` name's value."""
        values = asdict(self)
        values.update(values.pop("layout"))
        return values

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
        """Per-class patch-grid intensities, uniform in [0.1, 0.9].

        A template has at least 4 draws (rows >= 3 makes the grid at least
        2x2), so two templates agree within 1e-6 everywhere with probability
        below 1e-13, even at the largest u16 class count: they are distinct
        without a check."""
        rng = np.random.default_rng(self.corpus_seed)
        grid = (self.layout.grid, self.layout.grid, self.layout.channels)
        return rng.uniform(0.1, 0.9, size=(self.classes,) + grid)


def record_dtype(layout: DocumentLayout) -> np.dtype:
    """One document, packed: its pixels in [0, 1], its token ids
    ``[CLS] content... [SEP] [PAD]...`` and its class.  The corpus holds each
    split as one array of these, and writes it byte for byte."""
    image_shape = (layout.image_size, layout.image_size, layout.channels)
    return np.dtype([("image", "<f4", image_shape), ("ids", "<u4", (layout.rows,)), ("label", "<u2")])


@dataclass
class CorpusSplits:
    """Two record arrays of ``record_dtype``, disjoint."""

    train: np.ndarray
    test: np.ndarray


def train_per_class(samples_per_class: int) -> int:
    """Per class, the train count: 80%; the rest is test."""
    return int(0.8 * samples_per_class)


def generate_corpus(spec: SyntheticCorpusSpec) -> CorpusSplits:
    """Deterministically generate balanced train/test record sets: each
    class's first ``train_per_class`` records, in generation order, are
    train and the rest are test; splits are disjoint and exhaustive."""
    layout = spec.layout
    templates = spec.class_templates()
    rng = np.random.default_rng(spec.corpus_seed + 1)  # templates consumed the seed itself
    records = np.zeros((spec.classes, spec.samples_per_class), record_dtype(layout))
    images, ids = records["image"], records["ids"]
    records["label"] = np.arange(spec.classes)[:, None]
    max_content = layout.rows - 2
    for label in range(spec.classes):
        clean = np.kron(templates[label], np.ones((layout.patch_size, layout.patch_size, 1)))
        lo, hi = spec.class_token_range(label)
        for i in range(spec.samples_per_class):
            pixels = clean
            if spec.pixel_noise > 0.0:
                pixels = clean + rng.normal(0.0, spec.pixel_noise, size=clean.shape)
            images[label, i] = np.clip(pixels, 0.0, 1.0)
            length = int(rng.integers(max(1, max_content // 2), max_content + 1))
            content = rng.integers(lo, hi, size=length)
            if spec.token_corruption > 0.0:
                corrupt = rng.random(length) < spec.token_corruption
                noise = rng.integers(NUM_RESERVED_IDS, layout.vocab_size, size=length)
                content = np.where(corrupt, noise, content)
            ids[label, i, :length + 2] = [CLS_ID, *content, SEP_ID]

    n_train = train_per_class(spec.samples_per_class)
    return CorpusSplits(train=records[:, :n_train].ravel(), test=records[:, n_train:].ravel())


def make_batch(records: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Class-balanced batch in which every sampled class appears at least
    twice, so no contrastive anchor has an empty positive set.  ``records``
    must hold two classes or more (``train.load_corpus`` refuses a train
    split that does not)."""
    labels = records["label"]
    available = np.unique(labels)
    n_classes = min(len(available), size // 2)
    if n_classes < 2:
        raise ContractError("need at least two distinct classes to form a batch")
    chosen = rng.choice(available, size=n_classes, replace=False)
    base, extra = divmod(size, n_classes)
    picks = []
    for i, label in enumerate(chosen):
        count = base + (1 if i < extra else 0)
        pool = np.flatnonzero(labels == label)
        picks.append(pool[rng.choice(len(pool), size=count, replace=len(pool) < count)])
    return records[np.concatenate(picks)]


def collate(records: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A record array's fields: (images f32, token ids i64, labels i64)."""
    return records["image"], records["ids"].astype(np.int64), records["label"].astype(np.int64)


# ---------------------------------------------------------------------------
# on-disk container
# ---------------------------------------------------------------------------

def write_corpus(path, spec: SyntheticCorpusSpec, splits: CorpusSplits) -> None:
    values = spec.header_values()
    with write_container(path, MAGIC, VERSION) as writer:
        writer.pack(_SPEC_FMT, *(values[name] for name, _ in SPEC_HEADER))
        for split in fields(splits):
            records = getattr(splits, split.name)
            writer.pack("<I", len(records))
            writer.array(records, record_dtype(spec.layout))


def _check_records(spec: SyntheticCorpusSpec, records: np.ndarray, where: str, start: int) -> None:
    """Raise ``FormatError`` at the first record that breaks the record
    format (see the module docstring), naming ``where``, the record's index
    and its byte offset in the file; ``start`` is the offset of record 0."""
    layout = spec.layout
    ids = records["ids"]
    images = records["image"]
    last_real = layout.rows - 1 - np.argmax(ids[:, ::-1] != PAD_ID, axis=1)
    position = np.arange(layout.rows)
    content = (position > 0) & (position < last_real[:, None])
    problems = (
        (records["label"] >= spec.classes, f"label >= {spec.classes} classes"),
        (ids[:, 0] != CLS_ID, "token ids do not start with [CLS]"),
        (ids[np.arange(len(ids)), last_real] != SEP_ID, "last non-[PAD] token id is not [SEP]"),
        ((content & (ids < NUM_RESERVED_IDS)).any(axis=1), "reserved token id between [CLS] and [SEP]"),
        ((ids >= layout.vocab_size).any(axis=1), f"token id >= vocab_size {layout.vocab_size}"),
        (~((images >= 0.0) & (images <= 1.0)).all(axis=(1, 2, 3)), "pixel not finite in [0, 1]"),
    )
    for bad, what in problems:
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(f"{where} record {i} at byte {start + i * records.itemsize}: {what}")


def read_corpus(path) -> tuple[SyntheticCorpusSpec, CorpusSplits]:
    """Read a corpus container; every record is checked as it loads."""
    with open_container(path, MAGIC, VERSION, "corpus file") as reader:
        spec_offset = reader.offset
        values = dict(zip((name for name, _ in SPEC_HEADER), reader.unpack(_SPEC_FMT)))
        try:
            spec = SyntheticCorpusSpec.from_values(values)
        except ConfigError as e:
            raise FormatError(f"invalid corpus spec at byte {spec_offset}: {e}") from e
        parts = {}
        for split in fields(CorpusSplits):
            (count,) = reader.unpack("<I")
            start = reader.offset
            parts[split.name] = reader.array((count,), record_dtype(spec.layout))
            _check_records(spec, parts[split.name], f"{reader.kind} {split.name}", start)
        reader.finish()
    return spec, CorpusSplits(**parts)
