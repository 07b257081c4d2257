"""Toy modality encoders: pixel and token id arrays in, equal-shape
feature sequences out.

Both encoders emit (rows, feature_dim) matrices with a learned leading
classification row, and the token budget is tied to the patch count so the
two modalities always produce the same number of rows for one document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeError
from .nn import LinearParams

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
NUM_RESERVED_IDS = 3


@dataclass(frozen=True)
class DocumentLayout:
    """Geometry shared by a document's two modalities: square patches of
    ``patch_size`` over a square ``image_size`` image, and token sequences
    sized to the patch rows.  Each field has its ``RunConfig`` key's name."""

    image_size: int
    channels: int
    patch_size: int
    vocab_size: int

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.image_size % self.patch_size:
            size = self.image_size
            raise ConfigError(f"image {size}x{size} not divisible by patch {self.patch_size}")
        if self.vocab_size <= NUM_RESERVED_IDS:
            raise ConfigError("vocab must be larger than the reserved ids")

    @property
    def grid(self) -> int:
        """Patches along each side of the image."""
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def rows(self) -> int:
        """Sequence rows per modality: patches plus the classification row.
        Token sequences are padded/truncated to exactly this count, so paired
        samples share their (rows, feature_dim) shape."""
        return self.num_patches + 1


@dataclass
class VisionEncoderParams:
    proj: LinearParams  # patch pixels -> feature_dim
    cls_row: Tensor  # (1, feature_dim)
    positions: Tensor  # (rows, feature_dim)

    @classmethod
    def create(cls, rng: np.random.Generator, layout: DocumentLayout, feature_dim: int) -> "VisionEncoderParams":
        patch_dim = layout.patch_size * layout.patch_size * layout.channels
        return cls(
            proj=LinearParams.create(rng, patch_dim, feature_dim),
            cls_row=Tensor(rng.normal(0.0, 0.02, size=(1, feature_dim)), requires_grad=True),
            positions=Tensor(rng.normal(0.0, 0.02, size=(layout.rows, feature_dim)), requires_grad=True),
        )


@dataclass
class TextEncoderParams:
    table: Tensor  # (vocab_size, feature_dim)
    positions: Tensor  # (rows, feature_dim)

    @classmethod
    def create(cls, rng: np.random.Generator, layout: DocumentLayout, feature_dim: int) -> "TextEncoderParams":
        return cls(
            table=Tensor(rng.normal(0.0, 0.02, size=(layout.vocab_size, feature_dim)), requires_grad=True),
            positions=Tensor(rng.normal(0.0, 0.02, size=(layout.rows, feature_dim)), requires_grad=True),
        )


def patchify(layout: DocumentLayout, pixels: np.ndarray, dtype) -> np.ndarray:
    """Cut (.., H, W, C) pixels into (.., num_patches, patch*patch*C) rows
    of ``dtype``.

    Patches are ordered row-major over the patch grid; each patch flattens
    row-major over (row, col, channel).
    """
    pixels = np.asarray(pixels, dtype=dtype)
    expected = (layout.image_size, layout.image_size, layout.channels)
    if pixels.shape[-3:] != expected:
        raise ShapeError(f"image shape {pixels.shape[-3:]} does not match configured {expected}")
    p, grid = layout.patch_size, layout.grid
    lead = pixels.shape[:-3]
    x = pixels.reshape(lead + (grid, p, grid, p, layout.channels))
    x = np.moveaxis(x, -4, -3)  # (.., grid, grid, p, p, C)
    return x.reshape(lead + (grid * grid, p * p * layout.channels))


def patch_embed(params: VisionEncoderParams, layout: DocumentLayout, pixels: np.ndarray) -> Tensor:
    """Project flattened patches, prepend the learned [CLS] row, add positions,
    as one ``autodiff.embed_patches`` node, which keeps only the patches.

    ``pixels`` is a (.., H, W, C) array, cut into patches of the projection
    weights' dtype; a leading batch axis is carried through.
    """
    patches = patchify(layout, pixels, params.proj.weight.data.dtype)
    return ad.embed_patches(Tensor(patches), params.proj.weight, params.proj.bias,
                            params.cls_row, params.positions)


def token_embed(
    params: TextEncoderParams, layout: DocumentLayout, ids: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Embed token ids and return the features plus their key bias.

    The features, table rows plus positions, are one
    ``autodiff.embed_tokens`` node, which keeps only the ids.  ``ids`` is a
    (.., rows) integer array.  Ids outside the vocabulary are a data error.
    The key bias is a (.., rows) array in the features' dtype,
    0 on a real token and -inf on [PAD]: the one place padded text is kept
    out of attention.  Every attention over these rows as keys adds it,
    unchanged, to its logits (``autodiff.attention_heads``).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[-1] != layout.rows:
        raise DataError(f"token sequence length {ids.shape[-1]} != configured {layout.rows}")
    if ids.min() < 0 or ids.max() >= layout.vocab_size:
        raise DataError(
            f"token id out of vocabulary (vocab_size={layout.vocab_size}, "
            f"got range [{ids.min()}, {ids.max()}])"
        )
    features = ad.embed_tokens(params.table, ids, params.positions)
    return features, np.where(ids != PAD_ID, 0.0, -np.inf).astype(features.data.dtype)


def pool_cls(features: Tensor) -> Tensor:
    """Select the classification row (row 0) of each (.., rows, feature_dim)
    sequence."""
    picked = ad.narrow(features, -2, 0, 1)
    return ad.reshape(picked, picked.shape[:-2] + picked.shape[-1:])
