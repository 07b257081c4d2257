"""Full model assembly: the two modality encoders feeding the cross-modal
block stack."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import RunConfig
from .cross_modal import CrossModalStack
from .encoders import (
    DocumentLayout,
    TextEncoderParams,
    VisionEncoderParams,
    patch_embed,
    token_embed,
)
from .errors import DataError
from .nn import named_tensors


@dataclass
class CrossModalModel:
    layout: DocumentLayout
    vision_encoder: VisionEncoderParams
    text_encoder: TextEncoderParams
    stack: CrossModalStack

    @classmethod
    def create(cls, cfg: RunConfig, seed: int) -> "CrossModalModel":
        """Build a freshly initialized model; one seed fixes every parameter."""
        rng = np.random.default_rng(seed)
        layout = cfg.layout()
        return cls(
            layout=layout,
            vision_encoder=VisionEncoderParams.create(rng, layout, cfg.feature_dim),
            text_encoder=TextEncoderParams.create(rng, layout, cfg.feature_dim),
            stack=CrossModalStack.create(
                rng, cfg.feature_dim, cfg.num_heads, depth=cfg.depth,
                hidden_dim=cfg.hidden_dim, embed_dim=cfg.embed_dim,
                use_cross=cfg.use_cross, use_gate=cfg.use_gate,
            ),
        )

    def parameters(self) -> dict[str, Tensor]:
        return dict(named_tensors(self))

    def embed(self, images: np.ndarray, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """Paired batch in, unit-norm (N, embed_dim) embeddings out."""
        vision = patch_embed(self.vision_encoder, self.layout, images)
        text, mask = token_embed(self.text_encoder, self.layout, token_ids)
        return self.stack.forward(vision, text, text_mask=mask)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter in place from checkpointed arrays; the
        names and shapes must be exactly the model's, or nothing is written."""
        params = self.parameters()
        missing = sorted(params.keys() - arrays.keys())
        unknown = sorted(arrays.keys() - params.keys())
        if missing or unknown:
            raise DataError(f"checkpoint parameters differ from the model's: missing {missing}, unknown {unknown}")
        for name, tensor in params.items():
            if arrays[name].shape != tensor.shape:
                raise DataError(f"checkpoint parameter {name} has shape {arrays[name].shape}, not {tensor.shape}")
        for name, tensor in params.items():
            tensor.data[...] = arrays[name]
