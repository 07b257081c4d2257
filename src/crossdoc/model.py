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


class _RoundedDraws:
    """``rng`` whose ``uniform`` and ``normal`` draws come back rounded to
    ``dtype``.  Each float64 draw is rounded as it is made, so the next draw
    reuses its memory; rounding the finished float64 model instead took
    about 100 ms more at paper width (32.6M values, on a 2-core x86 host)."""

    def __init__(self, rng: np.random.Generator, dtype: str):
        self.rng, self.dtype = rng, dtype

    def uniform(self, *args, **kwargs) -> np.ndarray:
        return self.rng.uniform(*args, **kwargs).astype(self.dtype, copy=False)

    def normal(self, *args, **kwargs) -> np.ndarray:
        return self.rng.normal(*args, **kwargs).astype(self.dtype, copy=False)


class _NoDraws:
    """A draw source that draws nothing: ``uniform`` and ``normal`` return
    unwritten ``dtype`` arrays of the requested size, which cost no memory
    until written, for a model whose values are loaded next."""

    def __init__(self, dtype: str):
        self.dtype = dtype

    def uniform(self, *args, size) -> np.ndarray:
        return np.empty(size, self.dtype)

    normal = uniform


@dataclass
class CrossModalModel:
    layout: DocumentLayout
    vision_encoder: VisionEncoderParams
    text_encoder: TextEncoderParams
    stack: CrossModalStack

    @classmethod
    def create(cls, cfg: RunConfig, draw: bool = True) -> "CrossModalModel":
        """Build a freshly initialized model in ``cfg.dtype``; ``cfg.seed``
        fixes every parameter.  The draws are float64 whatever the dtype, and
        each parameter is rounded once, so a float32 model is the float64
        model rounded.  With ``draw=False`` the drawn parameters are left
        unwritten, for a caller that loads them next (``load_arrays``)."""
        if draw:
            rng = _RoundedDraws(np.random.default_rng(cfg.seed), cfg.dtype)
        else:
            rng = _NoDraws(cfg.dtype)
        layout = cfg.layout()
        model = cls(
            layout=layout,
            vision_encoder=VisionEncoderParams.create(rng, layout, cfg.feature_dim),
            text_encoder=TextEncoderParams.create(rng, layout, cfg.feature_dim),
            stack=CrossModalStack.create(
                rng, cfg.feature_dim, cfg.num_heads, depth=cfg.depth,
                hidden_dim=cfg.hidden_dim, embed_dim=cfg.embed_dim,
                use_cross=cfg.use_cross, use_gate=cfg.use_gate,
            ),
        )
        for tensor in model.parameters().values():  # biases and norms: zeros and ones, not draws
            tensor.data = tensor.data.astype(cfg.dtype, copy=False)
        return model

    def parameters(self) -> dict[str, Tensor]:
        return dict(named_tensors(self))

    def embed(self, images: np.ndarray, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """Paired batch in, unit-norm (N, embed_dim) embeddings out."""
        vision = patch_embed(self.vision_encoder, self.layout, images)
        text, mask = token_embed(self.text_encoder, self.layout, token_ids)
        return self.stack.forward(vision, text, text_mask=mask)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter in place from checkpointed arrays,
        converted to the parameter's dtype; the names and shapes must be
        exactly the model's, or nothing is written."""
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
