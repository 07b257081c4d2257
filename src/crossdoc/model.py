"""Full model assembly: the two modality encoders feeding the cross-modal
block stack."""

from __future__ import annotations

import functools
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


class _Draws:
    """A draw source that draws nothing yet: ``uniform`` and ``normal``
    record their call and return an unwritten placeholder of its size, so
    the model is laid out before any value exists."""

    def __init__(self, dtype: str):
        self.dtype, self.calls = dtype, []

    def _record(self, method: str, *args, size) -> np.ndarray:
        placeholder = np.empty(size, self.dtype)
        self.calls.append((placeholder, method, args, size))
        return placeholder

    uniform = functools.partialmethod(_record, "uniform")
    normal = functools.partialmethod(_record, "normal")

    def replay(self, rng: np.random.Generator, views: dict[int, np.ndarray]) -> None:
        """Make the recorded calls on ``rng`` in their order, assigning each
        float64 draw into ``views[id(placeholder)]``: one rounding to the
        view's dtype, as ``astype`` rounds."""
        for placeholder, method, args, size in self.calls:
            views[id(placeholder)][...] = getattr(rng, method)(*args, size=size)


@dataclass
class CrossModalModel:
    layout: DocumentLayout
    vision_encoder: VisionEncoderParams
    text_encoder: TextEncoderParams
    stack: CrossModalStack

    @classmethod
    def create(cls, cfg: RunConfig, draw: bool = True) -> "CrossModalModel":
        """Build a freshly initialized model in ``cfg.dtype``; ``cfg.seed``
        fixes every parameter.  The parameters are consecutive views of one
        flat buffer, in ``parameters()`` order, which ``AdamW`` adopts.  The
        draws are float64 whatever the dtype, each rounded once into its
        view, so a float32 model is the float64 model rounded.  With
        ``draw=False`` only the biases and norms are written, for a caller
        that loads the parameters next (``load_arrays``)."""
        draws = _Draws(cfg.dtype)
        layout = cfg.layout()
        model = cls(
            layout=layout,
            vision_encoder=VisionEncoderParams.create(draws, layout, cfg.feature_dim),
            text_encoder=TextEncoderParams.create(draws, layout, cfg.feature_dim),
            stack=CrossModalStack.create(
                draws, cfg.feature_dim, cfg.num_heads, depth=cfg.depth,
                hidden_dim=cfg.hidden_dim, embed_dim=cfg.embed_dim,
                use_cross=cfg.use_cross, use_gate=cfg.use_gate,
            ),
        )
        params = list(model.parameters().values())
        flat = np.empty(sum(p.size for p in params), cfg.dtype)
        pieces = np.split(flat, np.cumsum([p.size for p in params])[:-1])
        drawn, views = {id(placeholder) for placeholder, *_ in draws.calls}, {}
        for p, piece in zip(params, pieces):
            view = views[id(p.data)] = piece.reshape(p.shape)
            if id(p.data) not in drawn:  # biases and norms: zeros and ones, not draws
                view[...] = p.data
            p.data = view
        if draw:
            draws.replay(np.random.default_rng(cfg.seed), views)
        return model

    def parameters(self) -> dict[str, Tensor]:
        return dict(named_tensors(self))

    def embed(self, images: np.ndarray, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """Paired batch in, unit-norm (N, embed_dim) embeddings out."""
        vision = patch_embed(self.vision_encoder, self.layout, images)
        text, text_bias = token_embed(self.text_encoder, self.layout, token_ids)
        return self.stack.forward(vision, text, text_bias)

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
