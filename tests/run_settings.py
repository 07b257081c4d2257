"""Library objects built from a ``RunConfig``'s run settings, as the program
builds them.

``RunConfig`` is the one place a run setting has a default; the library
constructors take every setting explicitly.  A test that needs the usual
values builds through here, passing only the settings it changes, so it
runs the values the program reads from its config.  Gradients reach an
optimizer the one way the program delivers them, through ``backward``.
"""

from crossdoc import autodiff as ad
from crossdoc.autodiff import GradTape, Tensor
from crossdoc.config import RunConfig
from crossdoc.cross_modal import CrossModalStack
from crossdoc.data import SyntheticCorpusSpec
from crossdoc.encoders import DocumentLayout
from crossdoc.losses import cross_modal_contrastive_loss
from crossdoc.optim import AdamW


def adamw(params, **settings) -> AdamW:
    """AdamW with the optimizer settings ``train.pretrain`` passes."""
    cfg = RunConfig(**settings)
    return AdamW(params, (cfg.beta1, cfg.beta2), cfg.adam_eps, cfg.weight_decay)


def backward_grads(params, grads) -> GradTape:
    """``backward`` on ``sum_name sum(p * g)`` over the names in ``grads``,
    in their order: its gradient for each ``p`` is ``g`` exactly, and the
    parameters receive them in that order."""
    terms = [ad.tensor_sum(ad.mul(params[name], Tensor(g))) for name, g in grads.items()]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return ad.backward(loss)


def contrastive_loss(vision, text, labels, **settings) -> dict:
    """``cross_modal_contrastive_loss`` with the loss settings
    ``train.batch_loss`` passes."""
    cfg = RunConfig(**settings)
    return cross_modal_contrastive_loss(vision, text, labels, cfg.temperature, cfg.inter_weight)


def stack(rng, **settings) -> CrossModalStack:
    """A block stack drawn from ``rng`` as ``CrossModalModel.create`` draws it."""
    cfg = RunConfig(**settings)
    return CrossModalStack.create(
        rng, cfg.feature_dim, cfg.num_heads, depth=cfg.depth, hidden_dim=cfg.hidden_dim,
        embed_dim=cfg.embed_dim, use_cross=cfg.use_cross, use_gate=cfg.use_gate)


def corpus_spec(layout: DocumentLayout, **settings) -> SyntheticCorpusSpec:
    """``RunConfig.corpus_spec`` of a config whose layout keys are
    ``layout``'s fields, which carry the same names."""
    return RunConfig(**vars(layout), **settings).corpus_spec()
