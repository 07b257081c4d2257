"""The finite-difference gradient audit, through the library and the CLI."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from crossdoc import autodiff, cli, gradcheck
from crossdoc.config import RunConfig
from crossdoc.data import make_batch
from crossdoc.errors import ConfigError
from crossdoc.gradcheck import gradcheck_report, render_gradcheck_report
from crossdoc.model import CrossModalModel
from crossdoc.train import batch_loss, load_corpus

ENTRIES = [
    "multi_head_attention", "cross_attention_block", "gated_self_attention", "projection_head",
    "cross_modal_contrastive_loss", "intra_modality_term", "cross_entropy", "full_stack_loss",
    "layer_norm", "attention_heads", "linear.weight", "linear.bias", "layer_norm.gamma",
    "layer_norm.beta", "layer_norm.residual", "layer_norm.dense.weight", "layer_norm.dense.bias",
    "gated_self_attention.previous", "feed_forward.weight", "feed_forward.bias",
    "patch_embed.weight", "patch_embed.bias", "patch_embed.cls_row", "patch_embed.positions",
    "token_embed.table", "token_embed.positions",
]


@pytest.fixture(scope="module")
def report():
    """The unpatched audit, run once for the tests that only read it."""
    return gradcheck_report()


def test_every_gradcheck_entry_passes(report):
    assert report
    failed = [(e.name, e.max_rel_error, e.message) for e in report if not e.passed]
    assert not failed


def test_gradcheck_report_names_every_entry_in_order(report):
    assert [entry.name for entry in report] == ENTRIES


@pytest.fixture(scope="module")
def cli_run():
    """One ``gradcheck`` command, run with ``resolve_config`` refusing: its
    exit code, stdout and stderr."""
    def refuse(args):
        raise ConfigError("the audit read a run config")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(cli, "resolve_config", refuse)
        code = cli.main(["gradcheck"])
    return code, out.getvalue(), err.getvalue()


def test_cli_gradcheck_exits_zero(cli_run):
    code, out, _ = cli_run
    assert code == 0
    assert "full_stack_loss" in out and "FAIL" not in out


def test_cli_gradcheck_reads_no_run_config(cli_run):
    """The audit runs before any config is resolved, so a config that could
    not be read cannot fail it."""
    code, _, err = cli_run
    assert code == 0
    assert err == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_check_whose_forward_overflows_fails_the_audit(monkeypatch, capsys):
    """A ``NumericError`` inside a check becomes a failed entry with an
    infinite error and the error's message, not a raise."""
    x = autodiff.Tensor(np.array([1000.0]), requires_grad=True)
    overflow = ("overflow", lambda t: autodiff.tensor_sum(autodiff.exp(t)), x)
    monkeypatch.setattr(gradcheck, "_standard_checks", lambda: [overflow])
    [entry] = gradcheck_report()
    assert entry.max_rel_error == np.inf and not entry.passed
    message = "non-finite value while probing coordinate 0"
    assert entry.message == message
    assert render_gradcheck_report([entry]).splitlines()[1].endswith(f"FAIL {message}")
    assert cli.main(["gradcheck"]) == 3
    assert capsys.readouterr().out.splitlines()[1].endswith(f"FAIL {message}")


# Each (op, parent index) pair a desk training step records, mapped to the
# entry that fails when that parent's contribution is halved.
AUDITED = {
    ("matmul", 1): "linear.weight", ("matmul", 2): "linear.bias",
    ("layer_norm", 1): "layer_norm.gamma", ("layer_norm", 2): "layer_norm.beta",
    ("layer_norm", 3): "layer_norm.residual",
    ("layer_norm", 0): "layer_norm", ("layer_norm", 4): "layer_norm.dense.weight",
    ("layer_norm", 5): "layer_norm.dense.bias",
    ("gate", 0): "gated_self_attention.previous", ("gate", 1): "gated_self_attention",
    ("gate", 2): "gated_self_attention.previous",
    ("attention", 0): "cross_attention_block",
    ("gelu", 0): "projection_head", ("gelu", 1): "feed_forward.weight",
    ("gelu", 2): "feed_forward.bias",
    ("embed_patches", 0): "patch_embed.positions", ("embed_patches", 1): "patch_embed.cls_row",
    ("embed_patches", 3): "patch_embed.weight", ("embed_patches", 4): "patch_embed.bias",
    ("embed_tokens", 0): "token_embed.positions", ("embed_tokens", 1): "token_embed.table",
    ("add", 0): "cross_modal_contrastive_loss", ("add", 1): "cross_modal_contrastive_loss",
    ("scale", 0): "cross_modal_contrastive_loss",
    ("transpose_last2", 0): "cross_modal_contrastive_loss",
    ("attention", 1): "gated_self_attention", ("attention", 2): "gated_self_attention",
    ("contrastive_sum", 0): "intra_modality_term",
    ("div", 0): "projection_head", ("div", 1): "projection_head",
    ("mul", 0): "projection_head", ("mul", 1): "projection_head",
    ("sqrt", 0): "projection_head", ("sum", 0): "projection_head",
    ("matmul", 0): "projection_head",
    ("narrow", 0): "full_stack_loss", ("reshape", 0): "full_stack_loss",
}


@pytest.mark.parametrize("op, edge, entry",
                         [(op, edge, entry) for (op, edge), entry in AUDITED.items()])
def test_a_halved_parameter_adjoint_fails_the_audit(monkeypatch, capsys, op, edge, entry):
    """Halve the contribution one parent of every ``op`` node receives, where
    that parent requires grad: the entry that differentiates through it
    fails, and so does the command.  Only that entry runs, the real list's
    entry, built in the real list's random stream."""
    checks = [check for check in gradcheck._standard_checks() if check[0] == entry]
    monkeypatch.setattr(gradcheck, "_standard_checks", lambda: checks)
    make_node = autodiff._make_node

    def halve(grads):
        grads = list(grads)
        grads[edge] = 0.5 * grads[edge]
        return grads

    def halved(data, node_op, parents, adjoint):
        if node_op == op and len(parents) > edge and parents[edge].requires_grad:
            return make_node(data, node_op, parents, lambda g: halve(adjoint(g)))
        return make_node(data, node_op, parents, adjoint)

    monkeypatch.setattr(autodiff, "_make_node", halved)
    assert cli.main(["gradcheck"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(f"{entry} ")][0].endswith("FAIL")


def test_every_pair_a_training_step_records_is_audited(monkeypatch):
    """One desk step graph, under the four-term and the ``scl`` objective,
    records only (op, parent index) pairs that ``AUDITED`` names, so a new
    fused op cannot land without a halved-contribution case."""
    recorded = set()
    make_node = autodiff._make_node

    def census(data, op, parents, adjoint):
        recorded.update((op, i) for i, parent in enumerate(parents) if parent.requires_grad)
        return make_node(data, op, parents, adjoint)

    monkeypatch.setattr(autodiff, "_make_node", census)
    for loss_mode in ("cross", "scl"):
        cfg = RunConfig(seed=1, loss_mode=loss_mode)
        _, splits = load_corpus(cfg, cfg.layout())
        records = make_batch(splits.train, cfg.batch_size, np.random.default_rng(0))
        batch_loss(CrossModalModel.create(cfg), records, cfg)
    assert sorted(recorded - AUDITED.keys()) == []
