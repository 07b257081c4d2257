"""The finite-difference gradient audit, through the library and the CLI."""

import numpy as np
import pytest

from crossdoc import autodiff, cli, gradcheck
from crossdoc.errors import ConfigError
from crossdoc.gradcheck import gradcheck_report, render_gradcheck_report

ENTRIES = [
    "multi_head_attention", "cross_attention_block", "gated_self_attention", "projection_head",
    "cross_modal_contrastive_loss", "intra_modality_term", "cross_entropy", "full_stack_loss",
    "layer_norm", "attention_heads", "linear.weight", "linear.bias", "layer_norm.gamma",
    "layer_norm.beta", "layer_norm.residual",
]


def test_every_gradcheck_entry_passes():
    report = gradcheck_report()
    assert report
    failed = [(e.name, e.max_rel_error, e.message) for e in report if not e.passed]
    assert not failed


def test_gradcheck_report_names_every_entry_in_order():
    assert [entry.name for entry in gradcheck_report()] == ENTRIES


def test_cli_gradcheck_exits_zero(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "full_stack_loss" in out and "FAIL" not in out


def test_cli_gradcheck_reads_no_run_config(monkeypatch, capsys):
    """The audit runs before any config is resolved, so a config that could
    not be read cannot fail it."""
    def refuse(args):
        raise ConfigError("the audit read a run config")

    monkeypatch.setattr(cli, "resolve_config", refuse)
    assert cli.main(["gradcheck"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("op, edge, entry", [
    ("matmul", 1, "linear.weight"), ("matmul", 2, "linear.bias"),
    ("layer_norm", 1, "layer_norm.gamma"), ("layer_norm", 2, "layer_norm.beta"),
    ("layer_norm", 3, "layer_norm.residual"),
])
def test_a_halved_parameter_adjoint_fails_the_audit(monkeypatch, capsys, op, edge, entry):
    """Halve one parameter edge's vector-Jacobian product, or the layer
    norm's residual edge: the entry that differentiates with respect to that
    input fails, and so does the command."""
    make_node = autodiff._make_node

    def halved(data, node_op, *edges):
        if node_op == op and len(edges) > edge:
            parent, vjp = edges[edge]
            edges = (*edges[:edge], (parent, lambda g: 0.5 * vjp(g)), *edges[edge + 1:])
        return make_node(data, node_op, *edges)

    monkeypatch.setattr(autodiff, "_make_node", halved)
    assert cli.main(["gradcheck"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(f"{entry} ")][0].endswith("FAIL")
