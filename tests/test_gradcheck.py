"""The finite-difference gradient audit, through the library and the CLI."""

import pytest

from crossdoc import autodiff, cli
from crossdoc.train import gradcheck_report


def test_every_gradcheck_entry_passes():
    report = gradcheck_report()
    assert report
    failed = [(e.name, e.max_rel_error, e.message) for e in report if not e.passed]
    assert not failed


def test_cli_gradcheck_exits_zero(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "full_stack_loss" in out and "FAIL" not in out


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
