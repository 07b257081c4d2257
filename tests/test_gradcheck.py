"""The finite-difference gradient audit, through the library and the CLI."""

from crossdoc import cli
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
