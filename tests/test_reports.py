"""What a run reports: the ``metrics.jsonl`` columns ``pretrain`` logs, the
``ablation.json`` table and ``ablation.txt`` lines ``ablate`` writes, and
the JSON line ``crossdoc probe`` prints.  A metric has one name in all of
them."""

import json
from dataclasses import replace

import numpy as np
import pytest

from crossdoc import cli, train
from crossdoc.config import RunConfig, format_config

TINY = RunConfig(feature_dim=8, num_heads=2, hidden_dim=8, embed_dim=4, image_size=8,
                 samples_per_class=10, batch_size=4, steps=2, log_every=1, probe_steps=2,
                 ablate_seeds=(0, 1), ablate_steps=1)

ROW_KEYS = ["variant", "cross_attention", "gated_self_attention", "objective", "runs",
            "vision_mean", "text_mean"]
RUN_KEYS = ["seed", "vision", "text"]


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """``ablate`` on TINY: (the returned table, its output directory)."""
    out = tmp_path_factory.mktemp("ablate")
    return train.ablate(TINY, out), out


def test_ablation_json_rows_and_runs_keep_their_keys_in_order(ablation):
    table, out = ablation
    assert json.loads((out / "ablation.json").read_text()) == table
    assert list(table) == ["seeds", "rows"] and table["seeds"] == [0, 1]
    assert [row["variant"] for row in table["rows"]] == [v[0] for v in train.ABLATION_VARIANTS]
    for row, (_, use_cross, use_gate, loss_mode) in zip(table["rows"], train.ABLATION_VARIANTS):
        assert list(row) == ROW_KEYS
        assert (row["cross_attention"], row["gated_self_attention"], row["objective"]) == (
            use_cross, use_gate, loss_mode)
        assert [list(run) for run in row["runs"]] == [RUN_KEYS, RUN_KEYS]
        assert [run["seed"] for run in row["runs"]] == [0, 1]


def test_each_mean_is_the_mean_of_its_runs(ablation):
    table, _ = ablation
    for row in table["rows"]:
        for metric in RUN_KEYS[1:]:
            assert row[f"{metric}_mean"] == float(np.mean([run[metric] for run in row["runs"]]))


def test_text_table_has_one_line_per_variant_and_metric(ablation):
    table, out = ablation
    lines = (out / "ablation.txt").read_text().splitlines()
    assert lines[0].split() == ["variant", "gate", "cross", "objective", "modality", "mean_acc"]
    expected = [
        [row["variant"], "yes" if row["gated_self_attention"] else "no",
         "yes" if row["cross_attention"] else "no", row["objective"], metric,
         f"{row[f'{metric}_mean']:.4f}"]
        for row in table["rows"] for metric in RUN_KEYS[1:]
    ]
    assert [line.split() for line in lines[1:]] == expected


def test_probe_prints_the_keys_of_a_run_entry(ablation, tmp_path, capsys):
    """``crossdoc probe`` of an ablation run's checkpoint, under that run's
    seed, prints the run's entry without its seed, in its order."""
    table, out = ablation
    run = table["rows"][-1]["runs"][1]
    config = tmp_path / "run.txt"
    config.write_text(format_config(replace(TINY, seed=run["seed"])))
    ckpt = out / f"{table['rows'][-1]['variant']}_seed{run['seed']}" / train.CHECKPOINT_NAME
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(config), "--ckpt", str(ckpt)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1
    assert list(json.loads(printed[0]).items()) == [(k, v) for k, v in run.items() if k != "seed"]


@pytest.mark.parametrize("loss_mode, terms", [
    ("cross", ["total", "vision_intra", "text_to_vision", "text_intra", "vision_to_text"]),
    ("scl", ["total", "vision_intra", "text_intra"]),
], ids=["cross", "scl"])
def test_metrics_log_columns_and_per_anchor_total(tmp_path, loss_mode, terms):
    """Every logged step has the loss terms in order (no inter terms under
    ``scl``), and ``total_per_anchor`` is ``total`` over the batch size."""
    result = train.pretrain(replace(TINY, loss_mode=loss_mode), tmp_path / "run")
    lines = [json.loads(line) for line in result.metrics_path.read_text().splitlines()]
    assert [line["step"] for line in lines] == [1, 2]
    for line in lines:
        assert list(line) == ["step", "lr", *terms, "total_per_anchor", "wall_time"]
        assert line["total_per_anchor"] == line["total"] / TINY.batch_size
    assert lines[-1]["total"] == result.final_loss


def test_a_new_probe_metric_reaches_every_report(tmp_path, monkeypatch, capsys):
    """A metric added to ``probe``'s record gets its runs, its mean, its
    text lines and its place in ``crossdoc probe``'s line, with no other
    edit."""
    real = train.probe

    def probe(*args, **kwargs):
        return {**real(*args, **kwargs), "extra": 0.5}

    monkeypatch.setattr(train, "probe", probe)
    monkeypatch.setattr(cli, "probe", probe)
    cfg = replace(TINY, ablate_seeds=(0,))
    table = train.ablate(cfg, tmp_path / "ablate")
    for row in table["rows"]:
        assert list(row)[-3:] == ["vision_mean", "text_mean", "extra_mean"]
        assert row["extra_mean"] == 0.5
        assert [list(run) for run in row["runs"]] == [[*RUN_KEYS, "extra"]]
    lines = (tmp_path / "ablate" / "ablation.txt").read_text().splitlines()
    assert [line.split()[-2:] for line in lines if line.split()[4] == "extra"] == [
        ["extra", "0.5000"]] * len(train.ABLATION_VARIANTS)

    config = tmp_path / "run.txt"
    config.write_text(format_config(cfg))
    ckpt = tmp_path / "ablate" / "full_seed0" / train.CHECKPOINT_NAME
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(config), "--ckpt", str(ckpt)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["vision", "text", "extra"]


def test_probe_fits_on_the_train_split_and_scores_the_test_split(tmp_path, monkeypatch):
    """At desk the probe embeds the 320 train records, then every one of
    the 80 held-out records: the corpus has no split the probe skips."""
    cfg = RunConfig(steps=0, probe_steps=1)
    splits = train.generate_corpus(cfg.corpus_spec())
    ckpt = train.pretrain(cfg, tmp_path / "run").checkpoint_path
    embedded = []
    real = train.embed_records

    def spy(model, records):
        embedded.append(records)
        return real(model, records)

    monkeypatch.setattr(train, "embed_records", spy)
    train.probe(cfg, ckpt)
    assert [len(records) for records in embedded] == [320, 80]
    np.testing.assert_array_equal(embedded[0], splits.train)
    np.testing.assert_array_equal(embedded[1], splits.test)


def test_probe_classifier_has_one_output_per_label_it_fits(monkeypatch):
    """Its width comes from the labels, not from ``classes``: a probe fitted
    on labels 0 and 1 of a 4-class config has two outputs."""
    widths = []
    real = train.LinearParams.create

    def spy(rng, d_in, d_out):
        widths.append(d_out)
        return real(rng, d_in, d_out)

    monkeypatch.setattr(train.LinearParams, "create", spy)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 3)), np.array([0, 1] * 4)
    accuracy = train._fit_linear_probe(x, y, x, y, TINY, seed=0)
    assert TINY.classes == 4 and widths == [2]
    assert 0.0 <= accuracy <= 1.0
