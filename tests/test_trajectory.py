"""The fixed-seed loss trajectory: a refactor that leaves the numbers alone
reproduces these 20 desk-preset ``total`` values to 1e-9 relative, for the
four-term objective and for the intra-only ``scl`` one, and the four-term
run in float32 stays within ``FLOAT32_REL_TOLERANCE`` of them."""

import json
from collections import Counter

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.config import RunConfig
from crossdoc.data import make_batch
from crossdoc.model import CrossModalModel
from crossdoc.train import batch_loss, load_corpus, pretrain

# `crossdoc pretrain --preset desk --seed 1` with steps = 20, log_every = 1.
DESK_SEED1_TOTALS = [
    137.71743697819136, 131.36459927507101, 129.54118182959104, 127.47737929354786,
    123.43311006421442, 111.36791990851353, 104.46826590365687, 97.94935340706145,
    96.05401632486323, 101.07240779018021, 94.11667875001868, 86.94434814603083,
    88.16232247759677, 83.39706755472095, 80.08711553935709, 79.99469962333049,
    86.97036656508146, 73.29932579165842, 73.17814623844342, 67.01320917455567,
]

# The same run with loss_mode = scl (the intra terms only, as in `full_scl`).
DESK_SEED1_SCL_TOTALS = [
    89.42089344316469, 82.35201012208546, 83.70137933543805, 78.54943777969176,
    66.0364192796458, 53.43755319215313, 60.707460141176426, 43.41496217549686,
    45.21553141296161, 38.745131001579324, 37.079278779371606, 38.508716656683035,
    37.11932661305458, 37.02732435658861, 36.10109252552092, 35.75617893812482,
    40.07483694071445, 36.45712075213197, 38.68184277629618, 35.49149942637527,
]

# The float32 run's largest gap over these 20 steps is 1.2e-6 relative.
FLOAT32_REL_TOLERANCE = 1e-5


def totals(cfg, out_dir):
    result = pretrain(cfg, out_dir)
    with result.metrics_path.open() as f:
        return [json.loads(line)["total"] for line in f]


def test_desk_pretrain_reproduces_the_recorded_trajectory(tmp_path):
    cfg = RunConfig(seed=1, steps=20, log_every=1)
    assert totals(cfg, tmp_path) == pytest.approx(DESK_SEED1_TOTALS, rel=1e-9, abs=0.0)


def test_scl_desk_pretrain_reproduces_the_recorded_trajectory(tmp_path):
    cfg = RunConfig(seed=1, steps=20, log_every=1, loss_mode="scl")
    assert totals(cfg, tmp_path) == pytest.approx(DESK_SEED1_SCL_TOTALS, rel=1e-9, abs=0.0)


def test_float32_desk_pretrain_follows_the_trajectory(tmp_path):
    cfg = RunConfig(seed=1, steps=20, log_every=1, dtype="float32")
    got = totals(cfg, tmp_path)
    assert got != DESK_SEED1_TOTALS
    assert got == pytest.approx(DESK_SEED1_TOTALS, rel=FLOAT32_REL_TOLERANCE, abs=0.0)


def test_desk_step_graph_census():
    """One desk ``batch_loss`` graph: 248 nodes, 150 of them parameter
    leaves.  Each dense layer is one ``matmul`` node with its bias, each
    feed-forward's ``fc1`` is part of its ``gelu`` node, each sub-layer's
    output projection (``w_o``, ``fc2``) and residual sum are part of its
    ``layer_norm`` node, and each encoder is one node, so of the 3 ``add``
    nodes none is a bias add, a residual, the gate's or a position add, and
    34 ``matmul`` nodes remain.  The nodes other than the parameters hold
    4,649,536 bytes of values: a change that brings back an array no
    adjoint reads, such as a projection or a product kept only for a sum,
    fails here.  A change that fuses or splits ops updates these counts on
    purpose."""
    cfg = RunConfig(seed=1)
    splits = load_corpus(cfg)
    model = CrossModalModel.create(cfg)
    records = make_batch(splits.train, cfg.batch_size, np.random.default_rng(0))
    nodes = ad._topo_order(batch_loss(model, records, cfg)["total"])
    ops = Counter(node.op for node in nodes)
    assert (sum(ops.values()), ops["leaf"]) == (248, 150)
    assert (ops["matmul"], ops["add"]) == (34, 3)
    params = {id(p) for p in model.parameters().values()}
    kept = [node for node in nodes if id(node) not in params]
    assert len(kept) == 98
    assert sum(node.data.nbytes for node in kept) == 4_649_536
