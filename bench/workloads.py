"""The benchmark's workloads: which public call each one makes, on which
configuration.

Importing this module does not import ``crossdoc``; the parent process only
needs the names, and the child builds the configuration.  The workload seed
reaches the program only through the config fields ``seed``,
``corpus_seed`` and, for the ablation, ``ablate_seeds``.
"""

from __future__ import annotations

# A cadence no workload reaches: only the step-0 and the final checkpoint are
# written, so each step's wall time is one training step and nothing else.
NO_CADENCE_CHECKPOINTS = 10**9

WORKLOADS = {
    # Python per-node dispatch, graph building and AdamW's per-parameter loop
    # dominate; BLAS work is negligible.  100 steps leave 10 beyond p90.
    "desk-pretrain": {
        "call": "pretrain",
        "preset": "desk",
        "fields": {"steps": 100},
    },
    # Paper width at batch 8: BLAS- and memory-bound, and every checkpoint
    # write is 782 MB.  Stands in for the `paper` preset, which runs out of
    # memory at batch 64.
    "wide-pretrain": {
        "call": "pretrain",
        "preset": "paper",
        "fields": {"batch_size": 8, "steps": 3},
    },
    # All five ablation variants pretrained, checkpointed, reloaded and
    # probed: no-grad embedding and linear probes next to pretraining.
    "desk-ablate": {
        "call": "ablate",
        "preset": "desk",
        "fields": {"ablate_steps": 40},
    },
}

# Shapes small enough that every workload's code path runs in well under a
# second; used by the benchmark's own smoke test, never for measurements.
TINY_FIELDS = {
    "feature_dim": 8, "num_heads": 2, "hidden_dim": 8, "embed_dim": 4,
    "image_size": 8, "patch_size": 4, "vocab_size": 16,
    "samples_per_class": 10, "batch_size": 4,
    "steps": 3, "ablate_steps": 2, "probe_steps": 3,
}


def build_config(workload: str, seed: int, tiny: bool = False):
    """The RunConfig a workload runs at ``seed``."""
    from dataclasses import replace

    from crossdoc.config import apply_preset

    spec = WORKLOADS[workload]
    fields = dict(spec["fields"])
    if tiny:
        fields.update(TINY_FIELDS)
    return replace(
        apply_preset(spec["preset"]),
        seed=seed, corpus_seed=seed, ablate_seeds=(seed,),
        log_every=1, checkpoint_every=NO_CADENCE_CHECKPOINTS,
        **fields,
    )


def steps_per_call(cfg, workload: str) -> int:
    """Training steps in each pretrain call the workload makes."""
    return cfg.steps if WORKLOADS[workload]["call"] == "pretrain" else cfg.ablate_steps
