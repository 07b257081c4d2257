"""Run configuration: validation and the flat text format."""

import ast
import inspect
import re
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import crossdoc
from crossdoc.config import RunConfig, apply_preset, format_config, parse_config
from crossdoc.cross_modal import CrossModalStack
from crossdoc.data import SPEC_HEADER, SyntheticCorpusSpec
from crossdoc.errors import ConfigError
from crossdoc.losses import cross_modal_contrastive_loss
from crossdoc.model import CrossModalModel
from crossdoc.nn import FeedForwardParams, MHAParams
from crossdoc.optim import AdamW

# One value per RunConfig field, each different from the field's default.
OFF_DEFAULT = dict(
    feature_dim=48, num_heads=3, depth=3, hidden_dim=40, embed_dim=12, dtype="float32",
    temperature=0.07, inter_weight=0.25, loss_mode="scl",
    use_cross=False, use_gate=False, corpus_path="corpora/one doc.bin",
    classes=5, samples_per_class=30, image_size=8, channels=3, patch_size=2,
    vocab_size=40, pixel_noise=0.2, token_corruption=0.3, corpus_seed=7,
    steps=12, batch_size=6, base_lr=1.5e-4, warmup_frac=0.2, weight_decay=0.0,
    beta1=0.8, beta2=0.99, adam_eps=1e-6, seed=11, log_every=3,
    checkpoint_every=5, probe_steps=7, probe_lr=0.1, ablate_seeds=(4, 2),
    ablate_steps=4,
)


def test_off_default_values_cover_every_field():
    defaults = RunConfig()
    assert OFF_DEFAULT.keys() == {f.name for f in fields(RunConfig)}
    for name, value in OFF_DEFAULT.items():
        assert value != getattr(defaults, name), name


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(**OFF_DEFAULT)],
                         ids=["defaults", "off_default"])
def test_format_parse_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("key, value", [
    ("num_heads", 0), ("depth", 0), ("hidden_dim", 0), ("embed_dim", 1), ("temperature", 0.0),
    ("temperature", float("nan")), ("inter_weight", -0.1), ("inter_weight", float("nan")),
])
def test_model_and_loss_fields_validated(key, value):
    with pytest.raises(ConfigError, match=f"{key} must"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("settings, message", [
    (dict(feature_dim=6, num_heads=4), "feature_dim 6 not divisible by 4 heads"),
    (dict(batch_size=2), "batch_size must be even and >= 4, got 2"),
], ids=["heads_6_by_4", "batch_size_2"])
def test_head_width_and_batch_size_validated(settings, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**settings)


@pytest.mark.parametrize("key, value", [
    ("beta1", -0.1), ("beta1", 1.0), ("beta1", float("nan")),
    ("beta2", 1.0), ("beta2", float("nan")),
    ("adam_eps", 0.0), ("adam_eps", float("nan")),
    ("weight_decay", -0.01), ("weight_decay", float("nan")),
])
def test_optimizer_fields_validated(key, value):
    with pytest.raises(ConfigError, match=f"{key} must"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("probe_steps", 0), ("probe_steps", -3), ("ablate_seeds", ()), ("ablate_seeds", (1, 2, 1)),
    ("ablate_steps", -1),
])
def test_ablation_fields_validated(key, value):
    with pytest.raises(ConfigError, match=f"{key} must"):
        RunConfig(**{key: value})


def test_ablation_field_boundaries_accepted():
    RunConfig(probe_steps=1, ablate_seeds=(7,), ablate_steps=0)


@pytest.mark.parametrize("dtype", ["float16", "f32", "Float32", ""])
def test_unknown_dtype_rejected(dtype):
    with pytest.raises(ConfigError, match="dtype must be one of"):
        RunConfig(dtype=dtype)


def test_presets_pick_their_dtype():
    assert apply_preset("desk").dtype == "float64"
    assert apply_preset("paper").dtype == "float32"


def test_paper_preset_carries_the_reference_hyperparameters():
    """100 epochs of the 320 training records at batch 64 is 500 steps."""
    cfg = apply_preset("paper")
    assert (cfg.steps, cfg.batch_size, cfg.base_lr) == (500, 64, 2e-5)
    assert (cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim) == (768, 768, 384)


def test_optimizer_field_boundaries_accepted():
    RunConfig(beta1=0.0, beta2=0.0, weight_decay=0.0)


@pytest.mark.parametrize("batch_size", [5, 7])
def test_odd_batch_size_rejected(batch_size):
    with pytest.raises(ConfigError, match="even"):
        RunConfig(batch_size=batch_size)


@pytest.mark.parametrize(
    "corpus_path",
    ["data/run#2/corpus.bin", "data/a\nb.bin", "data/a\rb.bin", " data/x.bin", "data/x.bin\t"],
    ids=["hash", "newline", "carriage_return", "leading_space", "trailing_tab"])
def test_corpus_path_the_text_format_cannot_carry_rejected(corpus_path):
    with pytest.raises(ConfigError, match="corpus_path"):
        RunConfig(corpus_path=corpus_path)


# Rules that a corpus header read from a file needs too live in
# DocumentLayout and SyntheticCorpusSpec; RunConfig applies them by building
# those types, so a config file gets the owner's message.
OWNED_RULES = {
    "image_15": ("image_size = 15", "image 15x15 not divisible by patch 4"),
    "image_-8": ("image_size = -8", "image_size must lie in [0, 65535], a u16 in the corpus header"),
    "channels_0": ("channels = 0", "channels must be >= 1, got 0"),
    "two_rows": ("image_size = 8\npatch_size = 8", "layout has 2 rows, which leaves no room"),
    "classes_1": ("classes = 1", "corpus needs at least two classes"),
    "classes_65536": ("classes = 65536", "classes must lie in [0, 65535], a u16 in the corpus header"),
    "samples_5": ("samples_per_class = 5", "need >= 10 samples per class"),
    "pixel_noise_1.5": ("pixel_noise = 1.5", "noise levels must lie in [0, 1]"),
    "vocab_6": ("vocab_size = 6", "vocab of 6 cannot hold 4 disjoint token blocks"),
    "corpus_seed_2**64": (f"corpus_seed = {2**64}",
                          f"corpus_seed must lie in [0, {2**64 - 1}], a u64"),
}


@pytest.mark.parametrize("case", OWNED_RULES)
def test_layout_and_corpus_rules_apply_to_the_config(case):
    text, message = OWNED_RULES[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(**OFF_DEFAULT)],
                         ids=["defaults", "off_default"])
def test_corpus_header_fields_are_config_keys(cfg):
    """A layout or corpus setting has one name, from the config file to the
    corpus header, and the spec a config builds stores each key's value."""
    names = [name for name, _ in SPEC_HEADER]
    assert set(names) <= {f.name for f in fields(RunConfig)}
    assert cfg.corpus_spec().header_values() == {name: getattr(cfg, name) for name in names}


def test_key_given_twice_rejected_naming_both_lines():
    with pytest.raises(ConfigError, match="line 3: config key 'steps' already set on line 1"):
        parse_config("steps = 2\n# the same key again\nsteps = 3\n")


def test_value_boundaries_accepted():
    RunConfig(feature_dim=2, num_heads=1, seed=0, corpus_seed=0, ablate_seeds=(0,),
              inter_weight=0.0, weight_decay=0.0)


# The library constructors and functions the program passes RunConfig values to.  Each
# parameter is a run setting, whose one default is RunConfig's, or an input
# with no default at all.
SETTING_CONSTRUCTORS = {
    "SyntheticCorpusSpec": SyntheticCorpusSpec,
    "AdamW": AdamW,
    "CrossModalStack.create": CrossModalStack.create,
    "cross_modal_contrastive_loss": cross_modal_contrastive_loss,
    "FeedForwardParams.create": FeedForwardParams.create,
}


@pytest.mark.parametrize("name", SETTING_CONSTRUCTORS)
def test_run_settings_have_their_default_in_run_config_only(name):
    parameters = inspect.signature(SETTING_CONSTRUCTORS[name]).parameters.values()
    assert [p.name for p in parameters if p.default is not p.empty] == []


def scopes_where(path: Path, matches) -> list[str]:
    """The qualified name of the class and function around each node of the
    source file ``path`` that ``matches`` ("" at module level)."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                scopes.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return scopes


def config_error_scopes(path: Path) -> list[str]:
    """The scope of each ``raise`` of a ``ConfigError`` in ``path``."""
    return scopes_where(path, lambda node: isinstance(node, ast.Raise) and node.exc is not None and any(
        isinstance(n, ast.Name) and n.id == "ConfigError" for n in ast.walk(node.exc)))


def is_generator_call(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("default_rng")


def is_seed_read(node) -> bool:
    """An attribute ``.seed`` loaded; a ``seed=`` keyword is no read."""
    return isinstance(node, ast.Attribute) and node.attr == "seed" and isinstance(node.ctx, ast.Load)


# Library code that takes run settings RunConfig has already checked.
CHECKED_BY_RUN_CONFIG = {
    "AdamW.__init__": AdamW.__init__,
    "cross_modal_contrastive_loss": cross_modal_contrastive_loss,
    "MHAParams.create": MHAParams.create,
    "CrossModalStack": CrossModalStack,
}


@pytest.mark.parametrize("name", CHECKED_BY_RUN_CONFIG)
def test_run_settings_are_checked_in_run_config_only(name):
    tree = ast.parse(textwrap.dedent(inspect.getsource(CHECKED_BY_RUN_CONFIG[name])))
    raised = {ident.id for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
              for ident in ast.walk(node.exc) if isinstance(ident, ast.Name)}
    assert "ConfigError" not in raised


def test_config_errors_are_raised_by_config_and_corpus_header_only():
    """A rule on a run setting is a ``ConfigError`` from ``config.py``, or
    from the two types a corpus header read from a file needs as well; the
    rest of the library takes every setting as given."""
    src = Path(crossdoc.__file__).parent
    assert config_error_scopes(src / "config.py")
    raised = {f"{path.name}:{scope}" for path in sorted(src.glob("*.py")) if path.name != "config.py"
              for scope in config_error_scopes(path)}
    assert raised <= {"encoders.py:DocumentLayout.__post_init__",
                      "data.py:SyntheticCorpusSpec.__post_init__"}


def test_run_seed_is_read_by_the_model_draw_and_the_batch_order_only():
    """A generator or a seed read anywhere else would make a result, such
    as a probe's, depend on more than the checkpoint and the settings it
    names.  The corpus (``data.py``, from ``corpus_seed``) and the audit
    draw from their own generators; the run seed reaches
    ``CrossModalModel.create`` and ``pretrain``'s batch order, through
    ``resolve_config``'s ``--seed``."""
    src = Path(crossdoc.__file__).parent
    draws = {f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
             if path.name not in ("data.py", "gradcheck.py")
             for scope in scopes_where(path, is_generator_call)}
    reads = {f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
             for scope in scopes_where(path, is_seed_read)}
    assert "train.py:pretrain" in draws and "cli.py:resolve_config" in reads
    seeded = {"model.py:CrossModalModel.create", "train.py:pretrain"}
    assert (draws - seeded, reads - seeded - {"cli.py:resolve_config"}) == (set(), set())


def test_model_seed_comes_from_the_config():
    """``create`` takes no seed; ``draw`` only chooses between drawing and
    leaving the values for ``load_arrays`` to write."""
    assert list(inspect.signature(CrossModalModel.create).parameters) == ["cfg", "draw"]
