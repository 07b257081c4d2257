"""Loss tests: closed forms, frozen oracle fixtures, invariances, gradients."""

import math

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc import losses
from crossdoc.autodiff import Tensor
from crossdoc.config import RunConfig
from crossdoc.errors import ConfigError, ContractError, DataError, ShapeError
from crossdoc.nn import l2_normalize

from oracles import (
    scalar_contrastive_term,
    scalar_cross_entropy,
    scalar_cross_modal_loss,
)
from run_settings import contrastive_loss


def planar(degrees):
    """Unit vectors in the plane at the given angles."""
    r = np.deg2rad(np.asarray(degrees, dtype=float))
    return np.stack([np.cos(r), np.sin(r)], axis=1)


RUN = RunConfig()

FIXTURE_ANGLES = [0.0, 10.0, 90.0, 100.0]
FIXTURE_LABELS = np.array([0, 0, 1, 1])

# Frozen outputs of the double-loop oracle in oracles.py for the fixtures
# below (temperature 0.1, inter weight 0.5).
INTRA_FIXTURE_VALUE = 0.0008299632542118933
INTER_FIXTURE_VALUE = 0.049920506282826654
CROSS_FIXTURE = {
    "vision_intra": 0.0008299632542118933,
    "text_intra": 0.0008299632542118933,
    "text_to_vision": 0.0012978456472396238,
    "vision_to_text": 0.001297845647239624,
    "total": 0.0029577721556634106,
}
CE_FIXTURE_VALUE = 1.0469701199028976


def random_unit(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def term(anchors, others, labels, temperature=RUN.temperature):
    """The contrastive term of ``anchors`` scored against ``others``."""
    weights = losses.positive_weights(np.asarray(labels))
    return losses.contrastive_term(Tensor(anchors), Tensor(others), weights, temperature)


def make_batch(rng, n=6, d=4, k=3):
    """Random unit-norm (vision, text) embeddings and their labels."""
    x = random_unit(rng, n, d)
    t = random_unit(rng, n, d)
    y = rng.integers(0, k, size=n)
    return Tensor(x), Tensor(t), y


def values(terms):
    """A loss record's terms as floats."""
    return {name: term.item() for name, term in terms.items()}


class TestIntraTerm:
    def test_identical_one_class_batch_is_4_ln3(self):
        """Four identical same-class embeddings: each log-ratio is -ln 3."""
        emb = np.tile([1.0, 0.0], (4, 1))
        value = term(emb, emb, [7, 7, 7, 7]).item()
        assert abs(value - 4.0 * math.log(3.0)) < 1e-9

    def test_no_positives_contribute_zero(self):
        emb = planar([0.0, 90.0])
        assert term(emb, emb, [0, 1]).item() == 0.0

    def test_planar_fixture_matches_frozen_oracle_value(self):
        emb = planar(FIXTURE_ANGLES)
        value = term(emb, emb, FIXTURE_LABELS).item()
        assert abs(value - INTRA_FIXTURE_VALUE) < 1e-12


class TestInterTerm:
    def test_constant_similarity_forces_n_log_nminus1(self):
        """Identical anchors vs identical others at any angle: N * ln(N-1)."""
        anchors = np.tile(planar([0.0])[0], (4, 1))
        others = np.tile(planar([40.0])[0], (4, 1))
        value = term(anchors, others, [3, 3, 3, 3]).item()
        assert abs(value - 4.0 * math.log(3.0)) < 1e-9

    def test_no_positives_contribute_zero(self):
        anchors, others = planar([0.0, 90.0]), planar([45.0, 135.0])
        assert term(anchors, others, [0, 1]).item() == 0.0

    def test_fixture_matches_frozen_oracle_value(self):
        anchors = planar(FIXTURE_ANGLES)
        others = planar([20.0, 30.0, 70.0, 120.0])
        value = term(anchors, others, FIXTURE_LABELS).item()
        assert abs(value - INTER_FIXTURE_VALUE) < 1e-12

    def test_own_pair_excluded_by_default(self):
        """With N=2 and one class, each anchor's only candidate is its
        non-pair, so the ratio is exactly 1 and the term collapses to zero."""
        rng = np.random.default_rng(42)
        anchors, others = random_unit(rng, 2, 3), random_unit(rng, 2, 3)
        assert term(anchors, others, [5, 5]).item() == 0.0


class TestEmbeddingBatch:
    """The paired embeddings and labels ``cross_modal_contrastive_loss``
    refuses."""

    def test_rejects_non_unit_norm(self):
        rng = np.random.default_rng(0)
        x = random_unit(rng, 4, 3)
        bad = x * 1.001
        with pytest.raises(ContractError, match="vision embeddings are not unit-norm"):
            contrastive_loss(Tensor(bad), Tensor(x), [0, 0, 1, 1])

    def test_rejects_tiny_batch(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor(planar([0.0])), Tensor(planar([0.0])), [0])

    def test_rejects_unpaired_shapes(self):
        x = planar([0.0, 10.0, 90.0])
        with pytest.raises(ShapeError, match="matching"):
            contrastive_loss(Tensor(x), Tensor(x[:2]), [0, 0, 1])

    def test_rejects_a_label_count_other_than_n(self):
        x = planar([0.0, 10.0, 90.0])
        with pytest.raises(ShapeError, match="labels shape"):
            contrastive_loss(Tensor(x), Tensor(x), [0, 0])


# The terms and the loss take the temperature as given; a run's temperature
# reaches the loss only through ``RunConfig``, which checks it.
TEMPERATURE_ENTRY_POINTS = {
    "cross_modal_contrastive_loss": lambda x, t: contrastive_loss(x, x, [0, 0], temperature=t),
}


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("entry", TEMPERATURE_ENTRY_POINTS)
def test_non_positive_temperature_is_a_config_error(entry, temperature):
    with pytest.raises(ConfigError, match="temperature must be finite and positive"):
        TEMPERATURE_ENTRY_POINTS[entry](Tensor(planar([0.0, 10.0])), temperature)


class TestCrossModalLoss:
    def test_zero_inter_weight_reduces_to_intra_sums(self):
        rng = np.random.default_rng(1)
        vision, text, y = make_batch(rng)
        report = contrastive_loss(vision, text, y, inter_weight=0.0)
        vv = term(vision.data, vision.data, y).item()
        ll = term(text.data, text.data, y).item()
        assert report["total"].item() == (vv + ll)
        # the inter terms are not computed, and not reported
        assert list(report) == ["total", "vision_intra", "text_intra"]

    def test_modality_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        vision, text, y = make_batch(rng)
        a = contrastive_loss(vision, text, y)
        b = contrastive_loss(text, vision, y)
        assert list(a) == ["total", "vision_intra", "text_to_vision", "text_intra", "vision_to_text"]
        assert a["total"].item() == b["total"].item()
        assert a["vision_intra"].item() == b["text_intra"].item()
        assert a["text_to_vision"].item() == b["vision_to_text"].item()

    def test_default_fixture_matches_frozen_oracle_values(self):
        """tau=0.1, inter weight 0.5 on the planar fixture."""
        assert RUN.temperature == 0.1 and RUN.inter_weight == 0.5
        got = values(contrastive_loss(
            Tensor(planar(FIXTURE_ANGLES)),
            Tensor(planar([5.0, 15.0, 95.0, 105.0])),
            FIXTURE_LABELS,
        ))
        for key, expected in CROSS_FIXTURE.items():
            assert abs(got[key] - expected) < 1e-12, key

    def test_all_components_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            batch = make_batch(rng, n=n, d=int(rng.integers(2, 6)), k=int(rng.integers(2, 5)))
            for key, value in values(contrastive_loss(*batch)).items():
                assert value >= 0.0, key

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vision, text, y = make_batch(rng, n=7)
        perm = rng.permutation(7)
        a = values(contrastive_loss(vision, text, y))
        b = values(contrastive_loss(Tensor(vision.data[perm]), Tensor(text.data[perm]), y[perm]))
        for key in a:
            assert abs(a[key] - b[key]) <= 1e-9, key

    def test_prenormalization_scale_invariance(self):
        """Scaling raw embeddings by c > 0 is absorbed by the normalization."""
        rng = np.random.default_rng(5)
        raw_x = rng.normal(size=(6, 4))
        raw_t = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        vals = []
        for c in (1.0, 3.0, 0.01):
            loss = contrastive_loss(
                l2_normalize(Tensor(raw_x * c)), l2_normalize(Tensor(raw_t * c)), y)
            vals.append(loss["total"].item())
        assert abs(vals[0] - vals[1]) <= 1e-9
        assert abs(vals[0] - vals[2]) <= 1e-9

    def test_oracle_equivalence_on_random_batches(self):
        """Vectorized path == scalar double-loop oracle within 1e-10."""
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 5))
            x = random_unit(rng, n, 3)
            t = random_unit(rng, n, 3)
            y = rng.integers(0, k, size=n)
            got = values(contrastive_loss(Tensor(x), Tensor(t), y))
            expected = scalar_cross_modal_loss(x, t, y, RUN.temperature, RUN.inter_weight)
            for key in expected:
                assert abs(got[key] - expected[key]) < 1e-10, key

    def test_gradient_matches_finite_differences(self):
        """d(loss)/d(raw embeddings), with normalization inside the graph."""
        rng = np.random.default_rng(7)
        raw_t = Tensor(rng.normal(size=(5, 3)))
        y = rng.integers(0, 2, size=5)

        def f(raw_x):
            return contrastive_loss(l2_normalize(raw_x), l2_normalize(raw_t), y)["total"]

        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        assert ad.finite_diff_check(f, x) < 1e-4


class TestSupervisedContrastiveBaseline:
    def test_zero_for_all_distinct_classes(self):
        x = random_unit(np.random.default_rng(10), 4, 3)
        assert term(x, x, [0, 1, 2, 3]).item() == 0.0

    def test_fixture_vs_oracle(self):
        rng = np.random.default_rng(11)
        x = random_unit(rng, 6, 3)
        y = rng.integers(0, 2, size=6)
        got = term(x, x, y).item()
        assert abs(got - scalar_contrastive_term(x, x, y, RUN.temperature)) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 2, size=4)
        weights = losses.positive_weights(y)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f(t):
            e = l2_normalize(t)
            return losses.contrastive_term(e, e, weights, RUN.temperature)

        assert ad.finite_diff_check(f, x) < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        assert abs(losses.cross_entropy(logits, [0, 1, 3]).item() - math.log(4.0)) < 1e-12

    def test_confident_correct_prediction(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 1000.0
        logits[1, 2] = 1000.0
        assert losses.cross_entropy(Tensor(logits), [1, 2]).item() < 1e-12

    def test_fixture_matches_frozen_oracle_value(self):
        rng = np.random.default_rng(123)
        logits = rng.normal(size=(5, 4)) * 2.0
        labels = rng.integers(0, 4, size=5)
        got = losses.cross_entropy(Tensor(logits), labels).item()
        assert abs(got - CE_FIXTURE_VALUE) < 1e-12
        assert abs(got - scalar_cross_entropy(logits, labels)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            losses.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_needs_two_classes(self):
        with pytest.raises(ContractError):
            losses.cross_entropy(Tensor(np.zeros((2, 1))), [0, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("upstream", [1.0, -2.5])
    def test_one_node_with_the_value_and_gradient_of_the_op_chain(self, dtype, upstream):
        """``cross_entropy`` is one node, whose value and gradient are those
        of the logsumexp, product, sum and scale chain, bit for bit."""
        rng = np.random.default_rng(7)
        logits = (rng.normal(size=(6, 4)) * 3.0).astype(dtype)
        labels = rng.integers(0, 4, size=6)
        fused_x, chain_x = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        fused = losses.cross_entropy(fused_x, labels)
        assert fused._parents == (fused_x,)
        true_logit = ad.tensor_sum(ad.mul(chain_x, Tensor(np.eye(4, dtype=dtype)[labels])), axis=-1)
        chain = ad.scale(ad.tensor_sum(ad.sub(ad.logsumexp_last(chain_x), true_logit)), 1.0 / 6)
        assert fused.data.dtype == chain.data.dtype == dtype
        assert fused.data.tobytes() == chain.data.tobytes()
        ad.backward(ad.scale(fused, upstream))
        ad.backward(ad.scale(chain, upstream))
        assert fused_x.grad.dtype == dtype
        assert fused_x.grad.tobytes() == chain_x.grad.tobytes()

    def test_gradient(self):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 3, size=4)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert ad.finite_diff_check(lambda t: losses.cross_entropy(t, labels), x) < 1e-4
