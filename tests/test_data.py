"""Synthetic corpus tests: determinism, splits, batching, container format."""

import hashlib
import struct
from dataclasses import fields

import numpy as np
import pytest

from crossdoc import cli, data
from crossdoc.config import RunConfig
from crossdoc.encoders import CLS_ID, NUM_RESERVED_IDS, PAD_ID, SEP_ID, DocumentLayout
from crossdoc.errors import ConfigError, ContractError, FormatError

from run_settings import corpus_spec


def tiny_spec(vocab_size=32, **settings):
    layout = DocumentLayout(image_size=8, channels=1, patch_size=4, vocab_size=vocab_size)
    settings = {"classes": 3, "samples_per_class": 20, "corpus_seed": 7, **settings}
    return corpus_spec(layout, **settings)


def header_offset(name=None) -> int:
    """Byte offset of the corpus header field ``name``, after the magic and
    the u16 version; with no ``name``, of the first byte after the header."""
    names = [field for field, _ in data.SPEC_HEADER]
    before = data.SPEC_HEADER[:names.index(name)] if name else data.SPEC_HEADER
    return len(data.MAGIC) + struct.calcsize("<H" + "".join(code for _, code in before))


class TestSpec:
    def test_vocab_too_small_for_blocks(self):
        with pytest.raises(ConfigError):
            tiny_spec(classes=30, vocab_size=32)

    def test_noise_bounds(self):
        with pytest.raises(ConfigError):
            tiny_spec(pixel_noise=1.5)
        with pytest.raises(ConfigError):
            tiny_spec(token_corruption=-0.1)

    def test_token_blocks_disjoint(self):
        spec = tiny_spec()
        ranges = [spec.class_token_range(k) for k in range(spec.classes)]
        for i, (lo_i, hi_i) in enumerate(ranges):
            assert lo_i >= NUM_RESERVED_IDS
            assert hi_i <= spec.layout.vocab_size
            for lo_j, _ in ranges[i + 1:]:
                assert hi_i <= lo_j

    def test_templates_pairwise_distinct(self):
        t = tiny_spec().class_templates()
        flat = t.reshape(t.shape[0], -1)
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                assert np.max(np.abs(flat[i] - flat[j])) > 1e-6


class TestGenerate:
    def test_split_sizes_and_balance(self):
        """4 classes x 100 samples split 80/20 per class."""
        splits = data.generate_corpus(RunConfig().corpus_spec())
        assert (len(splits.train), len(splits.test)) == (320, 80)
        for part, per_class in ((splits.train, 80), (splits.test, 20)):
            assert np.bincount(part["label"], minlength=4).tolist() == [per_class] * 4

    def test_test_records_follow_train_records_in_generation_order(self):
        """Each class's records are drawn in turn: its first 80% are train,
        the rest test, both in draw order.  Class 0 is drawn first, so its
        records are a prefix of class 0 in a corpus with more per class."""
        spec = tiny_spec()
        splits = data.generate_corpus(spec)
        n_train = data.train_per_class(spec.samples_per_class)
        n_test = spec.samples_per_class - n_train
        labels = np.arange(spec.classes)
        assert splits.train["label"].tolist() == np.repeat(labels, n_train).tolist()
        assert splits.test["label"].tolist() == np.repeat(labels, n_test).tolist()
        longer = data.generate_corpus(tiny_spec(samples_per_class=spec.samples_per_class + 5))
        drawn = np.concatenate([longer.train, longer.test])
        drawn = drawn[drawn["label"] == 0][:spec.samples_per_class]
        class_0 = np.concatenate([splits.train[:n_train], splits.test[:n_test]])
        np.testing.assert_array_equal(drawn, class_0)

    def test_splits_disjoint_and_exhaustive(self):
        spec = tiny_spec()
        splits = data.generate_corpus(spec)
        total = np.concatenate([splits.train, splits.test])
        assert len(total) == spec.classes * spec.samples_per_class
        fingerprints = {r.tobytes() for r in total}
        assert len(fingerprints) == len(total)

    def test_noiseless_spec_is_degenerate(self):
        """Zero noise: same-class images identical, tokens all from the block."""
        spec = tiny_spec(pixel_noise=0.0, token_corruption=0.0)
        splits = data.generate_corpus(spec)
        by_class = {}
        for r in np.concatenate([splits.train, splits.test]):
            by_class.setdefault(int(r["label"]), []).append(r)
        for label, records in by_class.items():
            first = records[0]["image"]
            for r in records[1:]:
                np.testing.assert_array_equal(r["image"], first)
            lo, hi = spec.class_token_range(label)
            for r in records:
                content = r["ids"][1:][r["ids"][1:] >= NUM_RESERVED_IDS]
                assert np.all((content >= lo) & (content < hi))

    def test_deterministic_given_seed(self, tmp_path):
        spec = tiny_spec()
        a, b = data.generate_corpus(spec), data.generate_corpus(spec)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        data.write_corpus(pa, spec, a)
        data.write_corpus(pb, spec, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_token_sequences_well_formed(self):
        """[CLS], content ids, [SEP], then only [PAD] up to the row count."""
        splits = data.generate_corpus(tiny_spec())
        for r in np.concatenate([splits.train, splits.test]):
            ids = r["ids"]
            assert len(ids) == 5  # 8x8 / 4x4 patches + CLS
            assert ids[0] == CLS_ID
            (sep,) = np.flatnonzero(ids == SEP_ID)
            assert np.all(ids[1:sep] >= NUM_RESERVED_IDS)
            assert np.all(ids[sep + 1:] == PAD_ID)

    def test_modality_signals_beat_chance(self):
        """Nearest-template and token-histogram classifiers clear 1/K easily."""
        spec = RunConfig().corpus_spec()
        splits = data.generate_corpus(spec)
        patch = spec.layout.patch_size
        full = np.kron(spec.class_templates(), np.ones((patch, patch, 1)))
        img_hits = tok_hits = 0
        for r in splits.test:
            dist = ((full - r["image"][None].astype(float)) ** 2).sum(axis=(1, 2, 3))
            img_hits += int(np.argmin(dist) == r["label"])
            content = r["ids"][r["ids"] >= NUM_RESERVED_IDS]
            scores = [
                int(((content >= lo) & (content < hi)).sum())
                for lo, hi in (spec.class_token_range(k) for k in range(spec.classes))
            ]
            tok_hits += int(np.argmax(scores) == r["label"])
        n = len(splits.test)
        assert img_hits / n > 1.0 / spec.classes
        assert tok_hits / n > 1.0 / spec.classes


class TestMakeBatch:
    def test_balanced_case(self):
        """Batch of 8 over 4 classes: exactly two records per class."""
        splits = data.generate_corpus(RunConfig(samples_per_class=10).corpus_spec())
        batch = data.make_batch(splits.train, 8, np.random.default_rng(0))
        counts = np.bincount(batch["label"], minlength=4)
        assert sorted(counts.tolist()) == [2, 2, 2, 2]

    def test_every_anchor_has_a_positive(self):
        splits = data.generate_corpus(tiny_spec())
        for seed in range(5):
            batch = data.make_batch(splits.train, 10, np.random.default_rng(seed))
            labels = batch["label"]
            assert len(batch) == 10
            for y in labels:
                assert (labels == y).sum() >= 2

    def test_one_class_is_a_contract_error(self):
        """``load_corpus`` refuses such a train split before any batch."""
        splits = data.generate_corpus(tiny_spec())
        one_class = splits.train[splits.train["label"] == 0]
        with pytest.raises(ContractError, match="two distinct classes"):
            data.make_batch(one_class, 8, np.random.default_rng(0))

    def test_reproducible_under_fixed_seed(self):
        splits = data.generate_corpus(tiny_spec())
        a = data.make_batch(splits.train, 8, np.random.default_rng(3))
        b = data.make_batch(splits.train, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_collate_shapes(self):
        spec = tiny_spec()
        splits = data.generate_corpus(spec)
        batch = data.make_batch(splits.train, 6, np.random.default_rng(1))
        images, ids, labels = data.collate(batch)
        assert images.shape == (6, 8, 8, 1) and images.dtype == np.float32
        assert ids.shape == (6, spec.layout.rows)
        assert labels.shape == (6,)


class TestContainer:
    def test_round_trip_identity(self, tmp_path):
        spec = tiny_spec()
        splits = data.generate_corpus(spec)
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, splits)
        spec2, splits2 = data.read_corpus(path)
        assert spec2 == spec
        for part, part2 in ((splits.train, splits2.train), (splits.test, splits2.test)):
            np.testing.assert_array_equal(part, part2)

    def test_header_stores_every_spec_and_layout_field_once(self):
        """A field added to ``DocumentLayout`` or ``SyntheticCorpusSpec``
        without a ``SPEC_HEADER`` entry would not survive a round trip."""
        names = [name for name, _ in data.SPEC_HEADER]
        expected = [f.name for f in fields(DocumentLayout)]
        expected += [f.name for f in fields(data.SyntheticCorpusSpec) if f.name != "layout"]
        assert sorted(names) == sorted(expected)

    def test_gen_corpus_bytes_are_pinned(self, tmp_path):
        """The desk corpus ``gen-corpus`` writes, by sha256: a writer that
        turns zero bytes into holes leaves every byte as it was."""
        assert cli.main(["gen-corpus", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "corpus.bin").read_bytes()).hexdigest()
        assert digest == "7aa2219a0c798eec1750638fe3d319cfab2b894e10e7df15e71b4547a25de648"

    def test_write_read_write_is_stable(self, tmp_path):
        spec = tiny_spec()
        splits = data.generate_corpus(spec)
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        data.write_corpus(p1, spec, splits)
        data.write_corpus(p2, *data.read_corpus(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_splits_are_stored_as_their_record_bytes(self, tmp_path):
        """``record_dtype`` is the on-disk record (1094 bytes at desk): each
        split is its u32 count, then the record array's own bytes."""
        spec = RunConfig(samples_per_class=10).corpus_spec()
        assert data.record_dtype(spec.layout).itemsize == 1094
        splits = data.generate_corpus(spec)
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, splits)
        raw = path.read_bytes()
        offset = header_offset()
        for part in (splits.train, splits.test):
            assert int.from_bytes(raw[offset:offset + 4], "little") == len(part)
            assert raw[offset + 4:offset + 4 + part.nbytes] == part.tobytes()
            offset += 4 + part.nbytes
        assert offset == len(raw)

    def test_corrupt_magic_rejected(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, data.generate_corpus(spec))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("Y")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            data.read_corpus(path)

    def test_unsupported_version_rejected(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, data.generate_corpus(spec))
        raw = bytearray(path.read_bytes())
        at = len(data.MAGIC)
        # 2: the format with a val split; 1: with a separate image width
        for version in (99, 2, 1):
            raw[at:at + 2] = version.to_bytes(2, "little")
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError,
                               match=rf"version {version} at byte {at} \(expected 3\)"):
                data.read_corpus(path)

    def test_truncation_reports_byte_offset(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, data.generate_corpus(spec))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError, match=r"byte \d+"):
            data.read_corpus(path)

    def test_failed_write_keeps_previous_corpus(self, tmp_path, disk_full_beyond):
        """A write the disk refuses part-way through the records leaves the
        existing file whole and no temporary behind."""
        spec = tiny_spec()
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, data.generate_corpus(spec))
        before = path.read_bytes()
        other = tiny_spec(corpus_seed=8)
        splits = data.generate_corpus(other)
        disk_full_beyond(len(before) // 2)
        with pytest.raises(OSError):
            data.write_corpus(path, other, splits)
        assert not path.with_name("corpus.bin.tmp").exists()
        assert path.read_bytes() == before
        assert data.read_corpus(path)[0] == spec

    @pytest.mark.parametrize("name, value", [
        ("patch_size", 3),  # patch 3 does not divide the 8x8 image
        ("classes", 1),
        ("channels", 0),
    ])
    def test_invalid_spec_is_a_format_error(self, tmp_path, name, value):
        spec = tiny_spec()
        path = tmp_path / "corpus.bin"
        data.write_corpus(path, spec, data.generate_corpus(spec))
        raw = bytearray(path.read_bytes())
        field, at = struct.pack("<" + dict(data.SPEC_HEADER)[name], value), header_offset(name)
        raw[at:at + len(field)] = field
        path.write_bytes(bytes(raw))
        spec_offset = len(data.MAGIC) + 2  # after the u16 version
        with pytest.raises(FormatError, match=f"invalid corpus spec at byte {spec_offset}"):
            data.read_corpus(path)
