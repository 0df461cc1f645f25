import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import data_io
from marginfit.data_io import (
    SPLIT_GALLERY,
    SPLIT_QUERY,
    SPLIT_TRAIN,
    EvalSplit,
    FeatureBundle,
    load_bundle,
    load_class_ids,
    load_labels,
    load_matrix,
    save_class_ids,
    save_labels,
    save_matrix,
    validate_bundle,
)
from marginfit.errors import (
    DimMismatch,
    EmptyGallery,
    FormatError,
    InvariantViolation,
    LabelOutOfRange,
    NonFiniteData,
)
from marginfit.losses import ProxyBank
from marginfit.margins import ClassTextEmbeddings, MarginMatrix


class TestMatrixContainer:
    def test_file_size(self, tmp_path):
        path = tmp_path / "m.emb"
        save_matrix(np.zeros((2, 3), np.float32), path)
        assert path.stat().st_size == 12 + 24

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 4)).astype(np.float32)
        path = tmp_path / "m.emb"
        save_matrix(m, path)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 3)).astype(np.float32)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_matrix(m, p1)
        save_matrix(load_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.5))
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2, 2) + b"\x00" * 7)
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.emb"
        save_matrix(np.zeros((1, 1), np.float32), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_nan_payload(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 1, 1) + struct.pack("<f", float("nan")))
        with pytest.raises(NonFiniteData):
            load_matrix(path)

    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(DimMismatch, match="weights must be 2-D"):
            data_io.as_matrix(np.ones(3, np.float32), "weights")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("cut", [0, 3])
    def test_reads_from_a_pipe(self, tmp_path, cut):
        # a pipe has no size to bound reads by; a short one is still a FormatError
        save_matrix(np.arange(6, dtype=np.float32).reshape(2, 3), tmp_path / "m.emb")
        data = (tmp_path / "m.emb").read_bytes()
        r, w = os.pipe()
        os.write(w, data[: len(data) - cut])
        os.close(w)
        try:
            if cut:
                with pytest.raises(FormatError, match="expected 24 bytes for matrix payload, got 21"):
                    load_matrix(f"/dev/fd/{r}")
            else:
                np.testing.assert_array_equal(load_matrix(f"/dev/fd/{r}"), np.arange(6).reshape(2, 3))
        finally:
            os.close(r)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.emb")

    @settings(max_examples=25, deadline=None)
    @given(
        m=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_round_trip_fuzz(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("fuzz") / "m.emb"
        save_matrix(m, path)
        np.testing.assert_array_equal(load_matrix(path), m)


class TestLabelContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.lbl"
        save_labels([0, 1, 0], 2, path)
        labels, c = load_labels(path)
        np.testing.assert_array_equal(labels, [0, 1, 0])
        assert c == 2

    def test_round_trip_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.lbl", tmp_path / "b.lbl"
        save_labels([3, 1, 4, 1, 5], 6, p1)
        labels, c = load_labels(p1)
        save_labels(labels, c, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_out_of_range_on_load(self, tmp_path):
        path = tmp_path / "l.lbl"
        path.write_bytes(b"LBL1" + struct.pack("<II", 1, 2) + struct.pack("<I", 5))
        with pytest.raises(LabelOutOfRange):
            load_labels(path)

    def test_label_out_of_range_on_save(self, tmp_path):
        with pytest.raises(LabelOutOfRange):
            save_labels([5], 2, tmp_path / "l.lbl")

    def test_empty_payload_with_declared_count(self, tmp_path):
        path = tmp_path / "l.lbl"
        path.write_bytes(b"LBL1" + struct.pack("<II", 1, 2))
        with pytest.raises(FormatError):
            load_labels(path)

    def test_oversized_count_refused_before_reading(self, tmp_path):
        # 2^32 - 1 labels claim 16 GiB; the bound is checked before any read
        path = tmp_path / "l.lbl"
        path.write_bytes(b"LBL1" + struct.pack("<II", 0xFFFFFFFF, 2) + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="expected 17179869180 bytes for label payload, got 4"):
            load_labels(path)


class TestClassIdSidecar:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ids.txt"
        ids = ["shirt", "shoe", "hat"]
        save_class_ids(ids, path)
        assert load_class_ids(path) == ids

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("a\nb\na\n")
        with pytest.raises(InvariantViolation):
            load_class_ids(path)


class TestClassIdRule:
    """One rule for every owner of class ids: default "0".."C-1", C of them, unique."""

    @staticmethod
    def owners():
        eye = np.eye(2, dtype=np.float32)
        return {
            "bundle": lambda ids: FeatureBundle(eye, [0, 1], ids),
            "proxies": lambda ids: ProxyBank(eye, ids),
            "text": lambda ids: ClassTextEmbeddings(eye, ids),
            "margins": lambda ids: MarginMatrix(np.zeros((2, 2), np.float32), ids),
        }

    @pytest.mark.parametrize("owner", ["proxies", "text", "margins"])
    def test_default_ids(self, owner):
        assert self.owners()[owner](None).class_ids == ["0", "1"]

    @pytest.mark.parametrize("owner", ["bundle", "proxies", "text", "margins"])
    def test_duplicates_rejected(self, owner):
        with pytest.raises(InvariantViolation, match="must be unique"):
            self.owners()[owner](["a", "a"])

    @pytest.mark.parametrize("owner", ["proxies", "text", "margins"])
    @pytest.mark.parametrize("ids", [[], ["a"], ["a", "b", "c"]])
    def test_count_must_match(self, owner, ids):
        with pytest.raises(InvariantViolation, match=f"{len(ids)} class ids for 2 classes"):
            self.owners()[owner](ids)

    def test_sidecar_count_must_match_labels(self, tmp_path):
        save_matrix(np.eye(2, dtype=np.float32), tmp_path / "f.emb")
        save_labels([0, 1], 2, tmp_path / "l.lbl")
        save_class_ids(["a", "b", "c"], tmp_path / "ids.txt")
        with pytest.raises(InvariantViolation, match="3 class ids for 2 classes"):
            load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl", SPLIT_TRAIN, tmp_path / "ids.txt")


def make_bundle(counts, split=SPLIT_TRAIN, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i) for i, n in enumerate(counts)])
    feats = rng.standard_normal((labels.size, dim)).astype(np.float32)
    ids = [f"c{i}" for i in range(len(counts))]
    return FeatureBundle(feats, labels, ids, split)


class TestBundle:
    def test_load_bundle_round_trip(self, tmp_path):
        b = make_bundle([3, 4])
        save_matrix(b.features, tmp_path / "f.emb")
        save_labels(b.labels, b.num_classes, tmp_path / "l.lbl")
        save_class_ids(b.class_ids, tmp_path / "ids.txt")
        loaded = load_bundle(
            tmp_path / "f.emb", tmp_path / "l.lbl", SPLIT_TRAIN, tmp_path / "ids.txt"
        )
        np.testing.assert_array_equal(loaded.features, b.features)
        np.testing.assert_array_equal(loaded.labels, b.labels)
        assert loaded.class_ids == b.class_ids

    def test_default_class_ids(self, tmp_path):
        b = make_bundle([2, 2])
        save_matrix(b.features, tmp_path / "f.emb")
        save_labels(b.labels, 2, tmp_path / "l.lbl")
        loaded = load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl")
        assert loaded.class_ids == ["0", "1"]

    def test_empty_gallery_file(self, tmp_path):
        save_matrix(np.zeros((0, 3), np.float32), tmp_path / "f.emb")
        save_labels([], 2, tmp_path / "l.lbl")
        with pytest.raises(EmptyGallery):
            load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl", SPLIT_GALLERY)
        with pytest.raises(InvariantViolation):
            load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl", SPLIT_QUERY)

    def test_clean_bundle_no_warnings(self):
        assert validate_bundle(make_bundle([6, 7]), k=5) == []

    def test_small_class_warns_replacement(self):
        warnings = validate_bundle(make_bundle([3, 8]), k=5)
        assert len(warnings) == 1
        assert "replacement" in warnings[0]

    def test_nan_row_is_hard_error(self):
        b = make_bundle([5, 5])
        b.features[2, 0] = np.nan
        with pytest.raises(NonFiniteData):
            validate_bundle(b)

    def test_zero_row_warns(self):
        b = make_bundle([5, 5])
        b.features[1] = 0.0
        assert any("all zeros" in w for w in validate_bundle(b))

    def test_train_bundle_missing_class(self):
        feats = np.ones((2, 3), np.float32)
        b = FeatureBundle(feats, [0, 0], ["a", "b"], SPLIT_TRAIN)
        with pytest.raises(InvariantViolation):
            validate_bundle(b)

    def test_query_bundle_may_miss_classes(self):
        feats = np.ones((2, 3), np.float32)
        b = FeatureBundle(feats, [0, 0], ["a", "b"], SPLIT_QUERY)
        validate_bundle(b)

    def test_eval_split_namespace_check(self):
        q = make_bundle([2, 2], split=SPLIT_QUERY)
        g = FeatureBundle(q.features, q.labels, ["x", "y"], SPLIT_GALLERY)
        with pytest.raises(InvariantViolation):
            EvalSplit(q, g)
