import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import data_io
from marginfit.data_io import (
    EvalSplit,
    FeatureBundle,
    load_bundle,
    load_class_ids,
    load_labels,
    load_matrix,
    save_class_ids,
    save_labels,
    save_matrix,
)
from marginfit.errors import (
    DimMismatch,
    FormatError,
    InvariantViolation,
    LabelOutOfRange,
    NonFiniteData,
)
from marginfit.losses import KIND_NORM_SOFTMAX, LossConfig, ProxyBank
from marginfit.margins import (
    ClassTextEmbeddings,
    MarginMatrix,
    build_margin_matrix,
    load_margin_matrix,
    save_margin_matrix,
)
from marginfit.trainer import (
    MAGIC_CHECKPOINT,
    Checkpoint,
    TrainConfig,
    init,
    load_checkpoint,
    load_head,
    save_checkpoint,
    train,
)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_not_saved(self, tmp_path, value):
        m = np.zeros((3, 2), np.float32)
        m[2, 1] = value
        with pytest.raises(NonFiniteData, match="^refusing to serialize non-finite matrix$"):
            save_matrix(m, tmp_path / "m.emb")

    def test_save_writes_the_arrays_own_buffer(self, tmp_path):
        # no bytes copy of the payload, no header-plus-payload join, no finiteness mask
        m = np.random.default_rng(0).standard_normal((4000, 128)).astype(np.float32)
        tracemalloc.start()
        try:
            save_matrix(m, tmp_path / "m.emb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10
        data = (tmp_path / "m.emb").read_bytes()
        assert data == b"EMB1" + struct.pack("<II", 4000, 128) + m.astype("<f4").tobytes()

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


class TestBlockReads:
    """Float32 payloads read in blocks of BLOCK_BYTES, set here to a few rows."""

    @staticmethod
    def recorder(calls):
        def map_rows(block):
            calls.append(block.shape)
            return np.asarray(block, np.float64) * 2.0 + 1.0  # rows stay independent

        return map_rows

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 36, 37, 1000])
    def test_multi_block_read_equals_one_shot(self, tmp_path, monkeypatch, block_rows):
        m = np.random.default_rng(0).standard_normal((37, 5)).astype(np.float32)
        save_matrix(m, tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", block_rows * 5 * 4)
        np.testing.assert_array_equal(load_matrix(tmp_path / "m.emb"), m)
        calls = []
        mapped = load_matrix(tmp_path / "m.emb", self.recorder(calls))
        assert mapped.dtype == np.float64  # the map's own dtype
        np.testing.assert_array_equal(mapped, m.astype(np.float64) * 2.0 + 1.0)
        assert sum(rows for rows, _ in calls) == 37 and len(calls) == -(-37 // block_rows)

    def test_last_block_of_one_row(self, tmp_path, monkeypatch):
        m = np.arange(21, dtype=np.float32).reshape(7, 3)
        save_matrix(m, tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 3 * 4)
        calls = []
        mapped = load_matrix(tmp_path / "m.emb", self.recorder(calls))
        assert calls == [(2, 3), (2, 3), (2, 3), (1, 3)]
        np.testing.assert_array_equal(mapped, m * 2 + 1)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_payload_maps_one_empty_block(self, tmp_path, monkeypatch, shape):
        save_matrix(np.zeros(shape, np.float32), tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 4)
        assert load_matrix(tmp_path / "m.emb").shape == shape
        calls = []
        assert load_matrix(tmp_path / "m.emb", self.recorder(calls)).shape == shape
        assert calls == [shape]

    def test_nan_in_a_later_block_names_the_file(self, tmp_path, monkeypatch):
        m = np.ones((9, 4), np.float32)
        m[7, 2] = np.nan
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 9, 4) + m.astype("<f4").tobytes())
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 4 * 4)
        calls = []
        with pytest.raises(NonFiniteData) as info:
            load_matrix(path, self.recorder(calls))
        assert str(info.value) == f"{path}: matrix payload contains NaN or Inf"
        assert calls == [(2, 4)] * 3  # the blocks before the bad one

    def test_truncated_payload_refused_before_mapping(self, tmp_path, monkeypatch):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 10, 5) + b"\x00" * 120)
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 4 * 5)
        calls = []
        with pytest.raises(FormatError) as info:
            load_matrix(path, self.recorder(calls))
        assert str(info.value) == (
            f"{path}: truncated file: expected 200 bytes for matrix payload, got 120"
        )
        assert calls == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_short_pipe_counts_the_whole_payload(self, tmp_path, monkeypatch):
        save_matrix(np.arange(6, dtype=np.float32).reshape(3, 2), tmp_path / "m.emb")
        data = (tmp_path / "m.emb").read_bytes()
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 8)
        r, w = os.pipe()
        os.write(w, data[:-3])
        os.close(w)
        try:
            with pytest.raises(FormatError, match="expected 24 bytes for matrix payload, got 21"):
                load_matrix(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_nan_in_a_later_block_refused(self, tmp_path, monkeypatch):
        m = np.zeros((9, 3), "<f4")
        m[7, 2] = np.nan
        (tmp_path / "m.emb").write_bytes(b"EMB1" + struct.pack("<II", 9, 3) + m.tobytes())
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 3 * 4)
        with pytest.raises(NonFiniteData, match=r"matrix payload contains NaN or Inf$"):
            load_matrix(tmp_path / "m.emb")

    def test_checkpoint_read_into_its_arrays(self, tmp_path):
        # the blocks are read into the weight and proxy arrays, not copied there from bytes
        head, bank = init(TrainConfig(embed_dim=128), 512, 1000)
        save_checkpoint(Checkpoint(head, bank, 0), tmp_path / "a.ckpt")
        arrays = head.weight.nbytes + head.bias.nbytes + bank.proxies.nbytes
        tracemalloc.start()
        try:
            loaded = load_checkpoint(tmp_path / "a.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.proxies.proxies, bank.proxies)
        assert peak < 1.4 * arrays  # the arrays and one block's finiteness mask

    def test_checkpoint_blocks_read_with_no_finiteness_mask(self, tmp_path):
        # Each block's NaN/Inf check is its min and max, so reading CKP1's
        # blocks holds the arrays and no bool mask of a block beside them.
        # (load_checkpoint's own peak is set after the read, by ProxyBank's
        # float64 norm check and the default class ids.)
        head, bank = init(TrainConfig(embed_dim=128), 512, 1000)
        save_checkpoint(Checkpoint(head, bank, 0), tmp_path / "a.ckpt")
        arrays = head.weight.nbytes + head.bias.nbytes + bank.proxies.nbytes
        tracemalloc.start()
        try:
            with data_io.read_container(tmp_path / "a.ckpt", MAGIC_CHECKPOINT) as read:
                blocks = [data_io.read_matrix_block(read, what) for what in ("w", "b", "p")]
                read(8, "iteration")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(blocks[2], bank.proxies)
        assert peak < arrays + 32 * 2**10

    def test_head_only_read_holds_no_proxies(self, tmp_path):
        # load_head streams the 4 MiB proxies block through the unit-norm
        # rule: it holds W, b and one block's buffer, never a C x D array
        head, bank = init(TrainConfig(embed_dim=128), 64, 8192)
        assert bank.proxies.nbytes >= 4 * data_io.BLOCK_BYTES
        save_checkpoint(Checkpoint(head, bank, 0), tmp_path / "a.ckpt")
        tracemalloc.start()
        try:
            loaded = load_head(tmp_path / "a.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.weight, head.weight)
        np.testing.assert_array_equal(loaded.bias, head.bias)
        assert peak < head.weight.nbytes + head.bias.nbytes + 2 * data_io.BLOCK_BYTES

    @staticmethod
    def load(path, source, map_rows):
        """``load_matrix(path, map_rows)`` from the file, or from a pipe holding its bytes."""
        if source == "file":
            return load_matrix(path, map_rows)
        r, w = os.pipe()
        os.write(w, path.read_bytes())  # small enough for the pipe's buffer
        os.close(w)
        try:
            return load_matrix(f"/dev/fd/{r}", map_rows)
        finally:
            os.close(r)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_mapped_pipe_read_block_by_block(self, tmp_path, monkeypatch):
        # the mapped blocks of a stream are kept and joined once it ends
        m = np.random.default_rng(1).standard_normal((37, 5)).astype(np.float32)
        save_matrix(m, tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 5 * 4)
        mapped = self.load(tmp_path / "m.emb", "pipe", lambda block: block * 2.0)
        np.testing.assert_array_equal(mapped, m * 2.0)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_map_may_return_a_view_of_its_block(self, tmp_path, monkeypatch, source):
        # a file's mapped block is copied out before the next read, and a pipe's blocks are fresh
        m = np.random.default_rng(2).standard_normal((8, 5)).astype(np.float32)
        save_matrix(m, tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 5 * 4)  # 4 blocks
        mapped = self.load(tmp_path / "m.emb", source, lambda b: b[:, :2])
        np.testing.assert_array_equal(mapped, m[:, :2])

    MAPS = {
        "float64": lambda b: np.asarray(b, np.float64) * 2.0,
        "uint8": lambda b: np.packbits(b > 0.0, axis=1),  # as eval's sign bits: narrower rows
    }

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("rows", [37, 0])
    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("name", list(MAPS))
    def test_output_takes_the_maps_dtype_and_width(self, tmp_path, monkeypatch, name, source, rows):
        m = np.random.default_rng(3).standard_normal((rows, 5)).astype(np.float32)
        save_matrix(m, tmp_path / "m.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 5 * 4)
        mapped = self.load(tmp_path / "m.emb", source, self.MAPS[name])
        expected = self.MAPS[name](m)
        assert (mapped.dtype, mapped.shape) == (expected.dtype, expected.shape)
        np.testing.assert_array_equal(mapped, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 35])
    def test_min_max_check_finds_every_non_finite_value(self, tmp_path, monkeypatch, bad, at):
        m = np.ones((9, 4), np.float32)
        m.reshape(-1)[at] = bad
        (tmp_path / "m.emb").write_bytes(
            data_io.MAGIC_MATRIX + struct.pack("<II", 9, 4) + m.astype("<f4").tobytes()
        )
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 2 * 4 * 4)
        with pytest.raises(NonFiniteData, match=r"matrix payload contains NaN or Inf$"):
            load_matrix(tmp_path / "m.emb")

    def test_margin_and_checkpoint_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 12)
        rng = np.random.default_rng(3)
        text = ClassTextEmbeddings(rng.standard_normal((5, 4)).astype(np.float32))
        save_margin_matrix(build_margin_matrix(text), tmp_path / "a.mgn")
        save_margin_matrix(load_margin_matrix(tmp_path / "a.mgn"), tmp_path / "b.mgn")
        assert (tmp_path / "a.mgn").read_bytes() == (tmp_path / "b.mgn").read_bytes()
        head, bank = init(TrainConfig(embed_dim=4), 7, 5)
        save_checkpoint(Checkpoint(head, bank, 3), tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


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
            load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl", tmp_path / "ids.txt")


def make_bundle(counts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i) for i, n in enumerate(counts)])
    feats = rng.standard_normal((labels.size, dim)).astype(np.float32)
    ids = [f"c{i}" for i in range(len(counts))]
    return FeatureBundle(feats, labels, ids)


class TestBundle:
    def test_load_bundle_round_trip(self, tmp_path):
        b = make_bundle([3, 4])
        save_matrix(b.features, tmp_path / "f.emb")
        save_labels(b.labels, b.num_classes, tmp_path / "l.lbl")
        save_class_ids(b.class_ids, tmp_path / "ids.txt")
        loaded = load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl", tmp_path / "ids.txt")
        np.testing.assert_array_equal(loaded.features, b.features)
        np.testing.assert_array_equal(loaded.labels, b.labels)
        assert loaded.class_ids == b.class_ids

    def test_default_class_ids(self, tmp_path):
        b = make_bundle([2, 2])
        save_matrix(b.features, tmp_path / "f.emb")
        save_labels(b.labels, 2, tmp_path / "l.lbl")
        loaded = load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl")
        assert loaded.class_ids == ["0", "1"]

    def test_more_classes_than_labels_refused(self, tmp_path):
        # some class would have no row; no default id is built for any
        save_matrix(np.eye(2, dtype=np.float32), tmp_path / "f.emb")
        save_labels([0, 1], 3, tmp_path / "l.lbl")
        with pytest.raises(InvariantViolation, match="3 classes for 2 labels leave a class"):
            load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl")

    def test_zero_row_file_loads(self, tmp_path):
        # an empty file declaring no class loads; the sampler and recall_at_k
        # refuse an empty bundle
        save_matrix(np.zeros((0, 3), np.float32), tmp_path / "f.emb")
        save_labels([], 0, tmp_path / "l.lbl")
        b = load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl")
        assert b.features.shape == (0, 3) and b.num_classes == 0

    def test_empty_label_file_class_bound(self, tmp_path):
        # an empty file declaring C > 0 classes leaves each of them with no row,
        # and is refused before any of the C default ids is built
        save_matrix(np.zeros((0, 3), np.float32), tmp_path / "f.emb")
        for num_classes in (1, 2, 1 << 16, 0xFFFFFFFF):
            save_labels([], num_classes, tmp_path / "l.lbl")
            with pytest.raises(InvariantViolation, match=f"{num_classes} classes for 0 labels"):
                load_bundle(tmp_path / "f.emb", tmp_path / "l.lbl")

    def test_nan_row_is_hard_error(self):
        # a bundle holds a NaN row; train, the code that relies on finite
        # rows, refuses it before any draw and names the row
        b = make_bundle([5, 5])
        b.features[2, 0] = np.nan
        cfg = TrainConfig(
            embed_dim=2,
            total_iters=0,
            warmup_iters=0,
            loss=LossConfig(kind=KIND_NORM_SOFTMAX),
        )
        with pytest.raises(NonFiniteData, match="feature row 2"):
            train(b, cfg)

    def test_query_bundle_may_miss_classes(self):
        # only the sampler needs a row of every class
        feats = np.ones((2, 3), np.float32)
        b = FeatureBundle(feats, [0, 0], ["a", "b"])
        assert b.num_classes == 2

    def test_eval_split_namespace_check(self):
        q = make_bundle([2, 2])
        g = FeatureBundle(q.features, q.labels, ["x", "y"])
        with pytest.raises(InvariantViolation):
            EvalSplit(q, g)
