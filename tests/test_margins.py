import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginfit.errors import (
    DegenerateRange,
    FormatError,
    InvariantViolation,
    UnknownClass,
    ZeroNorm,
)
from marginfit.margins import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    NORM_ANALYTIC,
    NORM_MINMAX,
    ClassTextEmbeddings,
    MarginMatrix,
    align_margin_matrix,
    build_margin_matrix,
    load_margin_matrix,
    save_margin_matrix,
)


def rows_with_cosines(g):
    """Unit rows whose pairwise dot products equal the Gram matrix g."""
    return np.linalg.cholesky(np.asarray(g, dtype=np.float64)).astype(np.float32)


class TestBuild:
    def test_identical_embeddings_zero_matrix(self):
        e = np.tile(np.array([[1.0, 2.0, 3.0]], np.float32), (4, 1))
        for metric in (METRIC_COSINE, METRIC_EUCLIDEAN):
            m = build_margin_matrix(ClassTextEmbeddings(e), metric, NORM_ANALYTIC)
            np.testing.assert_array_equal(m.d, np.zeros((4, 4), np.float32), err_msg=metric)

    def test_orthogonal_pair_is_half(self):
        e = np.eye(2, dtype=np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_ANALYTIC)
        assert m.d[0, 1] == pytest.approx(0.5, abs=1e-6)

    def test_antipodal_pair_is_one(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0]], np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_ANALYTIC)
        assert m.d[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_euclidean_antipodal_pair_is_one(self):
        e = np.array([[2.0, 0.0], [-0.5, 0.0]], np.float32)  # chord 2 between the unit rows
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, NORM_ANALYTIC)
        assert m.d[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_minmax_three_class_oracle(self):
        # pairwise cosines 0.9 / 0.5 / 0.1 -> raw distances 0.1 / 0.5 / 0.9;
        # the affine map (x - 0.1) / 0.8 sends them to 0 / 0.5 / 1
        e = rows_with_cosines([[1.0, 0.9, 0.5], [0.9, 1.0, 0.1], [0.5, 0.1, 1.0]])
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_MINMAX)
        assert m.d[0, 1] == pytest.approx(0.0, abs=1e-5)
        assert m.d[0, 2] == pytest.approx(0.5, abs=1e-5)
        assert m.d[1, 2] == pytest.approx(1.0, abs=1e-5)

    def test_euclidean_analytic_chord(self):
        e = np.eye(2, dtype=np.float32)  # unit vectors at 90 degrees
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, NORM_ANALYTIC)
        assert m.d[0, 1] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-6)

    def test_euclidean_analytic_normalizes_rows(self):
        # [3, 4] and [0, 10] become [0.6, 0.8] and [0, 1]: cosine 0.8, chord sqrt(0.4)
        e = np.array([[3.0, 4.0], [0.0, 10.0]], np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, NORM_ANALYTIC)
        assert m.d[0, 1] == pytest.approx(np.sqrt(0.4) / 2.0, abs=1e-6)

    def test_euclidean_analytic_is_sqrt_of_cosine(self):
        # on unit rows, chord / 2 = sqrt(2 - 2 cos) / 2 = sqrt((1 - cos) / 2)
        e = np.random.default_rng(4).standard_normal((12, 9)).astype(np.float32)
        cos = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_ANALYTIC)
        euc = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, NORM_ANALYTIC)
        want = np.sqrt(cos.d.astype(np.float64))
        assert np.max(np.abs(euc.d - want)) <= 1e-6

    def test_euclidean_minmax_three_four_five(self):
        # raw rows, not unit ones: distances 3 / 4 / 5 map to 0 / 0.5 / 1
        e = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], np.float32)
        e += np.float32(1.0)  # no zero row
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, NORM_MINMAX)
        assert m.d[0, 1] == pytest.approx(0.0, abs=1e-6)
        assert m.d[0, 2] == pytest.approx(0.5, abs=1e-6)
        assert m.d[1, 2] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("norm", [NORM_ANALYTIC, NORM_MINMAX])
    def test_euclidean_matches_explicit_differences(self, norm):
        # the Gram expansion against the (C, C, T) difference oracle it replaced
        e = (np.random.default_rng(6).standard_normal((20, 16)) * 10.0).astype(np.float32)
        x = e.astype(np.float64)
        if norm == NORM_ANALYTIC:
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        diff = x[:, None, :] - x[None, :, :]
        want = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        off = ~np.eye(20, dtype=bool)
        if norm == NORM_ANALYTIC:
            want /= 2.0
        else:
            want = (want - want[off].min()) / (want[off].max() - want[off].min())
        np.fill_diagonal(want, 0.0)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_EUCLIDEAN, norm)
        assert np.max(np.abs(m.d - want)) <= 1e-6

    def test_euclidean_memory_is_quadratic_in_classes_only(self):
        # a (C, C, T) float64 difference tensor alone would take 216 MB here
        e = np.random.default_rng(5).standard_normal((300, 300)).astype(np.float32)
        cte = ClassTextEmbeddings(e)
        tracemalloc.start()
        try:
            build_margin_matrix(cte, METRIC_EUCLIDEAN, NORM_ANALYTIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_minmax_degenerate_range(self):
        e = np.eye(3, dtype=np.float32)  # all pairs equidistant
        with pytest.raises(DegenerateRange):
            build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_MINMAX)

    def test_single_class_zero_matrix_even_minmax(self):
        e = np.array([[0.3, 0.4]], np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_MINMAX)
        np.testing.assert_array_equal(m.d, np.zeros((1, 1), np.float32))

    def test_zero_embedding_rejected(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32)
        with pytest.raises(ZeroNorm):
            ClassTextEmbeddings(e)

    def test_near_zero_embedding_names_class(self):
        e = np.array([[1.0, 0.0], [1e-13, 0.0]], np.float32)
        with pytest.raises(ZeroNorm, match="class 'b'"):
            ClassTextEmbeddings(e, ["a", "b"])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3))
    def test_cosine_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((5, 8)).astype(np.float32)
        base = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, NORM_ANALYTIC)
        scaled = build_margin_matrix(
            ClassTextEmbeddings(e * np.float32(scale)), METRIC_COSINE, NORM_ANALYTIC
        )
        np.testing.assert_allclose(scaled.d, base.d, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        metric=st.sampled_from([METRIC_COSINE, METRIC_EUCLIDEAN]),
    )
    def test_minmax_attains_both_extremes(self, seed, metric):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((6, 5)).astype(np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), metric, NORM_MINMAX)
        off = m.d[~np.eye(6, dtype=bool)]
        assert off.min() == pytest.approx(0.0, abs=1e-6)
        assert off.max() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        metric=st.sampled_from([METRIC_COSINE, METRIC_EUCLIDEAN]),
        norm=st.sampled_from([NORM_ANALYTIC, NORM_MINMAX]),
    )
    def test_invariants_hold_for_random_inputs(self, seed, metric, norm):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((5, 7)).astype(np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), metric, norm)
        assert np.all(m.d >= 0.0) and np.all(m.d <= 1.0)
        assert np.all(np.diagonal(m.d) == 0.0)
        assert np.max(np.abs(m.d - m.d.T)) <= 1e-6


class TestLookup:
    def make(self):
        e = np.eye(3, dtype=np.float32)
        return build_margin_matrix(
            ClassTextEmbeddings(e, ["a", "b", "c"]), METRIC_COSINE, NORM_ANALYTIC
        )

    def test_own_index_zero(self):
        m = self.make()
        assert m.d[1, 1] == 0.0

    def test_symmetry_via_lookup(self):
        m = self.make()
        assert m.d[0, 2] == m.d[2, 0]

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            align_margin_matrix(self.make(), ["a", "b", "zzz"])

    def test_identical_embeddings_zero_row(self):
        e = np.tile(np.array([[2.0, 1.0]], np.float32), (3, 1))
        m = build_margin_matrix(ClassTextEmbeddings(e, ["a", "b", "c"]))
        np.testing.assert_array_equal(m.d[0], np.zeros(3, np.float32))


class TestSerialization:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((4, 6)).astype(np.float32)
        return build_margin_matrix(
            ClassTextEmbeddings(e, ["ä", "b", "c", "d"]), METRIC_COSINE, NORM_ANALYTIC
        )

    def test_round_trip(self, tmp_path):
        m = self.make()
        path = tmp_path / "m.mgn"
        save_margin_matrix(m, path)
        loaded = load_margin_matrix(path)
        np.testing.assert_array_equal(loaded.d, m.d)
        assert loaded.class_ids == m.class_ids
        assert loaded.metric == m.metric and loaded.norm_mode == m.norm_mode

    def test_round_trip_byte_identical(self, tmp_path):
        m = self.make()
        p1, p2 = tmp_path / "a.mgn", tmp_path / "b.mgn"
        save_margin_matrix(m, p1)
        save_margin_matrix(load_margin_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        m = self.make()
        path = tmp_path / "m.mgn"
        save_margin_matrix(m, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_margin_matrix(path)

    def test_truncated_file_names_path(self, tmp_path):
        m = self.make()
        path = tmp_path / "m.mgn"
        save_margin_matrix(m, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError) as excinfo:
            load_margin_matrix(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert "margin payload" in message

    def test_oversized_class_id_length(self, tmp_path):
        # a class-id length of 2^32 - 1 is refused before the read, and the error names the file
        path = tmp_path / "m.mgn"
        path.write_bytes(b"MGN1" + struct.pack("<IBB", 1, 0, 0) + struct.pack("<I", 0xFFFFFFFF))
        with pytest.raises(FormatError) as excinfo:
            load_margin_matrix(path)
        assert str(excinfo.value).startswith(f"{path}: truncated file")
        assert "class id 0" in str(excinfo.value)

    def test_out_of_range_entry_rejected(self, tmp_path):
        path = tmp_path / "m.mgn"
        ids = b"\x01\x00\x00\x00a" + b"\x01\x00\x00\x00b"
        payload = np.array([[0.0, 1.5], [1.5, 0.0]], dtype="<f4").tobytes()
        path.write_bytes(b"MGN1" + struct.pack("<IBB", 2, 0, 0) + ids + payload)
        with pytest.raises(InvariantViolation):
            load_margin_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mgn"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_margin_matrix(path)

    def test_nonzero_diagonal_rejected(self):
        d = np.array([[0.1, 0.0], [0.0, 0.0]], np.float32)
        with pytest.raises(InvariantViolation):
            MarginMatrix(d, ["a", "b"])
