import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginfit import cli, data_io
from marginfit.data_io import save_class_ids, save_matrix
from marginfit.errors import (
    DegenerateRange,
    FormatError,
    InvariantViolation,
    NonFiniteData,
    UnknownClass,
    ZeroNorm,
)
from marginfit.losses import KIND_ADAPTIVE, margin_array
from marginfit.margins import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    NORM_ANALYTIC,
    NORM_MINMAX,
    ClassTextEmbeddings,
    MarginMatrix,
    build_margin_matrix,
    load_margin_matrix,
    off_diagonal,
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

    @pytest.mark.parametrize("norm", [NORM_ANALYTIC, NORM_MINMAX])
    def test_identical_rows_zero_under_cosine(self, norm):
        # float32 unit rows of [1.5, -2, 0.25] have a float64 dot of 1 - 6e-8;
        # the classes must still get margin exactly 0, as under euclidean
        e = np.array([[1.5, -2.0, 0.25]] * 4 + [[1.0, 0.0, 0.0]], np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(e), METRIC_COSINE, norm)
        np.testing.assert_array_equal(m.d[:4, :4], np.zeros((4, 4), np.float32))
        assert np.all(m.d[4, :4] > 0.0)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_names_class(self, value):
        # refused before the zero-norm rule, and before any numpy warning
        e = np.array([[1.0, 0.0], [0.0, 0.0], [value, 0.0]], np.float32)
        with pytest.raises(NonFiniteData, match=r"^class 'c' has a NaN or Inf text embedding$"):
            ClassTextEmbeddings(e, ["a", "b", "c"])

    def test_norm_check_makes_no_float64_copy(self):
        e = np.random.default_rng(0).standard_normal((1000, 128)).astype(np.float32)
        ids = [str(c) for c in range(1000)]
        tracemalloc.start()
        try:
            ClassTextEmbeddings(e, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < e.nbytes

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


def full_matrix_oracle(e, metric, norm):
    """The build as one C x C float64 matrix: Gram, raw distances, normalization, mean with
    the transpose, clip, zero diagonal; identical rows sit at cosine 1 or euclidean distance 0."""
    x = e.astype(np.float64)
    if metric == METRIC_COSINE or norm == NORM_ANALYTIC:
        x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
    d = x @ x.T
    same = (x[:, None, :] == x[None, :, :]).all(axis=2)
    if metric == METRIC_COSINE:
        d = np.clip(d, -1.0, 1.0)
        d[same] = 1.0
    else:
        sq = np.diagonal(d).copy()
        d = np.sqrt(np.maximum(-2.0 * d + sq[:, None] + sq[None, :], 0.0))
        d[same] = 0.0
    d = d.astype(np.float32).astype(np.float64)
    if metric == METRIC_COSINE:
        d = 1.0 - d
    if norm == NORM_ANALYTIC:
        d = d / 2.0
    else:
        off = d[~np.eye(len(d), dtype=bool)]
        d = (d - off.min()) / (off.max() - off.min())
    d = np.clip((d + d.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d.astype(np.float32)


class TestBlockedBuild:
    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @pytest.mark.parametrize("norm", [NORM_ANALYTIC, NORM_MINMAX])
    @pytest.mark.parametrize("rows_per_block", [1, 7, 50, 200])
    def test_matches_the_full_matrix_oracle(self, monkeypatch, metric, norm, rows_per_block):
        # block edges fall mid-matrix; rows 5, 60 and 119 repeat row 0 and
        # row 77 is a scaled row 3, the same unit row for analytic
        c = 120
        e = np.random.default_rng(10).standard_normal((c, 16)).astype(np.float32)
        e[[5, 60, 119]] = e[0]
        e[77] = e[3] * np.float32(4.0)
        monkeypatch.setattr(data_io, "BLOCK_BYTES", rows_per_block * 8 * c)
        m = build_margin_matrix(ClassTextEmbeddings(e), metric, norm)
        assert m.d.tobytes() == full_matrix_oracle(e, metric, norm).tobytes()
        if metric == METRIC_EUCLIDEAN:
            assert not np.any(m.d[np.ix_([0, 5, 60, 119], [0, 5, 60, 119])])

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @pytest.mark.parametrize("norm", [NORM_ANALYTIC, NORM_MINMAX])
    def test_margins_build_holds_one_matrix(self, tmp_path, metric, norm):
        # the whole command: read, build, save and the distance_* lines
        c = 2000
        save_matrix(
            np.random.default_rng(11).standard_normal((c, 16)).astype(np.float32),
            tmp_path / "text.emb",
        )
        save_class_ids([f"c{i}" for i in range(c)], tmp_path / "ids.txt")
        argv = ["margins-build", "--class-text", str(tmp_path / "text.emb"),
                "--class-ids", str(tmp_path / "ids.txt"), "--metric", metric, "--norm", norm,
                "--out", str(tmp_path / "m.mgn")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * c * c * 4

    def test_save_writes_the_array_buffer(self, tmp_path):
        c = 2000
        m = build_margin_matrix(
            ClassTextEmbeddings(np.random.default_rng(12).standard_normal((c, 8)).astype(np.float32))
        )
        tracemalloc.start()
        try:
            save_margin_matrix(m, tmp_path / "m.mgn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * c * c * 4
        np.testing.assert_array_equal(load_margin_matrix(tmp_path / "m.mgn").d, m.d)


class TestOffDiagonal:
    @pytest.mark.parametrize("c", [2, 3, 7])
    def test_holds_exactly_the_off_diagonal_entries(self, c):
        d = np.arange(c * c, dtype=np.float32).reshape(c, c)
        off = off_diagonal(d)
        assert off.shape == (c - 1, c)
        np.testing.assert_array_equal(np.sort(off, axis=None), np.sort(d[~np.eye(c, dtype=bool)]))

    def test_shares_memory_with_the_matrix(self):
        d = np.zeros((5, 5), np.float32)
        off = off_diagonal(d)
        assert np.shares_memory(off, d)
        off[...] = 1.0
        np.testing.assert_array_equal(d, 1.0 - np.eye(5, dtype=np.float32))

    def test_distance_lines_copy_no_matrix(self, tmp_path, monkeypatch, capsys):
        # tracing starts where margins-build would write MGN1, so it covers
        # only the distance_* lines, which read the matrix in place
        c = 2000
        save_matrix(
            np.random.default_rng(9).standard_normal((c, 4)).astype(np.float32),
            tmp_path / "text.emb",
        )
        save_class_ids([f"c{i}" for i in range(c)], tmp_path / "ids.txt")
        monkeypatch.setattr(cli, "save_margin_matrix", lambda m, path: tracemalloc.start())
        argv = ["margins-build", "--class-text", str(tmp_path / "text.emb"),
                "--class-ids", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "m.mgn")]
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * c * c * 4
        assert "distance_mean=" in capsys.readouterr().out


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
            margin_array(KIND_ADAPTIVE, self.make(), ["a", "b", "zzz"])

    def test_missing_and_extra_ids_named(self):
        with pytest.raises(UnknownClass, match=r"missing \['y', 'z'\], extra \['c'\]"):
            margin_array(KIND_ADAPTIVE, self.make(), ["z", "a", "y", "b"])
        with pytest.raises(UnknownClass, match=r"missing \[\], extra \['b'\]"):
            margin_array(KIND_ADAPTIVE, self.make(), ["c", "a"])

    def test_permutation_follows_ids(self):
        m = self.make()
        aligned = margin_array(KIND_ADAPTIVE, m, ["c", "a", "b"])
        np.testing.assert_array_equal(aligned, m.d[np.ix_([2, 0, 1], [2, 0, 1])])

    def test_permutation_does_not_check_again(self, monkeypatch):
        m = self.make()

        def refuse(_self):
            raise AssertionError("MarginMatrix checked again")

        monkeypatch.setattr(MarginMatrix, "__post_init__", refuse)
        aligned = margin_array(KIND_ADAPTIVE, m, ["b", "c", "a"])
        np.testing.assert_array_equal(aligned, m.d[np.ix_([1, 2, 0], [1, 2, 0])])

    def test_same_ids_return_the_same_array(self):
        m = self.make()
        assert margin_array(KIND_ADAPTIVE, m, ["a", "b", "c"]) is m.d

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

    def test_checks_need_less_memory_than_the_matrix(self):
        c = 1000
        d = np.random.default_rng(8).uniform(0.0, 1.0, (c, c)).astype(np.float32)
        d += d.T
        d /= 2.0
        np.fill_diagonal(d, 0.0)
        ids = [f"c{i}" for i in range(c)]
        tracemalloc.start()
        try:
            MarginMatrix(d, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.nbytes
        # the symmetry check reaches a pair that only the last row block holds
        d[c - 1, c - 2] += 0.5 if d[c - 1, c - 2] < 0.5 else -0.5
        with pytest.raises(InvariantViolation, match="symmetric"):
            MarginMatrix(d, ids)

    def test_symmetry_check_reaches_every_pair(self, monkeypatch):
        # 4-row strips at C = 13: the check compares each strip with its mirror
        # only, so perturb every off-diagonal entry alone, above and below the
        # diagonal, inside the diagonal blocks and in the last one-row strip
        c = 13
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 4 * 4 * c)
        assert data_io.block_rows(4 * c) == 4
        d = np.random.default_rng(9).uniform(0.1, 0.9, (c, c)).astype(np.float32)
        d = d + d.T  # exactly symmetric, in [0.2, 1.8]
        d /= 2.0
        np.fill_diagonal(d, 0.0)
        ids = [f"c{i}" for i in range(c)]
        for i, j in zip(*np.nonzero(~np.eye(c, dtype=bool))):
            for gap, rejected in ((1e-5, True), (5e-7, False)):
                bad = d.copy()
                bad[i, j] += np.float32(gap)
                if rejected:
                    with pytest.raises(InvariantViolation, match="symmetric"):
                        MarginMatrix(bad, ids)
                else:
                    MarginMatrix(bad, ids)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        # NaN fails every range comparison, so only a finiteness check catches it
        d = np.array([[0.0, value], [value, 0.0]], np.float32)
        with pytest.raises(NonFiniteData):
            MarginMatrix(d, ["a", "b"])
