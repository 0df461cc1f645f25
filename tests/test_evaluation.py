import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import evaluation
from marginfit.data_io import EvalSplit, FeatureBundle
from marginfit.errors import (
    ConfigError,
    DimMismatch,
    EmptyGallery,
    InvariantViolation,
    NonFiniteData,
)
from marginfit.evaluation import (
    MODE_BINARY,
    MODE_FLOAT,
    RetrievalReport,
    compare_float_binary,
    format_report,
    machine_lines,
    recall_at_k,
    sign_bits,
)
from marginfit.selftest import _brute_force_recall as brute_force_recall
from marginfit.selftest import _near_tie_instance
from marginfit.trainer import Checkpoint, forward_head, init, TrainConfig


def decoded_signs(e):
    """The ±1 codes of ``sign_bits(e)``, decoded as binary mode decodes them, pad bits cut."""
    return evaluation._decode_bits(sign_bits(e))[:, : e.shape[1]]


class TestBinarize:
    def test_threshold_rule_with_zero_tie(self):
        codes = decoded_signs(np.array([[0.2, -0.1, 0.0, -0.0]], np.float32))
        np.testing.assert_array_equal(codes, [[1.0, -1.0, -1.0, -1.0]])
        assert codes.dtype == np.float32

    def test_all_positive_row(self):
        np.testing.assert_array_equal(decoded_signs(np.ones((1, 7), np.float32)), np.ones((1, 7)))

    def test_sign_pattern_reconstruction(self):
        rng = np.random.default_rng(0)
        signs = rng.choice([-1.0, 1.0], size=(5, 70)).astype(np.float32)
        np.testing.assert_array_equal(decoded_signs(signs), signs)


class TestSignBits:
    def test_most_significant_bit_first_and_pad_bits_clear(self):
        e = np.array([[1.0, -1.0, 0.0, 2.0, -3.0, 0.0, 0.0, 0.5, 5.0, -0.0]], np.float32)
        bits = sign_bits(e)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, [[0b10010001, 0b10000000]])

    @pytest.mark.parametrize("dim", [1, 7, 8, 13, 129])
    def test_decode_to_sign_codes_with_pad_bits_minus_one(self, dim):
        rng = np.random.default_rng(dim)
        e = rng.standard_normal((9, dim)).astype(np.float32)
        e[rng.random(e.shape) < 0.2] = 0.0
        bits = sign_bits(e)
        assert bits.shape == (9, -(-dim // 8))
        codes = evaluation._decode_bits(bits)
        assert codes.dtype == np.float32 and codes.shape == (9, 8 * bits.shape[1])
        np.testing.assert_array_equal(codes[:, :dim], np.where(e > 0.0, 1.0, -1.0))
        assert np.all(codes[:, dim:] == -1.0)

    def test_no_rows(self):
        assert evaluation._decode_bits(sign_bits(np.zeros((0, 13), np.float32))).shape == (0, 16)


@pytest.mark.usefixtures("chunk_rows")
@pytest.mark.parametrize("dim", [1, 7, 8, 13, 129])
def test_sign_bits_ranking_matches_oracle(dim):
    # every code repeats across the gallery, zeros included, so ties cross
    # chunk and block edges; the oracle ranks the signs of the float rows
    rng = np.random.default_rng(30 + dim)
    base = rng.standard_normal((6, dim)).astype(np.float32)
    base[rng.random(base.shape) < 0.2] = 0.0
    g = base[rng.integers(0, 6, 50)]
    q = np.concatenate([base, rng.standard_normal((5, dim)).astype(np.float32)])
    qlab, glab = rng.integers(0, 4, len(q)), rng.integers(0, 4, len(g))
    ks = all_ranks(len(g))
    report = recall_at_k(sign_bits(q), qlab, sign_bits(g), glab, ks=ks, mode=MODE_BINARY)
    want = brute_force_recall(q, qlab, g, glab, ks, MODE_BINARY)
    assert report.recall == want


@pytest.mark.parametrize("dim", [5, 16, 33])
def test_float_rows_and_their_sign_bits_report_alike(dim):
    rng = np.random.default_rng(dim)
    q = rng.standard_normal((12, dim)).astype(np.float32)
    g = rng.standard_normal((40, dim)).astype(np.float32)
    qlab, glab = rng.integers(0, 4, 12), rng.integers(0, 4, 40)
    ks = all_ranks(40)
    packed = recall_at_k(sign_bits(q), qlab, sign_bits(g), glab, ks=ks, mode=MODE_BINARY)
    assert recall_at_k(q, qlab, g, glab, ks=ks, mode=MODE_BINARY) == packed


class TestSignBitsInput:
    def test_bit_widths_must_match(self):
        q, g = np.ones((2, 8), np.float32), np.ones((3, 9), np.float32)
        with pytest.raises(DimMismatch):
            recall_at_k(sign_bits(q), [0, 1], sign_bits(g), [0, 1, 0], ks=[1], mode=MODE_BINARY)

    def test_bits_and_float_rows_do_not_mix(self):
        q, g = np.ones((2, 8), np.float32), np.ones((3, 1), np.float32)
        with pytest.raises(DimMismatch):
            recall_at_k(sign_bits(q), [0, 1], g, [0, 1, 0], ks=[1], mode=MODE_BINARY)

    def test_float_mode_reads_uint8_as_values(self):
        # only binary mode takes uint8 rows as packed bits
        e = np.array([[3, 0], [0, 200]], np.uint8)
        report = recall_at_k(e, [0, 1], e, [0, 1], ks=[1], mode=MODE_FLOAT)
        assert report.recall == [1.0]


def all_ranks(gallery_size):
    """Every K up to two past the gallery size, so a report pins each first-hit rank."""
    return list(range(1, gallery_size + 3))


def assert_matches_oracle(q, qlab, g, glab):
    """Both modes pin every first-hit rank to the full-sort oracle's."""
    ks = all_ranks(len(glab))
    for mode in (MODE_FLOAT, MODE_BINARY):
        report = recall_at_k(q, qlab, g, glab, ks=ks, mode=mode)
        assert report.recall == brute_force_recall(q, qlab, g, glab, ks, mode), mode


class TestHamming:
    def test_matches_naive_count(self):
        # every first-hit rank must match the oracle, which counts differing
        # signs one by one
        rng = np.random.default_rng(1)
        q = rng.standard_normal((6, 130)).astype(np.float32)
        g = rng.standard_normal((40, 130)).astype(np.float32)
        qlab = rng.integers(0, 3, 6)
        glab = rng.integers(0, 3, 40)
        ks = all_ranks(40)
        report = recall_at_k(q, qlab, g, glab, ks=ks, mode=MODE_BINARY)
        assert report.recall == brute_force_recall(q, qlab, g, glab, ks, MODE_BINARY)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            recall_at_k(np.ones((1, 4), np.float32), [0],
                        np.ones((1, 5), np.float32), [0], ks=[1], mode=MODE_BINARY)


def one_hot_embeddings(labels, dim):
    e = np.zeros((len(labels), dim), np.float32)
    for i, lab in enumerate(labels):
        e[i, lab] = 1.0
    return e


class TestRecallAtK:
    def test_exact_duplicate_recall_one(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((10, 6)).astype(np.float32)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        q = g[3:4].copy()
        report = recall_at_k(q, [3], g, np.arange(10) % 8, ks=[1], mode=MODE_FLOAT)
        assert report.recall == [1.0]

    def test_k_at_least_gallery_size_hits_when_class_present(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((8, 5)).astype(np.float32)
        q = rng.standard_normal((3, 5)).astype(np.float32)
        report = recall_at_k(q, [0, 1, 2], g, [2, 1, 0, 3, 3, 3, 3, 3], ks=[1, 8])
        assert report.recall[-1] == 1.0

    @pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_BINARY])
    @pytest.mark.parametrize("k", [2**63, 10**23])
    def test_k_past_int64_finds_no_absent_class(self, mode, k):
        # query 2's class 5 has no gallery item, so no K finds it
        e = np.eye(3, dtype=np.float32)
        report = recall_at_k(e, [0, 1, 5], e, [0, 1, 2], ks=[1, k], mode=mode)
        assert report.recall == [2 / 3, 2 / 3]

    def test_one_hot_classes_both_modes_perfect(self):
        labels = [0, 1, 2, 3]
        e = one_hot_embeddings(labels, 6)
        for mode in (MODE_FLOAT, MODE_BINARY):
            report = recall_at_k(e, labels, e, labels, ks=[1], mode=mode)
            assert report.recall == [1.0]

    def test_sign_vectors_identical_reports(self):
        rng = np.random.default_rng(4)
        q = rng.choice([-1.0, 1.0], size=(12, 32)).astype(np.float32)
        g = rng.choice([-1.0, 1.0], size=(40, 32)).astype(np.float32)
        qlab = rng.integers(0, 6, 12)
        glab = rng.integers(0, 6, 40)
        f = recall_at_k(q, qlab, g, glab, ks=[1, 5, 10], mode=MODE_FLOAT)
        b = recall_at_k(q, qlab, g, glab, ks=[1, 5, 10], mode=MODE_BINARY)
        assert f.recall == b.recall

    @pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_BINARY])
    def test_matches_brute_force_oracle(self, mode):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            nq = int(rng.integers(1, 21))
            ng = int(rng.integers(5, 101))
            dim = int(rng.integers(3, 12))
            classes = int(rng.integers(2, 8))
            q = rng.standard_normal((nq, dim)).astype(np.float32)
            g = rng.standard_normal((ng, dim)).astype(np.float32)
            qlab = rng.integers(0, classes, nq)
            glab = rng.integers(0, classes, ng)
            ks = [1, 5, 10]
            report = recall_at_k(q, qlab, g, glab, ks=ks, mode=mode)
            assert report.recall == brute_force_recall(q, qlab, g, glab, ks, mode)

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((15, 8)).astype(np.float32)
        g = rng.standard_normal((60, 8)).astype(np.float32)
        report = recall_at_k(q, rng.integers(0, 5, 15), g, rng.integers(0, 5, 60),
                             ks=[1, 2, 5, 10, 20, 60])
        assert all(b >= a for a, b in zip(report.recall, report.recall[1:]))

    def test_gallery_permutation_invariance_distinct_sims(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((10, 7)).astype(np.float32)
        g = rng.standard_normal((30, 7)).astype(np.float32)
        qlab = rng.integers(0, 4, 10)
        glab = rng.integers(0, 4, 30)
        perm = rng.permutation(30)
        base = recall_at_k(q, qlab, g, glab, ks=[1, 5])
        permuted = recall_at_k(q, qlab, g[perm], glab[perm], ks=[1, 5])
        assert base.recall == permuted.recall

    def test_ranking_invariant_under_positive_rescale(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((5, 6)).astype(np.float32)
        g = rng.standard_normal((20, 6)).astype(np.float32)
        s1 = q.astype(np.float64) @ g.astype(np.float64).T
        s2 = (3.5 * q).astype(np.float64) @ (3.5 * g).astype(np.float64).T
        np.testing.assert_array_equal(
            np.argsort(-s1, axis=1, kind="stable"), np.argsort(-s2, axis=1, kind="stable")
        )

    def test_empty_gallery(self):
        with pytest.raises(EmptyGallery):
            recall_at_k(np.ones((1, 3), np.float32), [0],
                        np.zeros((0, 3), np.float32), [], ks=[1])

    def test_no_queries(self):
        with pytest.raises(InvariantViolation, match="no queries"):
            recall_at_k(np.zeros((0, 3), np.float32), [],
                        np.ones((2, 3), np.float32), [0, 1], ks=[1])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            recall_at_k(np.ones((1, 3), np.float32), [0],
                        np.ones((2, 4), np.float32), [0, 1], ks=[1])

    def test_unsorted_ks_rejected(self):
        with pytest.raises(ConfigError):
            recall_at_k(np.ones((1, 3), np.float32), [0],
                        np.ones((2, 3), np.float32), [0, 1], ks=[5, 1])

    @pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_BINARY])
    @pytest.mark.parametrize("side", ["query", "gallery"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, mode, side, bad):
        e = {"query": np.ones((2, 3), np.float32), "gallery": np.ones((4, 3), np.float32)}
        e[side][1, 2] = bad
        with pytest.raises(NonFiniteData):
            recall_at_k(e["query"], [0, 1], e["gallery"], [0, 1, 0, 1], ks=[1], mode=mode)

    def test_report_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            RetrievalReport([1, 5], [0.9, 0.5], MODE_FLOAT, 10)


class TestChunkBoundaries:
    """The blocked kernel against the full-sort oracle: 3-query chunks, 4-column blocks."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "CHUNK_ROWS", 3)
        monkeypatch.setattr(evaluation, "BLOCK_COLS", 4)

    @pytest.mark.parametrize("num_queries", [1, 3, 6, 11])
    def test_whole_and_remainder_chunks(self, num_queries):
        rng = np.random.default_rng(num_queries)
        q = rng.standard_normal((num_queries, 5)).astype(np.float32)
        g = rng.standard_normal((17, 5)).astype(np.float32)
        assert_matches_oracle(q, rng.integers(0, 4, num_queries), g, rng.integers(0, 4, 17))

    def test_duplicated_gallery_rows_tie(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((4, 6)).astype(np.float32)
        g = base[rng.integers(0, 4, 20)]
        q = np.concatenate([base, rng.standard_normal((6, 6)).astype(np.float32)])
        assert_matches_oracle(q, rng.integers(0, 3, 10), g, rng.integers(0, 3, 20))

    def test_sign_vectors_tie(self):
        rng = np.random.default_rng(11)
        q = rng.choice([-1.0, 1.0], size=(10, 4)).astype(np.float32)
        g = rng.choice([-1.0, 1.0], size=(25, 4)).astype(np.float32)
        assert_matches_oracle(q, rng.integers(0, 3, 10), g, rng.integers(0, 3, 25))

    def test_query_class_absent_from_gallery(self):
        rng = np.random.default_rng(12)
        q = rng.standard_normal((8, 5)).astype(np.float32)
        g = rng.standard_normal((9, 5)).astype(np.float32)
        qlab = np.array([0, 5, 1, 5, 2, 5, 5, 0])
        assert_matches_oracle(q, qlab, g, rng.integers(0, 3, 9))
        report = recall_at_k(q, np.full(8, 5), g, np.zeros(9, int), ks=[1, 100])
        assert report.recall == [0.0, 0.0]

    def test_class_run_split_across_blocks(self):
        # class 1 has 11 gallery items, so its run spans three 4-column blocks
        rng = np.random.default_rng(13)
        glab = rng.permutation(np.repeat([0, 1, 2], [3, 11, 5]))
        g = rng.standard_normal((19, 5)).astype(np.float32)
        q = rng.standard_normal((7, 5)).astype(np.float32)
        assert_matches_oracle(q, np.array([1, 1, 1, 1, 0, 2, 1]), g, glab)

    def test_binary_tie_with_an_earlier_item_in_an_earlier_block(self):
        # Items 0 and 9 share the query's code. Item 9 (class 2, the
        # query's) is in the query's own block, the last four columns of the
        # class-sorted gallery; item 0 (class 0) leads the gallery, in a
        # block counted after it. The tie still puts item 0 ahead: rank 1.
        codes = np.array([[1, -1, 1], [1, 1, 1], [-1, -1, 1]], np.float32)
        g = codes[[0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 2]]
        glab = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2])
        q = codes[[0]]
        for mode in (MODE_FLOAT, MODE_BINARY):
            assert recall_at_k(q, [2], g, glab, ks=[1, 2], mode=mode).recall == [0.0, 1.0]
        assert_matches_oracle(q, np.array([2]), g, glab)

    def test_float64_re_rank_ties_duplicates_across_a_block_edge(self):
        # each query's row is in the gallery twice, in two classes eight or
        # more columns apart in the class-sorted order, so 4-column blocks
        # score the two copies apart, and every query is re-ranked
        rng = np.random.default_rng(14)
        base = rng.standard_normal((6, 5)).astype(np.float32)
        g = np.concatenate([base, base, rng.standard_normal((6, 5)).astype(np.float32)])
        glab = np.concatenate([np.arange(6) % 3, (np.arange(6) + 1) % 3, np.arange(6) % 3])
        q, qlab = base, np.arange(6) % 3
        assert deferred(q, qlab, g, glab) == 6
        assert_matches_oracle(q, qlab, g, glab)

    @pytest.mark.parametrize("gallery_size", [5, 9, 13])
    def test_last_block_of_one_column(self, gallery_size):
        # Equal rows, the last one alone in class 1. The first chunk
        # (classes 0 and 1) owns all G = 4k + 1 columns, the second (class 1)
        # the last 4, widened, so each chunk's last block holds one column;
        # all rows must tie.
        rng = np.random.default_rng(gallery_size)
        g = np.tile(rng.standard_normal(6).astype(np.float32), (gallery_size, 1))
        glab = (np.arange(gallery_size) == gallery_size - 1).astype(int)
        q = rng.standard_normal((5, 6)).astype(np.float32)
        qlab = np.array([1, 1, 0, 1, 0])
        assert deferred(q, qlab, g, glab) == 5
        assert_matches_oracle(q, qlab, g, glab)


def deferred(q, qlab, g, glab):
    """How many queries the float32 ranking leaves to the float64 re-rank."""
    band = evaluation._rounding_band(q, g)
    return int(np.sum(evaluation._first_hit_ranks(q, g, np.asarray(qlab), np.asarray(glab), band) < 0))


@pytest.fixture(
    params=[(evaluation.CHUNK_ROWS, evaluation.BLOCK_COLS), (3, evaluation.BLOCK_COLS), (3, 4)],
    ids=["default_chunks", "3_row_chunks", "3x4_blocks"],
)
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(evaluation, "CHUNK_ROWS", request.param[0])
    monkeypatch.setattr(evaluation, "BLOCK_COLS", request.param[1])


@pytest.mark.usefixtures("chunk_rows")
class TestFloat32Guard:
    """Float mode ranks in float32 and re-ranks in float64 what it cannot order."""

    def test_last_bit_near_ties_all_re_ranked(self):
        for seed in range(3):
            q, qlab, g, glab = _near_tie_instance(seed)
            assert deferred(q, qlab, g, glab) == len(qlab)
            assert_matches_oracle(q, qlab, g, glab)

    def test_exact_duplicates(self):
        rng = np.random.default_rng(20)
        base = rng.standard_normal((5, 6)).astype(np.float32)
        g, q = base[rng.integers(0, 5, 24)], base[rng.integers(0, 5, 9)]
        qlab, glab = rng.integers(0, 3, 9), rng.integers(0, 3, 24)
        assert deferred(q, qlab, g, glab) > 0
        assert_matches_oracle(q, qlab, g, glab)

    def test_one_query_over_equal_gallery_rows(self):
        # all scores tie exactly, and a single query is a one-row product,
        # which must still score equal rows alike wherever they sit
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = np.tile(rng.standard_normal(18).astype(np.float32), (43, 1))
            q = rng.standard_normal((1, 18)).astype(np.float32)
            assert_matches_oracle(q, [1], g, (np.arange(43) >= 40).astype(int))

    @pytest.mark.parametrize("scale", [1e-20, 1e18, 1e20])
    def test_rows_scaled_to_float32_extremes(self, scale):
        # queries and every other gallery row scaled: 1e-20 sends their
        # float32 products below the normal range, 1e20 past float32 max
        rng = np.random.default_rng(21)
        q = (rng.standard_normal((10, 6)) * scale).astype(np.float32)
        g = rng.standard_normal((30, 6)).astype(np.float32)
        g[::2] *= np.float32(scale)
        qlab, glab = rng.integers(0, 3, 10), rng.integers(0, 3, 30)
        with np.errstate(over="ignore"):
            products = np.abs(q @ g.T)
        if scale < 1:
            assert np.any((products > 0) & (products < np.finfo(np.float32).tiny))
        elif scale > 1e19:
            assert not np.isfinite(products).all()
            assert deferred(q, qlab, g, glab) == len(qlab)
        assert_matches_oracle(q, qlab, g, glab)

    @pytest.mark.parametrize("gap", [1e-7, 1.5e-7, 3e-7])
    def test_scores_next_to_float32_max(self, gap):
        # squares just under float32 max: the band's edges may pass it
        s = np.float32(np.sqrt(float(np.finfo(np.float32).max) * (1 - gap)))
        q = np.array([[s, 0.0], [0.0, s]], np.float32)
        g = np.array([[s, 0.0], [0.0, s], [s, 0.0]], np.float32)
        assert_matches_oracle(q, [1, 0], g, [0, 0, 1])

    def test_query_classes_absent_from_gallery(self):
        rng = np.random.default_rng(22)
        q = rng.standard_normal((12, 5)).astype(np.float32)
        g = rng.standard_normal((20, 5)).astype(np.float32)
        qlab = np.array([0, 7, 1, 9, 2, 7, 0, 1, 9, 2, 2, 7])
        assert_matches_oracle(q, qlab, g, rng.integers(0, 3, 20))

    def test_one_class_far_larger_than_the_rest(self):
        rng = np.random.default_rng(23)
        q = rng.standard_normal((14, 5)).astype(np.float32)
        g = rng.standard_normal((70, 5)).astype(np.float32)
        glab = np.zeros(70, int)
        glab[rng.permutation(70)[:6]] = [1, 2, 3, 3, 4, 5]
        assert_matches_oracle(q, rng.integers(0, 6, 14), g, glab)

    def test_equal_rows_past_a_gemm_edge_tile(self):
        # 1025 equal rows: a BLAS product can round the 1025th column
        # otherwise, and the float64 re-rank must still tie them all
        rng = np.random.default_rng(24)
        g = np.tile(rng.standard_normal(16).astype(np.float32), (1025, 1))
        glab = (np.arange(1025) == 1024).astype(int)
        q = rng.standard_normal((40, 16)).astype(np.float32)
        report = recall_at_k(q, np.ones(40, int), g, glab, ks=[1, 1024, 1025])
        assert report.recall == [0.0, 0.0, 1.0]


@st.composite
def retrieval_instances(draw):
    """Small galleries with duplicate, last-bit-perturbed and extreme-scale rows."""
    dim = draw(st.integers(1, 6))
    ng = draw(st.integers(1, 12))
    g = draw(hnp.arrays(np.float32, (ng, dim), elements=st.floats(-4, 4, width=32)))
    g *= np.float32(draw(st.sampled_from([1.0, 1e-20, 1e18, 1e20])))
    twins = draw(st.lists(st.integers(0, ng - 1), max_size=ng))
    g = np.concatenate([g, np.nextafter(g[twins], np.float32(np.inf))])
    ng = len(g)
    picks = draw(st.lists(st.integers(0, ng - 1), min_size=1, max_size=8))
    nudge = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    q = g[picks]
    q[nudge] = np.nextafter(q[nudge], np.float32(np.inf))
    q = np.concatenate([q, g[: draw(st.integers(0, ng))]])
    glab = np.array(draw(st.lists(st.integers(0, 3), min_size=ng, max_size=ng)))
    qlab = np.array(draw(st.lists(st.integers(0, 4), min_size=len(q), max_size=len(q))))
    return q, qlab, g, glab


@settings(max_examples=80, deadline=None)
@given(
    retrieval_instances(),
    st.sampled_from([evaluation.CHUNK_ROWS, 3]),
    st.sampled_from([evaluation.BLOCK_COLS, 1, 2, 3]),
)
def test_kernel_matches_oracle(instance, chunk_rows, block_cols):
    with mock.patch.multiple(evaluation, CHUNK_ROWS=chunk_rows, BLOCK_COLS=block_cols):
        assert_matches_oracle(*instance)


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_BINARY])
@pytest.mark.parametrize("gallery_size", [40_000, 80_000])
def test_ranking_memory_does_not_grow_with_the_gallery(mode, gallery_size):
    # Exact duplicate pairs in two classes: every float query ties its
    # duplicate, so the float64 re-rank runs over all of them. Beyond the
    # caller's own arrays, ranking may hold blocks and O(G) indices only.
    dim, nq = 16, 300
    rng = np.random.default_rng(25)
    base = rng.standard_normal((gallery_size // 2, dim)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    g = np.repeat(base, 2, axis=0)
    glab = 2 * rng.integers(0, 500, gallery_size) + np.arange(gallery_size) % 2
    pick = rng.choice(gallery_size // 2, nq, replace=False)
    q, qlab = base[pick], glab[2 * pick]
    if mode == MODE_FLOAT:
        assert deferred(q, qlab, g, glab) == nq
    tracemalloc.start()
    try:
        report = recall_at_k(q, qlab, g, glab, ks=[1], mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if mode == MODE_FLOAT:
        assert report.recall == [1.0]
    assert peak - 2 * gallery_size * dim * 4 < 4 * 2**20


def tiny_checkpoint(feature_dim=6, embed_dim=4, classes=3, seed=0):
    cfg = TrainConfig(embed_dim=embed_dim, total_iters=0, warmup_iters=0,
                      head_init_seed=seed, proxy_init_seed=seed + 1)
    head, bank = init(cfg, feature_dim, classes)
    return Checkpoint(head, bank, 0)


class TestEmbedAndCompare:
    def test_embed_deterministic_and_unit(self):
        rng = np.random.default_rng(8)
        bundle = FeatureBundle(
            rng.standard_normal((9, 6)).astype(np.float32),
            rng.integers(0, 3, 9), ["a", "b", "c"],
        )
        ckpt = tiny_checkpoint()
        e1 = forward_head(ckpt.head, bundle.features)
        e2 = forward_head(ckpt.head, bundle.features)
        np.testing.assert_array_equal(e1, e2)
        assert np.all(np.abs(np.linalg.norm(e1.astype(np.float64), axis=1) - 1) <= 1e-5)

    def test_single_row_bundle(self):
        bundle = FeatureBundle(np.ones((1, 6), np.float32), [0], ["a"])
        assert forward_head(tiny_checkpoint().head, bundle.features).shape == (1, 4)

    def test_compare_float_binary_shapes_and_hit(self):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((12, 6)).astype(np.float32)
        labels = np.arange(12) % 3
        q = FeatureBundle(feats[:6], labels[:6], ["a", "b", "c"])
        g = FeatureBundle(feats.copy(), labels, ["a", "b", "c"])
        fr, br = compare_float_binary(tiny_checkpoint(), EvalSplit(q, g), ks=[1, 5])
        assert fr.mode == MODE_FLOAT and br.mode == MODE_BINARY
        assert fr.recall[0] == 1.0  # exact duplicates in the gallery
        assert fr.num_queries == 6 and br.num_queries == 6

    def test_report_formatting(self):
        report = RetrievalReport([1, 5], [0.5, 0.75], MODE_FLOAT, 4)
        lines = machine_lines(report)
        assert "recall@1=0.500000" in lines
        assert "recall@5=0.750000" in lines
        assert "mode=float" in lines
        table = format_report(report)
        assert "R@1" in table and "50.00" in table
