import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import tensor
from marginfit.errors import DimMismatch, ZeroNorm
from marginfit.trainer import EmbeddingHead, forward_head


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


class TestL2Normalize:
    def test_three_four_five(self):
        out = tensor.l2_normalize_rows(np.array([[3.0, 4.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-6)

    def test_already_unit(self):
        out = tensor.l2_normalize_rows(np.array([[1.0, 0.0, 0.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-7)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNorm):
            tensor.l2_normalize_rows(np.zeros((1, 2), dtype=np.float32))

    @given(
        hnp.arrays(
            np.float32,
            st.integers(1, 32),
            elements=st.floats(-1e3, 1e3, width=32),
        ).filter(lambda v: np.linalg.norm(v.astype(np.float64)) > 1e-6)
    )
    def test_idempotent_and_unit(self, v):
        once = tensor.l2_normalize_rows(v[None, :])
        twice = tensor.l2_normalize_rows(once)
        assert abs(np.linalg.norm(once.astype(np.float64)) - 1.0) <= 1e-6
        np.testing.assert_allclose(twice, once, atol=1e-6)

    def test_rows_variant_matches_vector_op(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 7)).astype(np.float32)
        m64 = m.astype(np.float64)
        want = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
        np.testing.assert_allclose(tensor.l2_normalize_rows(m), want, atol=1e-7)

    def test_rows_variant_zero_row(self):
        m = np.ones((3, 4), dtype=np.float32)
        m[1] = 0.0
        with pytest.raises(ZeroNorm):
            tensor.l2_normalize_rows(m)


def identity_head(m):
    """The embedding head (eps 1e-5) with an identity weight and zero bias: layer norm, then L2."""
    n = m.shape[1]
    return forward_head(EmbeddingHead(np.eye(n, dtype=np.float32), np.zeros(n, np.float32)), m)


class TestLayerNorm:
    def test_two_four(self):
        # layer norm gives [-1, 1] / sqrt(1 + eps); the L2 step rescales it
        out = identity_head(np.array([[2.0, 4.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-6)

    def test_constant_input_eps_dominated(self):
        # layer norm maps a constant row to zeros, which the L2 step rejects
        with pytest.raises(ZeroNorm):
            identity_head(np.full((1, 4), 7.5, dtype=np.float32))

    def test_one_two_three(self):
        # hand computation: mean 2, population std sqrt(2/3 + eps), then unit norm
        out = identity_head(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-math.sqrt(0.5), 0.0, math.sqrt(0.5)]], atol=1e-6)

    @given(
        hnp.arrays(
            np.float32,
            st.integers(2, 24),
            elements=st.floats(-1e3, 1e3, width=32),
        ).filter(lambda v: np.ptp(v.astype(np.float64)) > 1e-3)
    )
    def test_output_mean_near_zero(self, v):
        out = identity_head(v[None, :])
        assert abs(float(np.mean(out.astype(np.float64)))) <= 1e-5
        assert np.all(np.isfinite(out))

    def test_rows_variant(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6)).astype(np.float32)
        m64 = m.astype(np.float64)
        t = m64 - m64.mean(axis=1, keepdims=True)
        t /= np.sqrt(np.mean(t**2, axis=1, keepdims=True) + 1e-5)
        want = t / np.linalg.norm(t, axis=1, keepdims=True)
        np.testing.assert_allclose(identity_head(m), want, atol=1e-7)


class TestPairwiseCosine:
    def test_same_vector_is_one(self):
        a = unit_rows(np.random.default_rng(2), 1, 8)
        assert tensor.pairwise_cosine(a, a)[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_is_zero(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        assert tensor.pairwise_cosine(a, b)[0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_antipodal_is_minus_one(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[-1.0, 0.0]], dtype=np.float32)
        assert tensor.pairwise_cosine(a, b)[0, 0] == pytest.approx(-1.0, abs=1e-7)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(3)
        a = unit_rows(rng, 20, 4)
        sims = tensor.pairwise_cosine(a, a)
        assert sims.max() <= 1.0 and sims.min() >= -1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            tensor.pairwise_cosine(np.ones((1, 2), np.float32), np.ones((1, 3), np.float32))


class TestPairwiseEuclidean:
    def test_identical_rows_zero(self):
        a = np.array([[1.5, -2.0, 0.25]], dtype=np.float32)
        assert tensor.pairwise_euclidean(a, a)[0, 0] == 0.0

    def test_three_four_five(self):
        a = np.array([[0.0, 0.0]], dtype=np.float32)
        b = np.array([[3.0, 4.0]], dtype=np.float32)
        assert tensor.pairwise_euclidean(a, b)[0, 0] == pytest.approx(5.0, abs=1e-6)

    def test_right_angle_chord(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        assert tensor.pairwise_euclidean(a, b)[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_chord_identity_against_cosine(self):
        rng = np.random.default_rng(4)
        a = unit_rows(rng, 12, 9)
        b = unit_rows(rng, 15, 9)
        d = tensor.pairwise_euclidean(a, b).astype(np.float64)
        c = tensor.pairwise_cosine(a, b).astype(np.float64)
        assert np.max(np.abs(d**2 - (2.0 - 2.0 * c))) <= 1e-4
