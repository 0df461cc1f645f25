"""Row normalization and pairwise cosine / euclidean distances.

``build_margin_matrix`` does this arithmetic inline on one Gram block, so
each check reads the raw quantity back from an analytic margin:
cosine = 1 - 2 d for the cosine metric, chord = 2 d for the euclidean one.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit.errors import ZeroNorm
from marginfit.margins import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    NORM_ANALYTIC,
    NORM_MINMAX,
    ClassTextEmbeddings,
    build_margin_matrix,
)


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def margins(rows, metric, norm_mode=NORM_ANALYTIC):
    e = np.asarray(rows, dtype=np.float32)
    return build_margin_matrix(ClassTextEmbeddings(e), metric, norm_mode).d.astype(np.float64)


def cosines(rows):
    return 1.0 - 2.0 * margins(rows, METRIC_COSINE)


def chords(rows):
    return 2.0 * margins(rows, METRIC_EUCLIDEAN)


class TestL2Normalize:
    def test_already_unit(self):
        # unit rows pass through the normalization unchanged, so their chords
        # are the plain distances between the rows as given
        a = unit_rows(np.random.default_rng(5), 6, 4).astype(np.float64)
        want = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
        np.testing.assert_allclose(chords(a), want, atol=1e-6)

    @given(
        hnp.arrays(
            np.float32,
            st.integers(1, 32),
            elements=st.floats(-1e3, 1e3, width=32),
        ).filter(lambda v: np.linalg.norm(v.astype(np.float64)) > 1e-6)
    )
    def test_idempotent_and_unit(self, v):
        once = (v / np.linalg.norm(v.astype(np.float64))).astype(np.float32)
        cos = cosines([v, -v, once])
        # unit: a row and its negation sit at cosine -1 whatever the scale
        assert abs(cos[0, 1] + 1.0) <= 1e-6
        # idempotent: normalizing the normalized row changes nothing
        assert abs(cos[0, 2] - 1.0) <= 1e-6

    def test_rows_variant_zero_row(self):
        m = np.ones((3, 4), dtype=np.float32)
        m[1] = 0.0
        with pytest.raises(ZeroNorm, match="class '1'"):
            ClassTextEmbeddings(m)


class TestPairwiseCosine:
    def test_same_vector_is_one(self):
        a = unit_rows(np.random.default_rng(2), 1, 8)
        assert cosines([a[0], 3.0 * a[0]])[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_is_zero(self):
        assert cosines([[2.0, 0.0, 0.0], [0.0, 0.0, 5.0]])[0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_antipodal_is_minus_one(self):
        assert cosines([[0.0, 3.0, 4.0], [0.0, -0.3, -0.4]])[0, 1] == pytest.approx(-1.0, abs=1e-7)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(3)
        a = unit_rows(rng, 20, 4)
        sims = cosines(np.concatenate([a, a]))  # repeated rows put dot products at 1
        assert sims.max() <= 1.0 and sims.min() >= -1.0


class TestPairwiseEuclidean:
    def test_identical_rows_zero(self):
        # raw rows (minmax): the repeated pair is the off-diagonal minimum, exactly 0
        a = [1.5, -2.0, 0.25]
        d = margins([a, a, [0.0, 1.0, 0.0]], METRIC_EUCLIDEAN, NORM_MINMAX)
        assert d[0, 1] == 0.0

    def test_right_angle_chord(self):
        assert chords([[4.0, 0.0], [0.0, 0.5]])[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-6)
