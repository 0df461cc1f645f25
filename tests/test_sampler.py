import itertools

import numpy as np
import pytest

from marginfit.data_io import FeatureBundle
from marginfit.errors import ConfigError, InvariantViolation
from marginfit.sampler import BalancedSampler, SamplerConfig


def bundle_with_counts(counts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i) for i, n in enumerate(counts)])
    feats = rng.standard_normal((labels.size, dim)).astype(np.float32)
    return FeatureBundle(feats, labels, [f"c{i}" for i in range(len(counts))])


def batch_at(sampler, t):
    """Batch t drawn alone, as its (sample_indices, labels) rows."""
    block = sampler.batches(t, 1)
    return block.sample_indices[0], block.labels[0]


def rows_of(block):
    """The (sample_indices, labels) rows of a block, one pair per batch."""
    return zip(block.sample_indices, block.labels)


def batches_equal(a, b):
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestConfig:
    def test_batch_size_divisible_by_k(self):
        with pytest.raises(ConfigError):
            SamplerConfig(batch_size=7, k=5)

    def test_too_few_classes(self):
        b = bundle_with_counts([6, 6])
        with pytest.raises(ConfigError):
            BalancedSampler(b, SamplerConfig(batch_size=15, k=5, seed=0))

    def test_class_without_rows(self):
        # checked before the class count, which alone would be a ConfigError
        b = bundle_with_counts([3, 0, 4, 0, 0, 0, 0, 2])
        with pytest.raises(InvariantViolation, match=r"\['c1', 'c3', 'c4', 'c5', 'c6'\]"):
            BalancedSampler(b, SamplerConfig(batch_size=20, k=2, seed=0))

    @pytest.mark.parametrize("classes", [0, 50])
    def test_empty_bundle(self, classes):
        b = FeatureBundle(np.zeros((0, 4), np.float32), [], [f"c{i}" for i in range(classes)])
        with pytest.raises(InvariantViolation, match="no rows"):
            BalancedSampler(b, SamplerConfig(batch_size=75, k=5, seed=0))


class TestWarnings:
    def test_clean_bundle_no_warnings(self):
        s = BalancedSampler(bundle_with_counts([6, 7]), SamplerConfig(batch_size=10, k=5))
        assert s.warnings == []

    def test_small_class_warns_replacement(self):
        s = BalancedSampler(bundle_with_counts([3, 8]), SamplerConfig(batch_size=10, k=5))
        assert len(s.warnings) == 1
        assert "replacement" in s.warnings[0]


class TestBatchShape:
    def test_paper_scale_shape(self):
        b = bundle_with_counts([8] * 20)
        s = BalancedSampler(b, SamplerConfig(batch_size=75, k=5, seed=1))
        indices, labels = batch_at(s, 0)
        assert indices.shape == (75,)
        classes, counts = np.unique(labels, return_counts=True)
        assert len(classes) == 15
        assert np.all(counts == 5)

    def test_labels_match_bundle(self):
        b = bundle_with_counts([6, 6, 6, 6])
        s = BalancedSampler(b, SamplerConfig(batch_size=10, k=5, seed=2))
        indices, labels = batch_at(s, 0)
        np.testing.assert_array_equal(b.labels[indices], labels)

    def test_small_class_uses_replacement(self):
        b = bundle_with_counts([3, 8])
        s = BalancedSampler(b, SamplerConfig(batch_size=10, k=5, seed=3))
        indices, labels = batch_at(s, 0)
        small = indices[labels == 0]
        assert len(small) == 5
        assert set(small).issubset(set(np.flatnonzero(b.labels == 0)))
        # 5 draws from 3 indices must repeat something
        assert len(set(small)) < 5

    def test_invariants_over_many_batches(self):
        b = bundle_with_counts([7] * 12)
        cfg = SamplerConfig(batch_size=20, k=4, seed=4)
        s = BalancedSampler(b, cfg)
        for _, labels in rows_of(s.batches(0, 200)):
            classes, counts = np.unique(labels, return_counts=True)
            assert len(classes) == cfg.classes_per_batch
            assert np.all(counts == cfg.k)


class TestWithinClassDraws:
    def test_three_subsets_of_six_uniform(self):
        # Floyd's algorithm makes every k-subset equally likely: 20 subsets of
        # 6 rows, chi-squared against uniform with 19 degrees of freedom
        b = bundle_with_counts([6])
        s = BalancedSampler(b, SamplerConfig(batch_size=3, k=3, seed=0))
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(6), 3))}
        hits = np.zeros(len(subsets))
        n_batches = 30_000
        for indices in s.batches(0, n_batches).sample_indices:
            hits[subsets[tuple(sorted(indices.tolist()))]] += 1
        expected = n_batches / len(subsets)
        chi2 = float(np.sum((hits - expected) ** 2) / expected)
        assert chi2 < 43.8  # the 0.999 quantile of chi-squared(19)

    def test_mixed_class_sizes(self):
        # n < k, n == k, n == k + 1 and n >> k, all drawn in every batch
        counts = [3, 5, 6, 40]
        b = bundle_with_counts(counts)
        k = 5
        s = BalancedSampler(b, SamplerConfig(batch_size=20, k=k, seed=6))
        for indices, labels in rows_of(s.batches(0, 300)):
            for cls, n in enumerate(counts):
                picks = indices[labels == cls]
                assert len(picks) == k
                assert np.all(b.labels[picks] == cls)
                if n >= k:
                    assert len(set(picks.tolist())) == k
                if n == k:
                    assert set(picks.tolist()) == set(np.flatnonzero(b.labels == cls).tolist())

    def test_draw_major_layout(self):
        b = bundle_with_counts([7] * 12)
        cfg = SamplerConfig(batch_size=20, k=4, seed=8)
        _, labels = batch_at(BalancedSampler(b, cfg), 0)
        per_draw = labels.reshape(cfg.k, cfg.classes_per_batch)
        assert np.all(per_draw == per_draw[0])
        assert len(set(per_draw[0].tolist())) == cfg.classes_per_batch


class TestDeterminism:
    def test_same_seed_same_call_index(self):
        b = bundle_with_counts([6] * 10)
        cfg = SamplerConfig(batch_size=15, k=3, seed=42)
        s1, s2 = BalancedSampler(b, cfg), BalancedSampler(b, cfg)
        for t in range(5):
            assert batches_equal(batch_at(s1, t), batch_at(s2, t))

    def test_stream_starts_at_any_t(self):
        # batch t of a sampler that drew nothing before equals batch t of one
        # that drew every batch up to it
        b = bundle_with_counts([2, 5, 9, 6, 4])
        cfg = SamplerConfig(batch_size=12, k=4, seed=9)
        s1 = BalancedSampler(b, cfg)
        for t in range(7):
            expected = batch_at(s1, t)
        s2 = BalancedSampler(b, cfg)
        assert batches_equal(batch_at(s2, 6), expected)
        assert batches_equal(batch_at(s2, 7), batch_at(s1, 7))

    @pytest.mark.parametrize("counts", [[40] * 50, [10] * 1000, [3] * 50])
    def test_block_equals_successive_batches(self, counts):
        # 40 and 10 rows per class draw k-subsets, 3 rows draw with replacement
        b = bundle_with_counts(counts)
        cfg = SamplerConfig(batch_size=75, k=5, seed=3)
        one_by_one = BalancedSampler(b, cfg)
        block = BalancedSampler(b, cfg).batches(21, 16)  # 21: not a multiple of the trainer's block
        assert block.sample_indices.shape == block.labels.shape == (16, 75)
        for t, batch in enumerate(rows_of(block), start=21):
            assert batches_equal(batch, batch_at(one_by_one, t))

    def test_golden_batches_at_seed_0(self):
        # a deliberate pin: any change to the batch stream shows up here
        labels = np.array([2, 0, 3, 1, 3, 2, 3, 0, 1, 3, 2, 1, 3, 2, 3])  # counts 2, 3, 4, 6
        b = FeatureBundle(np.ones((labels.size, 2), np.float32), labels, ["a", "b", "c", "d"])
        s = BalancedSampler(b, SamplerConfig(batch_size=9, k=3, seed=0))
        first, second = batch_at(s, 0), batch_at(s, 1)
        np.testing.assert_array_equal(first[0], [5, 6, 1, 10, 12, 1, 0, 14, 1])
        np.testing.assert_array_equal(first[1], [2, 3, 0, 2, 3, 0, 2, 3, 0])
        np.testing.assert_array_equal(second[0], [0, 3, 4, 10, 8, 6, 13, 11, 9])
        np.testing.assert_array_equal(second[1], [2, 1, 3, 2, 1, 3, 2, 1, 3])

    def test_different_seeds_differ(self):
        b = bundle_with_counts([6] * 10)
        differing = 0
        for pair in range(100):
            s1 = BalancedSampler(b, SamplerConfig(batch_size=15, k=3, seed=2 * pair))
            s2 = BalancedSampler(b, SamplerConfig(batch_size=15, k=3, seed=2 * pair + 1))
            if not batches_equal(batch_at(s1, 0), batch_at(s2, 0)):
                differing += 1
        assert differing >= 99


class TestClassFrequency:
    def test_selection_close_to_uniform(self):
        b = bundle_with_counts([6] * 50)
        s = BalancedSampler(b, SamplerConfig(batch_size=75, k=5, seed=123))
        hits = np.zeros(50, dtype=np.int64)
        n_batches = 10_000
        for labels in s.batches(0, n_batches).labels:
            hits[np.unique(labels)] += 1
        expected = n_batches * 15 / 50
        assert np.all(np.abs(hits - expected) <= 0.2 * expected)
