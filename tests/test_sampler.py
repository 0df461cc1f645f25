import numpy as np
import pytest

from marginfit.data_io import FeatureBundle
from marginfit.errors import ConfigError
from marginfit.sampler import BalancedSampler, SamplerConfig


def bundle_with_counts(counts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i) for i, n in enumerate(counts)])
    feats = rng.standard_normal((labels.size, dim)).astype(np.float32)
    return FeatureBundle(feats, labels, [f"c{i}" for i in range(len(counts))])


def batches_equal(a, b):
    return np.array_equal(a.sample_indices, b.sample_indices) and np.array_equal(
        a.labels, b.labels
    )


class TestConfig:
    def test_batch_size_divisible_by_k(self):
        with pytest.raises(ConfigError):
            SamplerConfig(batch_size=7, k=5)

    def test_too_few_classes(self):
        b = bundle_with_counts([6, 6])
        with pytest.raises(ConfigError):
            BalancedSampler(b, SamplerConfig(batch_size=15, k=5, seed=0))


class TestBatchShape:
    def test_paper_scale_shape(self):
        b = bundle_with_counts([8] * 20)
        s = BalancedSampler(b, SamplerConfig(batch_size=75, k=5, seed=1))
        batch = s.next_batch()
        assert batch.sample_indices.shape == (75,)
        classes, counts = np.unique(batch.labels, return_counts=True)
        assert len(classes) == 15
        assert np.all(counts == 5)

    def test_labels_match_bundle(self):
        b = bundle_with_counts([6, 6, 6, 6])
        s = BalancedSampler(b, SamplerConfig(batch_size=10, k=5, seed=2))
        batch = s.next_batch()
        np.testing.assert_array_equal(b.labels[batch.sample_indices], batch.labels)

    def test_small_class_uses_replacement(self):
        b = bundle_with_counts([3, 8])
        s = BalancedSampler(b, SamplerConfig(batch_size=10, k=5, seed=3))
        batch = s.next_batch()
        small = batch.sample_indices[batch.labels == 0]
        assert len(small) == 5
        assert set(small).issubset(set(np.flatnonzero(b.labels == 0)))
        # 5 draws from 3 indices must repeat something
        assert len(set(small)) < 5

    def test_invariants_over_many_batches(self):
        b = bundle_with_counts([7] * 12)
        cfg = SamplerConfig(batch_size=20, k=4, seed=4)
        s = BalancedSampler(b, cfg)
        for _ in range(200):
            batch = s.next_batch()
            classes, counts = np.unique(batch.labels, return_counts=True)
            assert len(classes) == cfg.classes_per_batch
            assert np.all(counts == cfg.k)


class TestDeterminism:
    def test_same_seed_same_call_index(self):
        b = bundle_with_counts([6] * 10)
        cfg = SamplerConfig(batch_size=15, k=3, seed=42)
        s1, s2 = BalancedSampler(b, cfg), BalancedSampler(b, cfg)
        for _ in range(5):
            assert batches_equal(s1.next_batch(), s2.next_batch())

    def test_different_seeds_differ(self):
        b = bundle_with_counts([6] * 10)
        differing = 0
        for pair in range(100):
            s1 = BalancedSampler(b, SamplerConfig(batch_size=15, k=3, seed=2 * pair))
            s2 = BalancedSampler(b, SamplerConfig(batch_size=15, k=3, seed=2 * pair + 1))
            if not batches_equal(s1.next_batch(), s2.next_batch()):
                differing += 1
        assert differing >= 99


class TestClassFrequency:
    def test_selection_close_to_uniform(self):
        b = bundle_with_counts([6] * 50)
        s = BalancedSampler(b, SamplerConfig(batch_size=75, k=5, seed=123))
        hits = np.zeros(50, dtype=np.int64)
        n_batches = 10_000
        for _ in range(n_batches):
            hits[np.unique(s.next_batch().labels)] += 1
        expected = n_batches * 15 / 50
        assert np.all(np.abs(hits - expected) <= 0.2 * expected)
