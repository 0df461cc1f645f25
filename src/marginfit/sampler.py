"""Deterministic class-balanced batch sampling.

Every batch draws ``batch_size / k`` distinct classes uniformly without
replacement, then ``k`` samples from each (without replacement when the
class has at least k samples, with replacement otherwise, so small classes
stay in the training distribution).

Batch t is generated from a Philox stream keyed by (seed, t), so the whole
batch sequence is a pure function of (seed, config, bundle): two samplers
built with the same seed give the same batch at the same call index. The
specific generator is an implementation detail; only the determinism
contract is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import FeatureBundle
from .errors import ConfigError


@dataclass(frozen=True)
class SamplerConfig:
    batch_size: int = 75
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.batch_size < 1:
            raise ConfigError("batch_size and k must be positive")
        if self.batch_size % self.k != 0:
            raise ConfigError(
                f"batch_size {self.batch_size} must be divisible by k={self.k}"
            )

    @property
    def classes_per_batch(self) -> int:
        return self.batch_size // self.k


@dataclass
class Batch:
    sample_indices: np.ndarray  # (batch_size,) row indices into the bundle
    labels: np.ndarray  # (batch_size,) class indices


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class BalancedSampler:
    """Mutable sampler state: (seed, batch counter) plus per-class indices."""

    def __init__(self, bundle: FeatureBundle, config: SamplerConfig):
        if config.classes_per_batch > bundle.num_classes:
            raise ConfigError(
                f"batch needs {config.classes_per_batch} classes but bundle has "
                f"only {bundle.num_classes}"
            )
        self.config = config
        self.num_classes = bundle.num_classes
        self.by_class = [
            np.flatnonzero(bundle.labels == c) for c in range(bundle.num_classes)
        ]
        if any(len(idx) == 0 for idx in self.by_class):
            raise ConfigError("every class must have at least one sample")
        self.seed = config.seed
        self.counter = 0

    def next_batch(self) -> Batch:
        rng = _stream(self.seed, self.counter)
        self.counter += 1
        k = self.config.k
        classes = rng.choice(self.num_classes, size=self.config.classes_per_batch, replace=False)
        indices = np.empty(self.config.batch_size, dtype=np.int64)
        labels = np.empty(self.config.batch_size, dtype=np.int64)
        for slot, cls in enumerate(classes):
            pool = self.by_class[cls]
            if len(pool) >= k:
                pick = rng.choice(len(pool), size=k, replace=False)
            else:
                pick = rng.integers(0, len(pool), size=k)
            indices[slot * k : (slot + 1) * k] = pool[pick]
            labels[slot * k : (slot + 1) * k] = cls
        return Batch(indices, labels)
