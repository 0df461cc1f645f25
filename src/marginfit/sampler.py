"""Deterministic class-balanced batch sampling.

Every batch draws ``batch_size / k`` distinct classes uniformly without
replacement, then ``k`` samples from each: without replacement when the
class has at least k samples, with replacement otherwise, so small classes
stay in the training distribution. The sampler refuses a bundle with no
rows or with a class that has none, and its ``warnings`` name every class
it will draw with replacement.

Batches are drawn in blocks: ``batches(t0, n)`` makes batches t0 .. t0 + n - 1.
Per batch it makes only the stream calls, one class draw and one
``(k, batch_size / k)`` uniform draw. The rest is a fixed handful of array
operations over the whole block, whatever n and the batch size: Floyd's
k-subset algorithm (Bentley & Floyd, CACM 1987) runs on every drawn class
of every batch at once. Draw j of a class with n rows picks uniformly from
``[0, n - k + j]`` and takes ``n - k + j`` instead when the pick repeats an
earlier draw; the k picks are a uniform k-subset of the class. A class with
fewer than k rows scales the same uniforms to ``[0, n)`` and draws with
replacement. The rows of each class are found through one stable argsort of
the labels. The layout is draw-major: slot ``j * (batch_size / k) + i``
holds draw j of class i.

Batch t is generated from a Philox stream keyed by (seed, t), so the whole
batch sequence is a pure function of (seed, config, bundle), whatever block
a batch is drawn in: two samplers built with the same seed give the same
batch t. The specific generator is an implementation detail; only the
determinism contract is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import FeatureBundle
from .errors import ConfigError, InvariantViolation


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
class Batch:  # a block of n batches
    sample_indices: np.ndarray  # (n, batch_size) row indices into the bundle
    labels: np.ndarray  # (n, batch_size) class indices


class BalancedSampler:
    """The batch stream of one (bundle, config): batch t is a function of (seed, t).

    ``warnings`` holds one message per class with fewer than k rows.
    """

    def __init__(self, bundle: FeatureBundle, config: SamplerConfig):
        if bundle.labels.size == 0:
            raise InvariantViolation("cannot sample batches from a bundle with no rows")
        counts = np.bincount(bundle.labels, minlength=bundle.num_classes)
        if np.any(counts == 0):
            missing = [bundle.class_ids[i] for i in np.flatnonzero(counts == 0)[:5]]
            raise InvariantViolation(f"bundle has classes with no samples: {missing}")
        if config.classes_per_batch > bundle.num_classes:
            raise ConfigError(
                f"batch needs {config.classes_per_batch} classes but bundle has "
                f"only {bundle.num_classes}"
            )
        self.warnings = [
            f"class {bundle.class_ids[i]!r} has {counts[i]} samples < k={config.k}; "
            "sampler will draw with replacement"
            for i in np.flatnonzero(counts < config.k)
        ]
        self.config = config
        self.num_classes = bundle.num_classes
        # rows[starts[c] : starts[c] + counts[c]] are the rows of class c
        self.rows = np.argsort(bundle.labels, kind="stable")
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        # one Generator per sampler; each batch rewinds its Philox to key (seed, t)
        key = np.array([config.seed % (1 << 64), 0], np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._rewind = self._rng.bit_generator.state  # counter 0, empty buffer

    def batches(self, t0: int, n: int) -> Batch:
        """Batches t0 .. t0 + n - 1 as one Batch of (n, batch_size) arrays."""
        k, m = self.config.k, self.config.classes_per_batch
        classes = np.empty((n, m), np.int64)
        u = np.empty((n, k, m))
        for i in range(n):
            self._rewind["state"]["key"][1] = t0 + i
            self._rng.bit_generator.state = self._rewind
            classes[i] = self._rng.choice(self.num_classes, m, replace=False)
            self._rng.random(out=u[i])
        size = self.counts[classes][:, None]  # (n, 1, m)
        top = size - k + np.arange(k)[:, None]  # draw j picks from [0, top[:, j]]
        pick = (u * (top + 1)).astype(np.int64)
        for j in range(1, k):
            seen = (pick[:, :j] == pick[:, j, None]).any(axis=1)
            np.copyto(pick[:, j], top[:, j], where=seen)
        pick = np.where(size >= k, pick, (u * size).astype(np.int64))
        indices = self.rows[self.starts[classes][:, None] + pick].reshape(n, -1)
        return Batch(indices, np.tile(classes, k))

