"""Synthetic desk-scale fixtures: clustered image features and hierarchical text.

Image features are Gaussian clusters around unit-normalized random centers;
class text embeddings can be given a two-level hierarchy (groups of classes
share a direction) so that margin matrices built from them carry structure
the image clusters alone do not have. Everything is a pure function of the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import EvalSplit, FeatureBundle
from .margins import ClassTextEmbeddings


@dataclass
class SyntheticDataset:
    train: FeatureBundle
    split: EvalSplit
    centers: np.ndarray  # (C, F) unit rows


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed % (1 << 64)))


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def clustered_features(
    num_classes: int = 50,
    feature_dim: int = 64,
    cluster_std: float = 0.15,
    train_per_class: int = 40,
    query_per_class: int = 10,
    gallery_per_class: int = 10,
    seed: int = 0,
) -> SyntheticDataset:
    """Unit-normalized Gaussian cluster centers; samples = center + std * noise."""
    rng = _rng(seed)
    centers = _unit_rows(rng, num_classes, feature_dim)
    class_ids = [f"class{i:03d}" for i in range(num_classes)]

    def draw(per_class):
        labels = np.repeat(np.arange(num_classes), per_class)
        noise = rng.standard_normal((labels.size, feature_dim)) * cluster_std
        feats = (centers[labels] + noise).astype(np.float32)
        return FeatureBundle(feats, labels, class_ids)

    train = draw(train_per_class)
    query = draw(query_per_class)
    gallery = draw(gallery_per_class)
    return SyntheticDataset(train, EvalSplit(query, gallery), centers.astype(np.float32))


def hierarchical_text_embeddings(
    num_classes: int = 50,
    num_groups: int = 5,
    text_dim: int = 16,
    seed: int = 1,
) -> ClassTextEmbeddings:
    """Class text vectors clustered into super-groups: group direction + offset.

    Offsets are standard normal draws scaled by 0.3.

    Classes land in groups round-robin (class i -> group i % num_groups).
    Group directions form a regular simplex (pairwise cosine -1/(G-1)), so
    cosine-derived margins separate cleanly into a within-group band and a
    larger cross-group band without saturating near 1.
    """
    if num_classes % num_groups != 0:
        raise ValueError("num_classes must be divisible by num_groups")
    if num_groups > text_dim:
        raise ValueError("need text_dim >= num_groups for simplex group directions")
    rng = _rng(seed)
    frame = np.linalg.qr(rng.standard_normal((text_dim, num_groups)))[0].T
    group_dirs = frame - frame.mean(axis=0)
    group_dirs /= np.linalg.norm(group_dirs, axis=1, keepdims=True)
    groups = np.arange(num_classes) % num_groups
    offsets = rng.standard_normal((num_classes, text_dim)) * 0.3
    vecs = group_dirs[groups] + offsets
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    class_ids = [f"class{i:03d}" for i in range(num_classes)]
    return ClassTextEmbeddings(vecs.astype(np.float32), class_ids)


def equidistant_text_embeddings(
    num_classes: int = 50,
    text_dim: int = 64,
    pair_cosine: float = 0.4,
    seed: int = 1,
) -> ClassTextEmbeddings:
    """Structureless control: every class pair at (nearly) the same distance.

    Each class is a shared direction plus its own orthonormal component, so
    all pairwise cosines equal ``pair_cosine`` and the margin matrix comes
    out uniform at (1 - pair_cosine) / 2.
    """
    if num_classes >= text_dim:
        raise ValueError("need text_dim > num_classes for orthonormal components")
    if not 0.0 <= pair_cosine < 1.0:
        raise ValueError("pair_cosine must be in [0, 1)")
    rng = _rng(seed)
    frame = np.linalg.qr(rng.standard_normal((text_dim, num_classes + 1)))[0].T
    shared, uniques = frame[0], frame[1:]
    vecs = np.sqrt(pair_cosine) * shared + np.sqrt(1.0 - pair_cosine) * uniques
    class_ids = [f"class{i:03d}" for i in range(num_classes)]
    return ClassTextEmbeddings(vecs.astype(np.float32), class_ids)
