"""Dense float32 kernel ops: row normalization and pairwise similarity.

Matrices are 2-D C-contiguous ``float32`` arrays. Accumulation happens in
float64 internally; results are stored as float32. All functions are pure
and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, ZeroNorm

ZERO_NORM_THRESHOLD = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float32 2-D array."""
    m = np.ascontiguousarray(a, dtype=np.float32)
    if m.ndim != 2:
        raise DimMismatch(f"{name} must be 2-D, got shape {m.shape}")
    return m


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises ZeroNorm when a row's norm falls below 1e-12 (degenerate row).
    """
    m = as_matrix(m)
    m64 = m.astype(np.float64)
    norms = np.linalg.norm(m64, axis=1)
    if np.any(norms < ZERO_NORM_THRESHOLD):
        bad = int(np.argmin(norms))
        raise ZeroNorm(f"row {bad} has norm {norms[bad]:.3e}")
    return (m64 / norms[:, None]).astype(np.float32)


def pairwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of unit-norm rows, clamped to [-1, 1].

    Callers are responsible for passing unit-norm rows; the clamp only
    guards against fp drift, it does not normalize.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[1] != b.shape[1]:
        raise DimMismatch(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    sims = a.astype(np.float64) @ b.astype(np.float64).T
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims.astype(np.float32)


def pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between all row pairs of A and B.

    Computed from explicit differences (not the quadratic expansion) so
    identical rows give exactly 0.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[1] != b.shape[1]:
        raise DimMismatch(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    diff = a.astype(np.float64)[:, None, :] - b.astype(np.float64)[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).astype(np.float32)

