"""Class-pair margin matrices built from per-class text embeddings.

One embedding vector per class goes in (title or attribute average,
computed upstream); out comes a symmetric C x C matrix of distances
normalized into [0, 1] with a zero diagonal, ready to drive the adaptive
loss. Two metrics (cosine, euclidean) and two normalizations:

* analytic: data-independent maps, (1 - cos) / 2 or chord / 2 on
  L2-normalized rows, both bounded by construction;
* minmax: affine rescale of the raw distances so the off-diagonal
  min hits 0 and the max hits 1.

Both metrics come from one float64 Gram matrix of the rows (unit rows
for cosine and for analytic), so memory stays O(C^2) whatever T is.

File format ``MGN1``: magic | u32 C | u8 metric | u8 norm_mode |
C class-id records (u32 byte length + UTF-8) | C*C float32, row-major,
little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data_io import ZERO_NORM_THRESHOLD, as_matrix, checked_class_ids, read_container, read_rows
from .errors import (
    ConfigError,
    DegenerateRange,
    FormatError,
    InvariantViolation,
    NonFiniteData,
    UnknownClass,
    ZeroNorm,
)

METRIC_COSINE = "cosine"
METRIC_EUCLIDEAN = "euclidean"
METRICS = (METRIC_COSINE, METRIC_EUCLIDEAN)

NORM_ANALYTIC = "analytic"
NORM_MINMAX = "minmax"
NORM_MODES = (NORM_ANALYTIC, NORM_MINMAX)

MAGIC_MARGINS = b"MGN1"
_METRIC_CODES = {METRIC_COSINE: 0, METRIC_EUCLIDEAN: 1}
_NORM_CODES = {NORM_ANALYTIC: 0, NORM_MINMAX: 1}


@dataclass
class ClassTextEmbeddings:
    """One text-modality vector per class."""

    embeddings: np.ndarray  # (C, T) float32
    class_ids: list[str] | None = None

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings, "class text embeddings")
        self.class_ids = checked_class_ids(
            self.class_ids, self.embeddings.shape[0], "class text embeddings"
        )
        norms = np.linalg.norm(self.embeddings.astype(np.float64), axis=1)
        if np.any(norms < ZERO_NORM_THRESHOLD):
            bad = int(np.argmin(norms))
            raise ZeroNorm(f"class {self.class_ids[bad]!r} has an all-zero text embedding")


@dataclass
class MarginMatrix:
    """Symmetric class-pair distances in [0, 1], zero diagonal, at least one class."""

    d: np.ndarray  # (C, C) float32
    class_ids: list[str]
    metric: str = METRIC_COSINE
    norm_mode: str = NORM_ANALYTIC

    def __post_init__(self):
        self.d = as_matrix(self.d, "margin matrix")
        c = self.d.shape[0]
        if self.d.shape != (c, c):
            raise InvariantViolation(f"margin matrix must be square, got {self.d.shape}")
        if c == 0:
            raise InvariantViolation("margin matrix has no classes")
        self.class_ids = checked_class_ids(self.class_ids, c, "margin matrix")
        if self.metric not in METRICS or self.norm_mode not in NORM_MODES:
            raise InvariantViolation(
                f"unknown metric/norm combination ({self.metric!r}, {self.norm_mode!r})"
            )
        if not np.all(np.isfinite(self.d)):
            raise NonFiniteData("margin matrix has a NaN or Inf entry")
        if np.any(self.d < 0.0) or np.any(self.d > 1.0):
            raise InvariantViolation("margin entries must lie in [0, 1]")
        if np.any(np.diagonal(self.d) != 0.0):
            raise InvariantViolation("margin diagonal must be exactly zero")
        if np.max(np.abs(self.d - self.d.T)) > 1e-6:
            raise InvariantViolation("margin matrix must be symmetric")

    @property
    def num_classes(self) -> int:
        return self.d.shape[0]


def build_margin_matrix(
    cte: ClassTextEmbeddings,
    metric: str = METRIC_COSINE,
    norm_mode: str = NORM_ANALYTIC,
) -> MarginMatrix:
    """Pairwise class distances, normalized into [0, 1]."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if norm_mode not in NORM_MODES:
        raise ConfigError(f"unknown norm mode {norm_mode!r}")

    x = cte.embeddings.astype(np.float64)
    if metric == METRIC_COSINE or norm_mode == NORM_ANALYTIC:
        # unit rows, rounded to float32 like the embeddings they come from
        x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)

    # One (C, C) float64 block, worked in place: the Gram matrix, then the
    # cosines or distances rounded to float32, the raw distances, the margins.
    d = x @ x.T
    if metric == METRIC_COSINE:
        np.clip(d, -1.0, 1.0, out=d)
    else:
        # ||a - b||^2 = a.a + b.b - 2 a.b; equal dot products cancel to exactly 0
        sq_norms = np.diagonal(d).copy()
        d *= -2.0
        d += sq_norms[:, None]
        d += sq_norms[None, :]
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    d[...] = d.astype(np.float32)
    if metric == METRIC_COSINE:
        np.subtract(1.0, d, out=d)

    c = d.shape[0]
    if norm_mode == NORM_ANALYTIC:
        d /= 2.0  # both raw distances lie in [0, 2] on unit rows
    elif c >= 2:
        off = d[~np.eye(c, dtype=bool)]
        lo, hi = off.min(), off.max()
        if hi - lo < 1e-12:
            raise DegenerateRange(
                "all off-diagonal distances are equal; min-max normalization undefined"
            )
        d -= lo
        d /= hi - lo

    d += d.T  # numpy buffers the overlapping transpose
    d /= 2.0
    np.clip(d, 0.0, 1.0, out=d)
    np.fill_diagonal(d, 0.0)
    return MarginMatrix(d.astype(np.float32), list(cte.class_ids), metric, norm_mode)


def align_margin_matrix(m: MarginMatrix, class_ids: list[str]) -> MarginMatrix:
    """Permute rows/cols to follow ``class_ids``; UnknownClass names missing and extra ids."""
    if list(class_ids) == m.class_ids:
        return m
    row = {cid: i for i, cid in enumerate(m.class_ids)}
    missing = sorted(set(class_ids) - row.keys())
    extra = sorted(row.keys() - set(class_ids))
    if missing or extra:
        raise UnknownClass(
            f"margin matrix ids differ from the class ids: missing {missing[:5]}, "
            f"extra {extra[:5]}"
        )
    perm = np.array([row[cid] for cid in class_ids])
    return MarginMatrix(m.d[np.ix_(perm, perm)], list(class_ids), m.metric, m.norm_mode)


def save_margin_matrix(m: MarginMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_MARGINS)
        f.write(struct.pack("<IBB", m.num_classes, _METRIC_CODES[m.metric], _NORM_CODES[m.norm_mode]))
        for cid in m.class_ids:
            raw = cid.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        f.write(np.ascontiguousarray(m.d, dtype="<f4").tobytes())


def load_margin_matrix(path) -> MarginMatrix:
    metric_names = {v: k for k, v in _METRIC_CODES.items()}
    norm_names = {v: k for k, v in _NORM_CODES.items()}
    with read_container(path, MAGIC_MARGINS) as read:
        c, metric_code, norm_code = struct.unpack("<IBB", read(6, "header"))
        if metric_code not in metric_names or norm_code not in norm_names:
            raise FormatError(f"unknown metric/norm codes ({metric_code}, {norm_code})")
        class_ids = []
        for i in range(c):
            (length,) = struct.unpack("<I", read(4, f"class id {i} length"))
            try:
                class_ids.append(read(length, f"class id {i}").decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"class id {i} is not valid UTF-8") from None
        d = read_rows(read, c, c, "margin")
        return MarginMatrix(d, class_ids, metric_names[metric_code], norm_names[norm_code])
