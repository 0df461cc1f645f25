"""Class-pair margin matrices built from per-class text embeddings.

One embedding vector per class goes in (title or attribute average,
computed upstream); out comes a symmetric C x C matrix of distances
normalized into [0, 1] with a zero diagonal, ready to drive the adaptive
loss. Two metrics (cosine, euclidean) and two normalizations:

* analytic: data-independent maps, (1 - cos) / 2 or chord / 2 on
  L2-normalized rows, both bounded by construction;
* minmax: affine rescale of the raw distances so the off-diagonal
  min hits 0 and the max hits 1.

Both metrics come from float64 Gram strips of the class rows (unit rows
for cosine and for analytic), and the float32 output is the only C x C
array: a first pass stores the float32-rounded cosines or raw distances,
each class pair computed once and mirrored, a strip of about
``BLOCK_BYTES`` at a time, and a second normalizes row blocks in float64,
so a build needs little more than the matrix, whatever T is.
``off_diagonal`` is a view of the off-diagonal entries, not a copy; the
loss takes a matrix through ``losses.margin_array``, which permutes it.

File format ``MGN1``: magic | u32 C | u8 metric | u8 norm_mode |
C class-id records (u32 byte length + UTF-8) | C*C float32, row-major,
little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data_io import ZERO_NORM_THRESHOLD, as_matrix, block_rows, checked_class_ids
from .data_io import read_container, read_rows
from .errors import (
    ConfigError,
    DegenerateRange,
    FormatError,
    InvariantViolation,
    NonFiniteData,
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
        e = self.embeddings
        norms = np.sqrt(np.einsum("ij,ij->i", e, e, dtype=np.float64))
        finite = np.isfinite(norms)  # float32 squares cannot overflow a float64 sum
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteData(f"class {self.class_ids[bad]!r} has a NaN or Inf text embedding")
        if np.any(norms < ZERO_NORM_THRESHOLD):
            bad = int(np.argmin(norms))
            raise ZeroNorm(f"class {self.class_ids[bad]!r} has an all-zero text embedding")


@dataclass
class MarginMatrix:
    """Class-pair distances in [0, 1], symmetric within 1e-6, zero diagonal, at least one class."""

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
        lo, hi = self.d.min(), self.d.max()  # NaN propagates to both
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteData("margin matrix has a NaN or Inf entry")
        if lo < 0.0 or hi > 1.0:
            raise InvariantViolation("margin entries must lie in [0, 1]")
        if np.any(np.diagonal(self.d) != 0.0):
            raise InvariantViolation("margin diagonal must be exactly zero")
        # strip d[i:i+step, i:] against its mirror: each pair once, in one BLOCK_BYTES buffer
        step = block_rows(4 * c)
        buf = np.empty(min(step, c) * c, np.float32)
        for i in range(0, c, step):
            top, side = self.d[i : i + step, i:], self.d[i:, i : i + step].T
            gap = np.subtract(top, side, out=buf[: top.size].reshape(top.shape))
            if np.max(np.abs(gap, out=gap)) > 1e-6:
                raise InvariantViolation("margin matrix must be symmetric")

    @property
    def num_classes(self) -> int:
        return self.d.shape[0]


def off_diagonal(d: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a C-contiguous C x C array, as a (C - 1, C) view.

    Dropping the first entry of the flat array puts each diagonal entry at
    the end of a row of C + 1; the view leaves that column out.
    """
    c = d.shape[0]
    return d.reshape(-1)[1:].reshape(c - 1, c + 1)[:, :-1]


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

    d = _pairwise(cte.embeddings, metric, unit=metric == METRIC_COSINE or norm_mode == NORM_ANALYTIC)
    c = d.shape[0]

    lo, hi = 0.0, 2.0  # analytic: both raw distances lie in [0, 2] on unit rows
    if norm_mode == NORM_MINMAX and c >= 2:
        off = off_diagonal(d)
        lo, hi = float(off.min()), float(off.max())
        if metric == METRIC_COSINE:  # 1 - cos falls as cos rises, rounding included
            lo, hi = 1.0 - hi, 1.0 - lo
        if hi - lo < 1e-12:
            raise DegenerateRange(
                "all off-diagonal distances are equal; min-max normalization undefined"
            )

    _normalize(d, metric == METRIC_COSINE, lo, hi)
    return MarginMatrix(d, list(cte.class_ids), metric, norm_mode)


def _pairwise(embeddings, metric: str, unit: bool) -> np.ndarray:
    """The C x C cosines or euclidean distances of the rows, rounded to float32.

    ``unit`` first scales the rows to unit norm. Each pair is computed once,
    in float64 Gram strips of about BLOCK_BYTES (rows i .. i + step, columns
    from i on), with ||a - b||^2 = a.a + b.b - 2 a.b for euclidean. A strip
    goes to its rows and, transposed, to its columns, its diagonal block's
    lower triangle copied from the upper, so d is symmetric by construction.
    The Gram's last bit depends on the BLAS kernel a block gets, and a unit
    row's float32 rounding leaves its norm off 1, so identical rows are set
    to cosine exactly 1 or distance exactly 0 rather than left to cancel.
    """
    x = embeddings.astype(np.float64)
    if unit:  # rounded to float32 like the embeddings they come from
        x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
    c = x.shape[0]
    if metric == METRIC_EUCLIDEAN:
        sq_norms = np.einsum("ij,ij->i", x, x)
    group = np.unique(x, axis=0, return_inverse=True)[1].reshape(-1)
    group = group if group.max(initial=-1) < c - 1 else None  # None: all rows differ
    step = block_rows(8 * c)
    d, gram = np.empty((c, c), np.float32), np.empty(min(step, c) * c)
    for i in range(0, c, step):
        n = min(step, c - i)
        g = np.matmul(x[i : i + n], x[i:].T, out=gram[: n * (c - i)].reshape(n, c - i))
        if metric == METRIC_COSINE:
            np.clip(g, -1.0, 1.0, out=g)
        else:
            g *= -2.0
            g += sq_norms[i : i + n, None]
            g += sq_norms[None, i:]
            np.sqrt(np.maximum(g, 0.0, out=g), out=g)
        if group is not None:
            g[group[i : i + n, None] == group[i:]] = 1.0 if metric == METRIC_COSINE else 0.0
        d[i : i + n, i:] = g
        d[i + n :, i : i + n] = g[:, n:].T
        np.copyto(d[i : i + n, i : i + n], g[:, :n].T, where=np.tri(n, k=-1, dtype=bool))
    return d


def _normalize(d, cosines: bool, lo: float, hi: float) -> None:
    """Map d's raw distances (1 - d for ``cosines``) through (x - lo) / (hi - lo), in place.

    Row blocks of about BLOCK_BYTES pass through one float64 buffer. Each
    entry is clipped to [0, 1], the diagonal set to 0, so a symmetric d stays so.
    """
    c = d.shape[0]
    step = block_rows(8 * c)
    buf = np.empty((min(step, c), c))
    for i in range(0, c, step):
        block = buf[: c - i]
        np.copyto(block, d[i : i + step])
        if cosines:
            np.subtract(1.0, block, out=block)
        block -= lo
        block /= hi - lo
        np.clip(block, 0.0, 1.0, out=block)
        d[i : i + step] = block
    np.fill_diagonal(d, 0.0)


def save_margin_matrix(m: MarginMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_MARGINS)
        f.write(struct.pack("<IBB", m.num_classes, _METRIC_CODES[m.metric], _NORM_CODES[m.norm_mode]))
        for cid in m.class_ids:
            raw = cid.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        f.write(memoryview(np.ascontiguousarray(m.d, dtype="<f4")))  # the array's own buffer


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
