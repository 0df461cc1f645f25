"""Binary containers for features, labels and class ids, and the feature bundle.

All containers are little-endian with a 4-byte magic so files round-trip
bit-exactly across machines and languages:

* matrix:  ``EMB1`` | u32 rows | u32 cols | rows*cols float32, row-major
* labels:  ``LBL1`` | u32 N | u32 C | N of u32 label indices, each < C

Every container, MGN1 and CKP1 included, is read by ``read_container``:
the payload length must equal what the header declares, exactly (trailing
bytes, or a length the file cannot hold, are a FormatError), and every
error raised while reading one names the file. Every float32 payload (an
EMB1 matrix, CKP1's blocks, the MGN1 matrix) is read by ``read_rows`` in
blocks of about ``BLOCK_BYTES``, each checked for NaN and Inf and written
straight into an output allocated once; given ``map_rows``, each block is
mapped as it is read, so ``load_matrix(path, map_rows)`` never holds the
whole input matrix. Class ids travel in a UTF-8 text sidecar, one id per
line; ``checked_class_ids`` is their one rule. Native OSError (missing
file, permissions) propagates untouched. ``as_matrix`` is the one float32
2-D coercion every module uses, and ``ZERO_NORM_THRESHOLD`` the one bound
below which a row cannot be normalized.

A ``FeatureBundle`` holds features, or the head's embeddings of them when
``load_bundle`` is given ``map_rows``. It may be empty or miss classes: the
sampler refuses those for training (and warns about classes with fewer
than k rows), ``train`` non-finite feature rows, and ``recall_at_k`` an
empty query set or gallery.
"""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimMismatch,
    FormatError,
    InvariantViolation,
    LabelOutOfRange,
    MarginfitError,
    NonFiniteData,
    ZeroNorm,
)

ZERO_NORM_THRESHOLD = 1e-12  # a row with a smaller L2 norm raises ZeroNorm

# Payload bytes per read block. On the train-manyclass perfbench inputs
# (8 MB query and gallery feature files, F = 512, one BLAS thread), blocks of
# 128 KiB / 256 KiB / 512 KiB / 1 / 2 / 4 / 8 MiB give eval a peak RSS of
# 46.3 / 46.6 / 46.8 / 48.0 / 46.0 / 51.6 / 65.1 MB (up to 2 MiB the ranking
# sets it) and embed 37.0 / 37.5 / 37.7 / 37.1 / 40.6 / 48.9 / 61.9 MB; blocks
# under 1 MiB map the query file through the head up to 1.6x slower.
BLOCK_BYTES = 1 << 20

MAGIC_MATRIX = b"EMB1"
MAGIC_LABELS = b"LBL1"


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float32 2-D array; DimMismatch names ``name`` otherwise."""
    m = np.ascontiguousarray(a, dtype=np.float32)
    if m.ndim != 2:
        raise DimMismatch(f"{name} must be 2-D, got shape {m.shape}")
    return m


@contextmanager
def read_container(path, magic: bytes):
    """Open the container at ``path`` and check its 4-byte ``magic``.

    Yields a ``_Reader``. When the ``with`` block ends, the file must be at
    EOF. Every MarginfitError raised inside names ``path``, with its type kept.
    """
    with open(path, "rb") as f:
        read = _Reader(f)
        try:
            _expect_magic(read, magic, "file")
            yield read
            if f.read(1):
                raise FormatError("trailing bytes after declared payload")
        except MarginfitError as exc:
            raise type(exc)(f"{path}: {exc}") from None


class _Reader:
    """``read(n, what)`` returns the next n bytes; ``read.blocks(n, step, what)`` yields them.

    ``blocks`` yields ``step`` bytes at a time. A short file is a FormatError
    giving n and the bytes there were, raised in a regular file before any
    of the n is read (f.read allocates its size up front).
    """

    def __init__(self, f):
        st = os.fstat(f.fileno())
        self._f = f
        self._size = st.st_size if stat.S_ISREG(st.st_mode) else None  # a pipe has no size

    def __call__(self, n: int, what: str) -> bytes:
        return b"".join(self.blocks(n, max(n, 1), what))  # one block: joined without a copy

    def blocks(self, n: int, step: int, what: str):
        left = None if self._size is None else self._size - self._f.tell()
        if left is not None and n > left:
            raise FormatError(f"truncated file: expected {n} bytes for {what}, got {left}")
        for start in range(0, n, step):
            buf = self._f.read(min(step, n - start))
            if len(buf) != min(step, n - start):
                raise FormatError(
                    f"truncated file: expected {n} bytes for {what}, got {start + len(buf)}"
                )
            yield buf


def _expect_magic(read, magic: bytes, what: str) -> None:
    got = read(4, f"{what} magic")
    if got != magic:
        raise FormatError(f"bad {what} magic {got!r}, expected {magic!r}")


def matrix_to_bytes(m: np.ndarray) -> bytes:
    """One EMB1 block: magic, u32 shape, float32 payload."""
    m = as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData("refusing to serialize non-finite matrix")
    header = MAGIC_MATRIX + struct.pack("<II", m.shape[0], m.shape[1])
    return header + np.ascontiguousarray(m, dtype="<f4").tobytes()


def read_matrix_block(read, what: str) -> np.ndarray:
    """Parse one EMB1 block, magic included, through a ``read_container`` reader."""
    _expect_magic(read, MAGIC_MATRIX, what)
    return _read_matrix(read, what)


def _read_matrix(read, what: str, map_rows=None) -> np.ndarray:
    """Parse the EMB1 shape header and payload that follow the magic."""
    rows, cols = struct.unpack("<II", read(8, f"{what} shape header"))
    return read_rows(read, rows, cols, what, map_rows)


def read_rows(read, rows: int, cols: int, what: str, map_rows=None) -> np.ndarray:
    """Read a (rows, cols) float32 payload in blocks of about BLOCK_BYTES.

    Each block is checked for NaN and Inf, passed through ``map_rows`` when
    given, and copied into the float32 output, which is allocated once.
    ``map_rows`` must map each row on its own; it is called at least once,
    on a (0, cols) or (rows, 0) block when the payload is empty. A ZeroNorm
    it raises for a row of its block is re-raised naming the payload row.
    """
    row_bytes = 4 * cols
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    out, start = None, 0
    for buf in read.blocks(rows * row_bytes, max(step * row_bytes, 1), f"{what} payload"):
        block = np.frombuffer(buf, dtype="<f4").reshape(-1, cols)
        if not np.isfinite(block).all():
            raise NonFiniteData(f"{what} payload contains NaN or Inf")
        if map_rows is not None:
            try:
                block = map_rows(block)
            except ZeroNorm as exc:  # name the payload row, not its place in the block
                row = start + exc.row
                raise ZeroNorm(f"row {row} cannot be mapped: block {exc}", row=row) from None
        if out is None:
            out = np.empty((rows, block.shape[1]), np.float32)
        out[start : start + len(block)] = block
        start += len(block)
    if out is None:  # an empty payload reads no block
        out = np.empty((rows, cols), np.float32)
        if map_rows is not None:
            out = map_rows(out)
    return out


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        f.write(matrix_to_bytes(m))


def load_matrix(path, map_rows=None) -> np.ndarray:
    """Read an EMB1 matrix, or its rows through ``map_rows`` (see ``read_rows``)."""
    with read_container(path, MAGIC_MATRIX) as read:
        return _read_matrix(read, "matrix", map_rows)


def save_labels(labels, num_classes: int, path) -> None:
    lab = np.asarray(labels, dtype=np.uint32)
    if lab.ndim != 1:
        raise FormatError("labels must be a 1-D sequence")
    if lab.size and lab.max() >= num_classes:
        raise LabelOutOfRange(f"label {lab.max()} >= class count {num_classes}")
    with open(path, "wb") as f:
        f.write(MAGIC_LABELS)
        f.write(struct.pack("<II", lab.size, num_classes))
        f.write(lab.astype("<u4").tobytes())


def load_labels(path) -> tuple[np.ndarray, int]:
    """Returns (labels, num_classes)."""
    with read_container(path, MAGIC_LABELS) as read:
        n, c = struct.unpack("<II", read(8, "count header"))
        lab = np.frombuffer(read(n * 4, "label payload"), dtype="<u4").astype(np.int64)
        if lab.size and lab.max() >= c:
            raise LabelOutOfRange(f"label {lab.max()} >= declared class count {c}")
    return lab, c


def save_class_ids(class_ids: list[str], path) -> None:
    Path(path).write_text("".join(f"{cid}\n" for cid in class_ids), encoding="utf-8")


def load_class_ids(path) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    ids = [line.strip() for line in lines if line.strip()]
    return checked_class_ids(ids, len(ids), str(path))


def checked_class_ids(class_ids, count: int, owner: str) -> list[str]:
    """The ids of ``count`` classes, "0".."count-1" when ``class_ids`` is None.

    Given ids must number ``count`` and be unique, or InvariantViolation
    names ``owner``.
    """
    ids = [str(i) for i in range(count)] if class_ids is None else list(class_ids)
    if len(ids) != count:
        raise InvariantViolation(f"{owner}: {len(ids)} class ids for {count} classes")
    if len(set(ids)) != count:
        raise InvariantViolation(f"{owner}: class ids must be unique")
    return ids


@dataclass
class FeatureBundle:
    """Precomputed pooled features with dense integer labels."""

    features: np.ndarray  # (N, F) float32, or (N, D) embeddings
    labels: np.ndarray  # (N,) int
    class_ids: list[str]

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.features.shape[0],):
            raise InvariantViolation(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} feature rows"
            )
        self.class_ids = checked_class_ids(self.class_ids, len(self.class_ids), "bundle")
        c = len(self.class_ids)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= c):
            raise InvariantViolation(f"labels outside [0, {c})")

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class EvalSplit:
    """Query/gallery pair sharing one class-id namespace."""

    query: FeatureBundle
    gallery: FeatureBundle

    def __post_init__(self):
        if self.query.class_ids != self.gallery.class_ids:
            raise InvariantViolation("query and gallery must share the same class ids")


def load_bundle(features_path, labels_path, class_ids_path=None, map_rows=None) -> FeatureBundle:
    """Read a feature matrix, its labels and, if given, the class-id sidecar.

    Given ``map_rows``, the bundle holds the mapped rows (``read_rows``).
    """
    features = load_matrix(features_path, map_rows)
    labels, num_classes = load_labels(labels_path)
    class_ids = None if class_ids_path is None else load_class_ids(class_ids_path)
    class_ids = checked_class_ids(class_ids, num_classes, str(labels_path))
    return FeatureBundle(features, labels, class_ids)
