"""Binary containers for features, labels and class ids, and the feature bundle.

All containers are little-endian with a 4-byte magic so files round-trip
bit-exactly across machines and languages:

* matrix:  ``EMB1`` | u32 rows | u32 cols | rows*cols float32, row-major
* labels:  ``LBL1`` | u32 N | u32 C | N of u32 label indices, each < C

Every container, MGN1 and CKP1 included, is read by ``read_container``:
the payload length must equal what the header declares, exactly (trailing
bytes, or a length the file or pipe does not hold, are a FormatError), and
every error raised while reading one names the file. Every float32 payload (an
EMB1 matrix, CKP1's blocks, the MGN1 matrix) is read by ``read_rows`` in
blocks of about ``BLOCK_BYTES``, each checked for NaN and Inf (by its min
and max, with no mask) and written straight into an output allocated once;
given ``map_rows``, each block is mapped as it is read, into an output of
the mapped rows' width and dtype, so ``load_matrix(path, map_rows)`` never
holds the whole input matrix (``eval --binary`` holds only the uint8 sign
bits of its embeddings); ``write_matrix_block`` writes each EMB1 block from
its array's own buffer. Class ids travel in a UTF-8 text sidecar, one id per
line; ``checked_class_ids`` is their one rule. Native OSError (missing
file, permissions) propagates untouched. ``as_matrix`` is the one 2-D
coercion every module uses, to float32 unless told otherwise, and
``ZERO_NORM_THRESHOLD`` the one bound below which a row cannot be
normalized.

A ``FeatureBundle`` holds features, labels and class ids. It may be empty
or miss classes: the sampler refuses those for training (and warns about
classes with fewer than k rows), ``train`` non-finite feature rows, and
``recall_at_k`` an empty query set or gallery.
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

# Payload bytes per read block, and float32 bytes per score block of the
# ranking (``evaluation.BLOCK_COLS``). On the train-manyclass perfbench inputs
# (8 MB query and gallery feature files, F = 512, D = 128, one BLAS thread),
# blocks of 256 KiB / 512 KiB / 1 / 2 / 4 MiB give eval a peak RSS of 35.1 /
# 35.6 / 36.4 / 38.8 / 40.8 MB (31.2 / 31.7 / 32.6 / 34.2 / 37.5 with --binary,
# which holds packed sign bits) and embed 36.1 / 36.5 / 36.3 / 35.9 / 37.8 MB,
# medians of 3 fresh processes. On a 2-vCPU host the float32 head maps the
# query file in 6-7 ms up to 1 MiB and in 8-12 ms at 2 and 4 MiB.
BLOCK_BYTES = 1 << 20

MAGIC_MATRIX = b"EMB1"
MAGIC_LABELS = b"LBL1"


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each in a block of about BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // max(row_bytes, 1))


def as_matrix(a, name: str = "matrix", dtype=np.float32) -> np.ndarray:
    """Coerce to a C-contiguous 2-D array of ``dtype``; DimMismatch names ``name`` otherwise."""
    m = np.ascontiguousarray(a, dtype=dtype)
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

    ``blocks`` yields ``step`` bytes at a time, or, given ``into`` (a
    C-contiguous array of n bytes, or of ``step`` bytes), reads each block
    into its place there, or into the start of the one buffer, and yields
    that slice. A short file is a FormatError giving n and the
    bytes there were, raised in a regular file before any of the n is read
    (f.read allocates its size up front); a stream with no size (a pipe) is
    read in BLOCK_BYTES steps, so it fails when its bytes end. ``read``
    takes n bytes with one f.read, unless they are more than BLOCK_BYTES of
    a stream.
    """

    def __init__(self, f):
        st = os.fstat(f.fileno())
        self._f = f
        self.sized = stat.S_ISREG(st.st_mode)
        self._size = st.st_size

    def __call__(self, n: int, what: str) -> bytes:
        if not self.sized and n > BLOCK_BYTES:
            return b"".join(self.blocks(n, BLOCK_BYTES, what))
        self.check_length(n, what)
        buf = self._f.read(n)
        if len(buf) != n:
            raise FormatError(f"truncated file: expected {n} bytes for {what}, got {len(buf)}")
        return buf

    def check_length(self, n: int, what: str) -> None:
        """FormatError if a regular file holds fewer than the next n bytes."""
        left = self._size - self._f.tell() if self.sized else None
        if left is not None and n > left:
            raise FormatError(f"truncated file: expected {n} bytes for {what}, got {left}")

    def blocks(self, n: int, step: int, what: str, into=None):
        self.check_length(n, what)
        flat = None if into is None else into.reshape(-1).view(np.uint8)
        for start in range(0, n, step):
            size = min(step, n - start)
            if flat is None:
                buf = self._f.read(size)
                got = len(buf)
            else:
                at = start % flat.size  # 0 in a buffer of step bytes
                buf = flat[at : at + size]
                got = self._f.readinto(buf)
            if got != size:
                raise FormatError(
                    f"truncated file: expected {n} bytes for {what}, got {start + got}"
                )
            yield buf


def _expect_magic(read, magic: bytes, what: str) -> None:
    got = read(4, f"{what} magic")
    if got != magic:
        raise FormatError(f"bad {what} magic {got!r}, expected {magic!r}")


def write_matrix_block(f, m: np.ndarray) -> None:
    """Write one EMB1 block (magic, u32 shape, float32 payload) from the array's own buffer."""
    m = as_matrix(m, dtype="<f4")
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):  # NaN propagates to both
        raise NonFiniteData("refusing to serialize non-finite matrix")
    f.write(MAGIC_MATRIX + struct.pack("<II", *m.shape))
    f.write(memoryview(m))


def read_matrix_header(read, what: str) -> tuple[int, int]:
    """The declared (rows, cols) of one EMB1 block, magic included; ``read_rows`` reads the rest."""
    _expect_magic(read, MAGIC_MATRIX, what)
    return struct.unpack("<II", read(8, f"{what} shape header"))


def read_matrix_block(read, what: str) -> np.ndarray:
    """Parse one EMB1 block, magic included, through a ``read_container`` reader."""
    return read_rows(read, *read_matrix_header(read, what), what)


def read_rows(read, rows: int, cols: int, what: str, map_rows=None, check_rows=None) -> np.ndarray:
    """Read a (rows, cols) float32 payload in blocks of about BLOCK_BYTES.

    Each block is checked for NaN and Inf (its min and max, so no mask is
    made), then by ``check_rows`` (which may raise, so faults are raised in
    file order), passed through ``map_rows``, and put in the output, which
    is allocated once. A sized file with no ``map_rows`` is read straight
    into a float32 output. Its mapped blocks, each read into one block
    buffer, are copied at once into an output of the first mapped block's
    width and dtype (so ``map_rows`` may shrink the rows, as eval's sign
    bits do). A stream with no size is read a fresh block at a time, and its
    blocks are joined once all of them are read. An empty payload is one
    (0, cols) or (rows, 0) float32 block, checked and mapped into the output.
    A ZeroNorm ``map_rows`` raises for a row of its block is re-raised
    naming the payload row.
    """
    row_bytes, what = 4 * cols, f"{what} payload"
    n, step = rows * row_bytes, block_rows(row_bytes) * max(row_bytes, 1)
    read.check_length(n, what)  # before any output is allocated
    out = into = None
    if read.sized and map_rows is not None:  # each block is mapped and copied out at once
        into = np.empty(min(n, step), np.uint8)
    elif read.sized:
        out = into = np.empty((rows, cols), "<f4")
    start, streamed = 0, []
    for buf in read.blocks(n, step, what, into):
        block = np.frombuffer(buf, dtype="<f4").reshape(-1, cols)
        lo, hi = block.min(), block.max()  # NaN propagates to both
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteData(f"{what} contains NaN or Inf")
        if check_rows is not None:
            check_rows(block)
        if map_rows is not None:
            try:
                block = map_rows(block)
            except ZeroNorm as exc:  # name the payload row, not its place in the block
                row = start + exc.row
                raise ZeroNorm(f"row {row} cannot be mapped: block {exc}", row=row) from None
        if not read.sized:  # a stream may end early: hold the blocks read, never the declared length
            streamed.append(block)
        elif map_rows is not None:
            if out is None:
                out = np.empty((rows, block.shape[1]), block.dtype)
            out[start : start + len(block)] = block
        start += len(block)
    if streamed:
        out = np.concatenate(streamed)
    if n == 0:  # an empty payload reads no block
        out = np.empty((rows, cols), np.float32)
        if check_rows is not None:
            check_rows(out)
        if map_rows is not None:
            out = map_rows(out)
    return out


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        write_matrix_block(f, m)


def load_matrix(path, map_rows=None) -> np.ndarray:
    """Read an EMB1 matrix, or its rows through ``map_rows`` (see ``read_rows``)."""
    with read_container(path, MAGIC_MATRIX) as read:
        rows, cols = struct.unpack("<II", read(8, "matrix shape header"))
        return read_rows(read, rows, cols, "matrix", map_rows)


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

    features: np.ndarray  # (N, F) float32
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


def load_bundle(features_path, labels_path, class_ids_path=None) -> FeatureBundle:
    """Read a feature matrix, its labels and, if given, the class-id sidecar."""
    features = load_matrix(features_path)
    labels, num_classes = load_labels(labels_path)
    if labels.size < num_classes:  # refused before C default ids are built
        rule = f"{num_classes} classes for {labels.size} labels leave a class with no rows"
        raise InvariantViolation(f"{labels_path}: {rule}")
    class_ids = None if class_ids_path is None else load_class_ids(class_ids_path)
    class_ids = checked_class_ids(class_ids, num_classes, str(labels_path))
    return FeatureBundle(features, labels, class_ids)
