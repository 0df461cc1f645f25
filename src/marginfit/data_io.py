"""Binary containers for features, labels and class ids, plus bundle validation.

All containers are little-endian with a 4-byte magic so files round-trip
bit-exactly across machines and languages:

* matrix:  ``EMB1`` | u32 rows | u32 cols | rows*cols float32, row-major
* labels:  ``LBL1`` | u32 N | u32 C | N of u32 label indices, each < C

Every container, MGN1 and CKP1 included, is read by ``read_container``:
the payload length must equal what the header declares, exactly (trailing
bytes, or a length the file cannot hold, are a FormatError), and every
FormatError names the file. Class ids travel in a UTF-8 text sidecar, one
id per line; ``checked_class_ids`` is their one rule. Native OSError
(missing file, permissions) propagates untouched. ``as_matrix`` is the one
float32 2-D coercion every module uses, and ``ZERO_NORM_THRESHOLD`` the one
bound below which a row cannot be normalized.
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
    EmptyGallery,
    FormatError,
    InvariantViolation,
    LabelOutOfRange,
    NonFiniteData,
)

ZERO_NORM_THRESHOLD = 1e-12  # a row with a smaller L2 norm raises ZeroNorm

MAGIC_MATRIX = b"EMB1"
MAGIC_LABELS = b"LBL1"

SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLIT_TAGS = (SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float32 2-D array; DimMismatch names ``name`` otherwise."""
    m = np.ascontiguousarray(a, dtype=np.float32)
    if m.ndim != 2:
        raise DimMismatch(f"{name} must be 2-D, got shape {m.shape}")
    return m


@contextmanager
def read_container(path, magic: bytes):
    """Open the container at ``path`` and check its 4-byte ``magic``.

    Yields ``read(n, what)``, which returns exactly n bytes or raises
    FormatError; in a regular file it raises before reading when fewer than
    n bytes are left. When the ``with`` block ends, the file must be at EOF.
    Every FormatError and NonFiniteData raised inside names ``path``.
    """
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else None  # a pipe has no size

        def read(n: int, what: str) -> bytes:
            # f.read(n) allocates n bytes up front, so a regular file's size bounds n first
            if size is not None and n > size - f.tell():
                raise FormatError(
                    f"truncated file: expected {n} bytes for {what}, got {size - f.tell()}"
                )
            buf = f.read(n)
            if len(buf) != n:
                raise FormatError(f"truncated file: expected {n} bytes for {what}, got {len(buf)}")
            return buf

        try:
            _expect_magic(read, magic, "file")
            yield read
            if f.read(1):
                raise FormatError("trailing bytes after declared payload")
        except (FormatError, NonFiniteData) as exc:
            raise type(exc)(f"{path}: {exc}") from None


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


def _read_matrix(read, what: str) -> np.ndarray:
    """Parse the EMB1 shape header and payload that follow the magic."""
    rows, cols = struct.unpack("<II", read(8, f"{what} shape header"))
    payload = read(rows * cols * 4, f"{what} payload")
    m = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData(f"{what} payload contains NaN or Inf")
    return m


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        f.write(matrix_to_bytes(m))


def load_matrix(path) -> np.ndarray:
    with read_container(path, MAGIC_MATRIX) as read:
        return _read_matrix(read, "matrix")


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
        payload = read(n * 4, "label payload")
    lab = np.frombuffer(payload, dtype="<u4").astype(np.int64)
    if lab.size and lab.max() >= c:
        raise LabelOutOfRange(f"{path}: label {lab.max()} >= declared class count {c}")
    return lab, c


def save_class_ids(class_ids: list[str], path) -> None:
    Path(path).write_text("".join(f"{cid}\n" for cid in class_ids), encoding="utf-8")


def load_class_ids(path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    split_tag: str = SPLIT_TRAIN

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.split_tag not in SPLIT_TAGS:
            raise InvariantViolation(f"unknown split tag {self.split_tag!r}")
        if self.features.shape[0] < 1:
            raise InvariantViolation("bundle must contain at least one sample")
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


def load_bundle(
    features_path, labels_path, split_tag: str = SPLIT_TRAIN, class_ids_path=None
) -> FeatureBundle:
    """Read a feature matrix and its labels; an empty gallery raises EmptyGallery."""
    features = load_matrix(features_path)
    if split_tag == SPLIT_GALLERY and features.shape[0] == 0:
        raise EmptyGallery(f"{features_path}: gallery has no rows")
    labels, num_classes = load_labels(labels_path)
    class_ids = None if class_ids_path is None else load_class_ids(class_ids_path)
    class_ids = checked_class_ids(class_ids, num_classes, str(labels_path))
    return FeatureBundle(features, labels, class_ids, split_tag)


def validate_bundle(bundle: FeatureBundle, k: int = 5) -> list[str]:
    """Sanity-check a loaded bundle.

    Non-finite feature rows are a hard error. Returns warnings for classes
    the sampler will have to draw with replacement (< k samples) and for
    all-zero feature rows. Train bundles must reference every class.
    """
    finite = np.isfinite(bundle.features).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteData(f"feature row {bad} contains NaN or Inf")

    warnings = []
    counts = np.bincount(bundle.labels, minlength=bundle.num_classes)
    if bundle.split_tag == SPLIT_TRAIN and np.any(counts == 0):
        missing = [bundle.class_ids[i] for i in np.flatnonzero(counts == 0)[:5]]
        raise InvariantViolation(f"train bundle has classes with no samples: {missing}")
    for idx in np.flatnonzero((counts > 0) & (counts < k)):
        warnings.append(
            f"class {bundle.class_ids[idx]!r} has {counts[idx]} samples < k={k}; "
            "sampler will draw with replacement"
        )
    zero_rows = np.flatnonzero(~bundle.features.any(axis=1))
    for idx in zero_rows[:20]:
        warnings.append(f"feature row {idx} is all zeros")
    return warnings
