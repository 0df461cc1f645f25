"""Binary containers for features, labels and class ids, plus bundle validation.

All containers are little-endian with a 4-byte magic so files round-trip
bit-exactly across machines and languages:

* matrix:  ``EMB1`` | u32 rows | u32 cols | rows*cols float32, row-major
* labels:  ``LBL1`` | u32 N | u32 C | N of u32 label indices, each < C

Payload length must equal what the header declares, exactly; trailing
bytes are a FormatError, never silently ignored. Class ids travel in a
UTF-8 text sidecar, one id per line. Native OSError (missing file,
permissions) propagates untouched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyGallery,
    FormatError,
    InvariantViolation,
    LabelOutOfRange,
    NonFiniteData,
)
from .tensor import as_matrix

MAGIC_MATRIX = b"EMB1"
MAGIC_LABELS = b"LBL1"

SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLIT_TAGS = (SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)


def read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: expected {n} bytes for {what}, got {len(buf)}")
    return buf


def expect_eof(f, path) -> None:
    if f.read(1):
        raise FormatError(f"{path}: trailing bytes after declared payload")


def matrix_to_bytes(m: np.ndarray) -> bytes:
    """One EMB1 block: magic, u32 shape, float32 payload."""
    m = as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData("refusing to serialize non-finite matrix")
    header = MAGIC_MATRIX + struct.pack("<II", m.shape[0], m.shape[1])
    return header + np.ascontiguousarray(m, dtype="<f4").tobytes()


def read_matrix_block(f, what: str = "matrix") -> np.ndarray:
    """Parse one EMB1 block from an open binary stream."""
    magic = read_exact(f, 4, f"{what} magic")
    if magic != MAGIC_MATRIX:
        raise FormatError(f"bad {what} magic {magic!r}, expected {MAGIC_MATRIX!r}")
    rows, cols = struct.unpack("<II", read_exact(f, 8, f"{what} shape header"))
    payload = read_exact(f, rows * cols * 4, f"{what} payload")
    m = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData(f"{what} payload contains NaN or Inf")
    return m


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        f.write(matrix_to_bytes(m))


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as f:
        try:
            m = read_matrix_block(f)
        except (FormatError, NonFiniteData) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        expect_eof(f, path)
    return m


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
    with open(path, "rb") as f:
        magic = read_exact(f, 4, "magic")
        if magic != MAGIC_LABELS:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC_LABELS!r}")
        n, c = struct.unpack("<II", read_exact(f, 8, "count header"))
        payload = read_exact(f, n * 4, "label payload")
        expect_eof(f, path)
    lab = np.frombuffer(payload, dtype="<u4").astype(np.int64)
    if lab.size and lab.max() >= c:
        raise LabelOutOfRange(f"{path}: label {lab.max()} >= declared class count {c}")
    return lab, c


def save_class_ids(class_ids: list[str], path) -> None:
    Path(path).write_text("".join(f"{cid}\n" for cid in class_ids), encoding="utf-8")


def load_class_ids(path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    ids = [line.strip() for line in lines if line.strip()]
    if len(set(ids)) != len(ids):
        raise InvariantViolation(f"{path}: duplicate class ids")
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
        c = len(self.class_ids)
        if len(set(self.class_ids)) != c:
            raise InvariantViolation("class ids must be unique")
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
    if class_ids_path is not None:
        class_ids = load_class_ids(class_ids_path)
        if len(class_ids) != num_classes:
            raise InvariantViolation(
                f"{len(class_ids)} class ids but labels declare {num_classes} classes"
            )
    else:
        class_ids = [str(i) for i in range(num_classes)]
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
