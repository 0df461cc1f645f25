"""Recall@K retrieval evaluation on float and sign-binarized embeddings.

Float mode ranks the gallery by descending cosine (embeddings are unit-norm,
so the dot product is the cosine), scored in float64. Binary mode maps every
dimension to a sign code (strictly positive -> +1, zero or negative -> -1,
see ``sign_codes``) and ranks by ascending Hamming distance, scored as the
float32 product of the codes, ``D - 2 * Hamming``, which is exact for
D < 2**24. Both modes break score ties by ascending gallery index, so
reports are deterministic.

Ranking is sort-free. Recall@K needs only the rank of each query's first
same-class gallery item: the number of items that score strictly higher
than its best same-class item, plus the items that tie that score at a
lower gallery index. One kernel computes it for both modes, scoring
``CHUNK_ROWS`` queries at a time against the whole gallery, so memory is
O(CHUNK_ROWS * G) rather than O(Q * G), in the manner of the tiled
brute-force k-NN of Johnson et al. (arXiv:1702.08734).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import EvalSplit, as_matrix
from .errors import ConfigError, DimMismatch, EmptyGallery, InvariantViolation, NonFiniteData
from .trainer import Checkpoint, forward_head

MODE_FLOAT = "float"
MODE_BINARY = "binary"
REPORT_MODES = (MODE_FLOAT, MODE_BINARY)

DEFAULT_KS = (1, 5, 10, 20, 30, 40, 50)

# Queries scored per block; a block holds CHUNK_ROWS x G scores.
CHUNK_ROWS = 256


@dataclass
class RetrievalReport:
    ks: list[int]
    recall: list[float]
    mode: str
    num_queries: int

    def __post_init__(self):
        if any(b < a for a, b in zip(self.recall, self.recall[1:])):
            raise InvariantViolation("recall must be non-decreasing in K")


def sign_codes(e: np.ndarray) -> np.ndarray:
    """+1 where a value is strictly positive, -1 elsewhere (zeros too), as float32."""
    codes = (as_matrix(e) > 0.0).astype(np.float32)
    codes *= 2.0
    codes -= 1.0
    return codes


def _first_hit_ranks(
    query: np.ndarray, gallery: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray
) -> np.ndarray:
    """Rank (0-based) of the first same-class gallery item per query.

    Scores are ``query @ gallery.T`` in the operands' dtype, higher first,
    ties broken by ascending gallery index.
    """
    # no-hit sentinel must exceed any K, including K > gallery size
    no_hit = np.iinfo(np.int64).max
    ranks = np.empty(query.shape[0], dtype=np.int64)
    cols = np.arange(gallery.shape[0])
    for lo in range(0, query.shape[0], CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        scores = query[lo:hi] @ gallery.T
        same = query_labels[lo:hi, None] == gallery_labels
        best = np.max(scores, axis=1, where=same, initial=-np.inf, keepdims=True)
        at_best = scores == best
        first = np.argmax(at_best & same, axis=1)
        rank = np.count_nonzero(scores > best, axis=1)
        rank += np.count_nonzero(at_best & (cols < first[:, None]), axis=1)
        ranks[lo:hi] = np.where(np.isfinite(best[:, 0]), rank, no_hit)
    return ranks


def recall_at_k(
    query_e: np.ndarray,
    query_labels,
    gallery_e: np.ndarray,
    gallery_labels,
    ks=DEFAULT_KS,
    mode: str = MODE_FLOAT,
) -> RetrievalReport:
    """Fraction of queries with a same-class gallery item in the top K.

    Ranking is deterministic: descending cosine (float mode) or ascending
    Hamming distance (binary mode), ties broken by ascending gallery index.
    """
    query_e = as_matrix(query_e, "query embeddings")
    gallery_e = as_matrix(gallery_e, "gallery embeddings")
    qlab = np.asarray(query_labels, dtype=np.int64)
    glab = np.asarray(gallery_labels, dtype=np.int64)
    if gallery_e.shape[0] == 0:
        raise EmptyGallery("gallery has no rows")
    if query_e.shape[0] == 0:
        raise InvariantViolation("no queries to rank")
    if query_e.shape[1] != gallery_e.shape[1]:
        raise DimMismatch(
            f"query dim {query_e.shape[1]} != gallery dim {gallery_e.shape[1]}"
        )
    if qlab.shape != (query_e.shape[0],) or glab.shape != (gallery_e.shape[0],):
        raise DimMismatch("label lengths must match embedding rows")
    for name, e in (("query", query_e), ("gallery", gallery_e)):
        if not np.isfinite(e).all():
            raise NonFiniteData(f"{name} embeddings contain NaN or Inf")
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError(f"ks must be a non-empty ascending list of positives, got {ks}")
    if mode not in REPORT_MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {REPORT_MODES}")

    if mode == MODE_FLOAT:
        query, gallery = query_e.astype(np.float64), gallery_e.astype(np.float64)
    else:
        query, gallery = sign_codes(query_e), sign_codes(gallery_e)
    first = _first_hit_ranks(query, gallery, qlab, glab)
    recall = [float(np.mean(first < k)) for k in ks]
    return RetrievalReport(ks, recall, mode, query_e.shape[0])


def compare_float_binary(
    checkpoint: Checkpoint, split: EvalSplit, ks=DEFAULT_KS
) -> tuple[RetrievalReport, RetrievalReport]:
    """Float and binary reports over the same embeddings, side by side."""
    query_e = forward_head(checkpoint.head, split.query.features)
    gallery_e = forward_head(checkpoint.head, split.gallery.features)
    float_report = recall_at_k(
        query_e, split.query.labels, gallery_e, split.gallery.labels, ks, MODE_FLOAT
    )
    binary_report = recall_at_k(
        query_e, split.query.labels, gallery_e, split.gallery.labels, ks, MODE_BINARY
    )
    return float_report, binary_report


def machine_lines(report: RetrievalReport) -> list[str]:
    """Stable key=value lines: mode, num_queries, one recall@K per K."""
    lines = [f"mode={report.mode}", f"num_queries={report.num_queries}"]
    lines.extend(
        f"recall@{k}={r:.6f}" for k, r in zip(report.ks, report.recall)
    )
    return lines


def format_report(report: RetrievalReport) -> str:
    """Human-readable table."""
    header = " | ".join(f"R@{k}" for k in report.ks)
    values = " | ".join(f"{100 * r:5.2f}" for r in report.recall)
    return (
        f"{report.mode} retrieval over {report.num_queries} queries (recall %)\n"
        f"  {header}\n  {values}"
    )
