"""Recall@K retrieval evaluation on float and sign-binarized embeddings.

Float mode ranks the gallery by descending cosine (embeddings are unit-norm,
so the dot product is the cosine). Binary mode maps every dimension to a
sign code (strictly positive -> +1, zero or negative -> -1, see
``sign_codes``) and ranks by ascending Hamming distance, scored as the
float32 product of the codes, ``D - 2 * Hamming``, which is exact for
D < 2**24. Both modes break score ties by ascending gallery index, so
reports are deterministic.

Ranking is sort-free. Recall@K needs only the rank of each query's first
same-class gallery item: the number of items that score strictly higher
than its best same-class item, plus the items that tie that score at a
lower gallery index. One kernel computes it for both modes, scoring
``CHUNK_ROWS`` queries at a time against the whole gallery, so memory is
O(CHUNK_ROWS * G) rather than O(Q * G), in the manner of the tiled
brute-force k-NN of Johnson et al. (arXiv:1702.08734). The gallery is
sorted by class once (a stable argsort), so each query's best same-class
score is a max over one run of columns of its score block, and its rank is
counts on that block.

Float mode scores in float32 and keeps a query's rank only when no other
gallery item scores within float32's rounding band of that best score
(``_rounding_band``); such a rank is the exact one. Every other query, a
near-tie, a duplicate row or a product that overflows, is re-ranked in
float64 by the same kernel with the tie rule.
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


def _rounding_band(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Per query, the gap below which two float32 scores may rank otherwise exactly.

    A float32 dot product of D terms is within gamma32 * ||q|| * ||g|| of the
    exact one (gamma = D*u / (1 - D*u), u the unit roundoff), plus D times
    the smallest normal float32 for products that underflow. Two float32
    scores further apart than twice that bound plus twice the float64 one
    rank the same in float32, in float64 and exactly. A query whose scores,
    or its band's edges, could overflow float32 gets NaN, which no score
    meets, so it is re-ranked.
    """
    dim = query.shape[1]
    u32, u64 = np.finfo(np.float32).eps / 2, np.finfo(np.float64).eps / 2
    gamma32, gamma64 = dim * u32 / (1 - dim * u32), dim * u64 / (1 - dim * u64)
    query_norms = np.sqrt(np.einsum("ij,ij->i", query, query, dtype=np.float64))
    gallery_norm = np.sqrt(np.max(np.einsum("ij,ij->i", gallery, gallery, dtype=np.float64)))
    bound = query_norms * gallery_norm
    band = 2 * ((gamma32 + gamma64) * bound + dim * float(np.finfo(np.float32).tiny))
    band[bound * (1 + gamma32) + band > np.finfo(np.float32).max] = np.nan
    return band


def _first_hit_ranks(
    query: np.ndarray,
    gallery: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    band: np.ndarray | None = None,
) -> np.ndarray:
    """Rank (0-based) of the first same-class gallery item per query.

    Scores are ``query @ gallery.T`` in the operands' dtype, higher first.
    Without ``band``, ties break by ascending gallery index. With ``band``
    (one width per query), a rank is kept only where exactly one gallery
    item, the query's best same-class one, scores within the band of that
    best score; every other query with a same-class item gets -1.
    """
    # no-hit sentinel must exceed any K, including K > gallery size
    no_hit = np.iinfo(np.int64).max
    ranks = np.empty(query.shape[0], dtype=np.int64)
    # Class-sorted gallery: each class present is one run of columns, in
    # ascending gallery index (the sort is stable).
    order = np.argsort(gallery_labels, kind="stable")
    classes, starts, sizes = np.unique(
        gallery_labels[order], return_index=True, return_counts=True
    )
    slot = np.minimum(np.searchsorted(classes, query_labels), classes.size - 1)
    run_start = starts[slot]
    run_size = np.where(classes[slot] == query_labels, sizes[slot], 0)
    gallery = gallery[order]
    cols = gallery.shape[0]
    for lo in range(0, query.shape[0], CHUNK_ROWS):
        chunk = slice(lo, lo + CHUNK_ROWS)
        rows = query[chunk]
        # A one-row product goes to BLAS gemv, whose float64 sum for a column
        # can depend on the column's place, so equal gallery rows could score
        # unequally; a doubled row goes to gemm, which scores them alike. A
        # float32 product may overflow; such a row has a NaN band (re-ranked).
        with np.errstate(over="ignore", invalid="ignore"):
            scores = (rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)) @ gallery.T
        scores = scores[: len(rows)]
        start = run_start[chunk] + cols * np.arange(scores.shape[0])
        size = run_size[chunk]
        # Each row's best same-class score is the max over its class run; the
        # maxima over the gaps between runs are dropped. A row with no run
        # gets +inf, which no score reaches.
        bounds = np.stack([start, start + size], axis=1).ravel()
        top = np.maximum.reduceat(scores.ravel(), bounds[bounds < scores.size])[::2]
        top[size == 0] = np.inf
        if band is None:
            # The tie rule: items at the best score count if they come
            # before the first same-class one there, the first in its run.
            r, c = np.divmod(np.flatnonzero(scores == top[:, None]), cols)
            run = run_start[lo + r]
            in_run = (c >= run) & (c < run + run_size[lo + r])
            hit_rows, at = np.unique(r[in_run], return_index=True)
            first = np.zeros(top.size, dtype=np.intp)
            first[hit_rows] = order[c[in_run][at]]
            rank = np.count_nonzero(scores > top[:, None], axis=1)
            rank += np.bincount(r[order[c] < first[r]], minlength=top.size)
        else:
            # bounds rounded outward, so float32 never narrows the band
            width = band[chunk]
            lower = np.nextafter((top - width).astype(scores.dtype), -np.inf)
            upper = np.nextafter((top + width).astype(scores.dtype), np.inf)
            above = np.count_nonzero(scores > upper[:, None], axis=1)
            near = np.count_nonzero(scores >= lower[:, None], axis=1) - above
            rank = np.where(near == 1, above, -1)
        ranks[chunk] = np.where(size > 0, rank, no_hit)
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
        band = _rounding_band(query_e, gallery_e)
        first = _first_hit_ranks(query_e, gallery_e, qlab, glab, band)
        unsure = np.flatnonzero(first < 0)
        if unsure.size:
            first[unsure] = _first_hit_ranks(
                query_e[unsure].astype(np.float64), gallery_e.astype(np.float64),
                qlab[unsure], glab,
            )
    else:
        first = _first_hit_ranks(sign_codes(query_e), sign_codes(gallery_e), qlab, glab)
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
