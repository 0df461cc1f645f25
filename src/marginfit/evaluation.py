"""Recall@K retrieval evaluation on float and sign-binarized embeddings.

Float mode ranks the gallery by descending cosine (embeddings are unit-norm,
so the dot product is the cosine). Binary mode maps every dimension to a
sign code (strictly positive -> +1, zero or negative -> -1), held packed as
``sign_bits``, 8 dimensions to a byte, and ranks by ascending Hamming
distance, scored as the float32 product of the codes, ``D - 2 * Hamming``,
which is exact for D < 2**24. The pad bits of a row's last byte are clear on
every row, so they add the same constant to every score. Both modes break
score ties by ascending gallery index, so reports are deterministic.

Ranking is sort-free. Recall@K needs only the rank of each query's first
same-class gallery item: the number of items that score strictly higher
than its best same-class item, plus the items that tie that score at a
lower gallery index. One kernel computes it for both modes, scoring
``CHUNK_ROWS`` queries against ``BLOCK_COLS`` gallery rows at a time, so
ranking holds one block of scores (``data_io.BLOCK_BYTES`` of float32) and
O(Q + G) indices, whatever the gallery size, in the manner of the tiled
brute-force k-NN of Johnson et al. (arXiv:1702.08734). Queries and gallery
are taken in class order (stable argsorts), each chunk and block gathered
and coded as it is scored (binary rows decoded from their bits with one
table lookup), so no copy of the gallery is made. A chunk's classes then
own one range of gallery columns; scored first, it gives each query's best
same-class score as a max over its class's run, and the rank is counts
added over every block, that range included.

Float mode scores in float32 and keeps a query's rank only when no other
gallery item scores within float32's rounding band of that best score
(``_rounding_band``); such a rank is the exact one. Every other query, a
near-tie, a duplicate row or a product that overflows, is re-ranked in
float64 by the same kernel with the tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import BLOCK_BYTES, EvalSplit, as_matrix
from .errors import ConfigError, DimMismatch, EmptyGallery, InvariantViolation, NonFiniteData
from .trainer import Checkpoint, forward_head

MODE_FLOAT = "float"
MODE_BINARY = "binary"
REPORT_MODES = (MODE_FLOAT, MODE_BINARY)

DEFAULT_KS = (1, 5, 10, 20, 30, 40, 50)

# Queries scored per block, against BLOCK_COLS gallery rows: a block holds
# CHUNK_ROWS x BLOCK_COLS scores, BLOCK_BYTES of them in float32 (twice that
# in the float64 re-rank).
CHUNK_ROWS = 256
BLOCK_COLS = BLOCK_BYTES // (4 * CHUNK_ROWS)


@dataclass
class RetrievalReport:
    ks: list[int]
    recall: list[float]
    mode: str
    num_queries: int

    def __post_init__(self):
        if any(b < a for a, b in zip(self.recall, self.recall[1:])):
            raise InvariantViolation("recall must be non-decreasing in K")


def sign_bits(e: np.ndarray) -> np.ndarray:
    """The sign codes packed 8 to a uint8, a set bit for +1, most significant bit first.

    This is the one sign rule: +1 where a value is strictly positive, -1
    elsewhere (zeros too). A row of D values takes ceil(D / 8) bytes; the
    pad bits of its last byte are clear. This is how binary mode holds
    embeddings.
    """
    return np.packbits(as_matrix(e) > 0.0, axis=1)


# Row b: the eight bits of byte b, most significant first, as +1 (set) or -1.
# Built from Python ints, so importing the module runs no numpy kernel.
_BIT_CODES = np.array(
    [[1.0 if b >> (7 - j) & 1 else -1.0 for j in range(8)] for b in range(256)], np.float32
)


def _decode_bits(bits: np.ndarray) -> np.ndarray:
    """The float32 sign codes of ``sign_bits`` rows, pad bits as -1 columns.

    One ``take`` of whole table rows, several times faster than fancy
    indexing or unpacking the bits (about 37 us for 1024 rows of 16 bytes
    on a 2-vCPU x86 host, against 340 us and 95 us).
    """
    return _BIT_CODES.take(bits, axis=0).reshape(bits.shape[0], 8 * bits.shape[1])


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


def _as_float64(e: np.ndarray) -> np.ndarray:
    return e.astype(np.float64)


def _scores(rows: np.ndarray, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ block.T`` into ``out``.

    BLAS may sum an edge tile's column in another order than the rest of
    the product, so equal gallery rows can score unequally (1025 equal rows
    at D = 16, float64). The float64 re-rank decides exact ties, so its
    scores come from einsum, whose sum over one pair depends only on the
    pair's two rows. Sign-code products are exact in any order, and the
    float32 band covers any order. A float32 product may overflow; such a
    row has a NaN band (re-ranked).
    """
    if out.dtype == np.float64:
        return np.einsum("ij,kj->ik", rows, block, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(rows, block.T, out=out)


def _run_max(scores: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row i, the max of ``scores[i, lo[i]:hi[i]]``; -inf where that run is empty."""
    rows, cols = scores.shape
    offsets = cols * np.arange(rows)
    # the maxima over the gaps between runs are dropped
    bounds = np.stack([offsets + np.minimum(lo, cols - 1), offsets + hi], axis=1).ravel()
    top = np.maximum.reduceat(scores.ravel(), bounds[bounds < scores.size])[::2]
    return np.where(hi > lo, top, -np.inf)


def _first_hit_ranks(
    query: np.ndarray,
    gallery: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    band: np.ndarray | None = None,
    codes=None,
) -> np.ndarray:
    """Rank (0-based) of the first same-class gallery item per query.

    Scores are the products of ``codes`` of the query and gallery rows (the
    rows themselves when None), higher first. Without ``band``, ties break
    by ascending gallery index. With ``band`` (one width per query), a rank
    is kept only where exactly one gallery item, the query's best
    same-class one, scores within the band of that best score; every other
    query with a same-class item gets -1.

    Queries are taken CHUNK_ROWS at a time and gallery rows BLOCK_COLS at a
    time, both in class order (stable argsorts, so a class's gallery items
    keep ascending index), and ``codes`` maps each chunk and block as it is
    gathered: memory is O(CHUNK_ROWS * BLOCK_COLS + Q + G), and no copy of
    the whole gallery is made. A chunk's classes own one range of columns
    of the class-sorted gallery, which is scored first: each row's best
    same-class score is the max over its class's run there. Counts then
    add over every block, that range included, so the best score is one of
    the counted scores. A range wider than a block is scored twice, once
    for the best scores and once for the counts.
    """
    codes = codes or (lambda e: e)
    # no-hit sentinel, above every rank; recall_at_k caps each K at the gallery size
    no_hit = np.iinfo(np.int64).max
    ranks = np.empty(query.shape[0], dtype=np.int64)
    order = np.argsort(gallery_labels, kind="stable")
    sorted_labels = gallery_labels[order]
    run_start = np.searchsorted(sorted_labels, query_labels, "left")
    run_end = np.searchsorted(sorted_labels, query_labels, "right")
    by_class = np.argsort(query_labels, kind="stable")
    cols, width = gallery.shape[0], BLOCK_COLS
    # every block's scores, in the codes' dtype; one buffer, so no chunk
    # holds two
    buf = np.empty(min(CHUNK_ROWS, len(query)) * min(width, cols), codes(query[:0]).dtype)
    for lo in range(0, query.shape[0], CHUNK_ROWS):
        chunk = by_class[lo : lo + CHUNK_ROWS]
        rows = codes(query[chunk])
        start, end = run_start[chunk], run_end[chunk]
        top = np.full(len(chunk), -np.inf, rows.dtype)
        anchor = np.zeros(len(chunk), dtype=np.intp)

        def score(items):
            out = buf[: len(chunk) * len(items)].reshape(len(chunk), len(items))
            return _scores(rows, codes(gallery[items]), out)

        # The chunk's classes own columns [a, b): a block at least, so the
        # rest of the gallery takes as few blocks as it can.
        a, b = start[0], end[-1]
        if b - a < width:
            a = min(a, max(cols - width, 0))
            b = min(a + width, cols)
        own = [order[c : min(c + width, b)] for c in range(a, b, width)]
        for c0, items in zip(range(a, b, width), own):
            scores = score(items)
            lo_run = np.clip(start - c0, 0, len(items))
            hi_run = np.clip(end - c0, 0, len(items))
            block_top = _run_max(scores, lo_run, hi_run)
            better = block_top > top
            top[better] = block_top[better]
            if band is None:
                # The tie rule's anchor: the first same-class item at the
                # best score, the first in its run. Runs lie in [s0, s1).
                s0, s1 = lo_run.min(), hi_run.max()
                equal = np.flatnonzero(scores[:, s0:s1] == block_top[:, None])
                r, c = np.divmod(equal, max(s1 - s0, 1))
                c += s0
                in_run = (c >= lo_run[r]) & (c < hi_run[r]) & better[r]
                hit, first = np.unique(r[in_run], return_index=True)
                anchor[hit] = items[c[in_run][first]]
        top[start == end] = np.inf  # no run: no score reaches it
        if band is None:
            floor = top
        else:
            # bounds rounded outward, so float32 never narrows the band
            floor = np.nextafter((top - band[chunk]).astype(rows.dtype), -np.inf)
            upper = np.nextafter((top + band[chunk]).astype(rows.dtype), np.inf)
        rest = np.concatenate([order[:a], order[b:]])
        ahead = np.zeros(len(chunk), dtype=np.intp)
        near = np.zeros(len(chunk), dtype=np.intp)
        # the last own block is still in ``scores``
        blocks = own[::-1] + [rest[c : c + width] for c in range(0, len(rest), width)]
        for k, items in enumerate(blocks):
            if k:
                scores = score(items)
            # only the few items at or above a row's floor are looked at
            at = np.flatnonzero(scores >= floor[:, None])
            r, c = np.divmod(at, len(items))
            value = scores.ravel()[at]
            if band is None:
                # an item at the best score is ahead if it precedes the anchor
                is_ahead = (value > top[r]) | (value == top[r]) & (items[c] < anchor[r])
                ahead += np.bincount(r[is_ahead], minlength=len(chunk))
            else:
                ahead += np.bincount(r[value > upper[r]], minlength=len(chunk))
                near += np.bincount(r, minlength=len(chunk))
        if band is not None:
            ahead = np.where(near - ahead == 1, ahead, -1)
        ranks[chunk] = np.where(start < end, ahead, no_hit)
    return ranks


def _rows(e, name: str, mode: str) -> np.ndarray:
    """float32 rows; in binary mode, uint8 rows are kept as ``sign_bits`` rows."""
    packed = mode == MODE_BINARY and np.asarray(e).dtype == np.uint8
    return as_matrix(e, name, np.uint8 if packed else np.float32)


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
    In binary mode, uint8 rows are taken as ``sign_bits`` rows, and both
    sides must be given so; float rows are checked for NaN and Inf, then
    packed once.
    """
    query_e = _rows(query_e, "query embeddings", mode)
    gallery_e = _rows(gallery_e, "gallery embeddings", mode)
    qlab = np.asarray(query_labels, dtype=np.int64)
    glab = np.asarray(gallery_labels, dtype=np.int64)
    if gallery_e.shape[0] == 0:
        raise EmptyGallery("gallery has no rows")
    if query_e.shape[0] == 0:
        raise InvariantViolation("no queries to rank")
    if (query_e.shape[1], query_e.dtype) != (gallery_e.shape[1], gallery_e.dtype):
        raise DimMismatch(
            f"query rows of {query_e.shape[1]} {query_e.dtype} "
            f"!= gallery rows of {gallery_e.shape[1]} {gallery_e.dtype}"
        )
    if qlab.shape != (query_e.shape[0],) or glab.shape != (gallery_e.shape[0],):
        raise DimMismatch("label lengths must match embedding rows")
    for name, e in (("query", query_e), ("gallery", gallery_e)):
        if e.dtype != np.uint8 and not np.isfinite(e).all():
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
                query_e[unsure], gallery_e, qlab[unsure], glab, codes=_as_float64
            )
    else:
        if query_e.dtype != np.uint8:
            query_e, gallery_e = sign_bits(query_e), sign_bits(gallery_e)
        first = _first_hit_ranks(query_e, gallery_e, qlab, glab, codes=_decode_bits)
    # K capped at G, which no rank reaches; a K of 2**63 or more would pass int64 max
    recall = [float(np.mean(first < min(k, gallery_e.shape[0]))) for k in ks]
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
