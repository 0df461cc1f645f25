"""Independent readers, writers and reference computations for output checks.

Nothing here imports marginfit. The EMB1/LBL1/MGN1/CKP1 layouts are parsed
from their published byte formats, the head forward pass and the margin
matrix are recomputed in float64 from their definitions, and Recall@K is
recomputed without sorting: the rank of a query's first same-class gallery
item is the count of items that score strictly better than the best
same-class item, plus the tied items with a lower gallery index.
"""

from __future__ import annotations

import struct

import numpy as np

QUERY_CHUNK = 512


def _matrix_block(buf: bytes, off: int, what: str) -> tuple[np.ndarray, int]:
    if buf[off : off + 4] != b"EMB1":
        raise ValueError(f"{what}: bad EMB1 magic {buf[off : off + 4]!r}")
    rows, cols = struct.unpack_from("<II", buf, off + 4)
    start = off + 12
    end = start + rows * cols * 4
    if end > len(buf):
        raise ValueError(f"{what}: truncated EMB1 payload")
    m = np.frombuffer(buf, dtype="<f4", count=rows * cols, offset=start).reshape(rows, cols)
    return m.astype(np.float32), end


def read_emb1(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    m, end = _matrix_block(buf, 0, str(path))
    if end != len(buf):
        raise ValueError(f"{path}: trailing bytes after EMB1 payload")
    return m


def read_ckp1(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(weight F x D, bias D, proxies C x D, iteration) from a CKP1 file."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"CKP1":
        raise ValueError(f"{path}: bad CKP1 magic {buf[:4]!r}")
    weight, off = _matrix_block(buf, 4, "weight")
    bias, off = _matrix_block(buf, off, "bias")
    proxies, off = _matrix_block(buf, off, "proxies")
    if off + 8 != len(buf):
        raise ValueError(f"{path}: CKP1 length does not match its blocks")
    (iteration,) = struct.unpack_from("<Q", buf, off)
    if bias.shape != (1, weight.shape[1]) or proxies.shape[1] != weight.shape[1]:
        raise ValueError(f"{path}: block shapes disagree")
    return weight, bias[0], proxies, iteration


def read_mgn1(path) -> tuple[int, int, list[str], np.ndarray]:
    """(metric code, norm code, class ids, C x C margins) from an MGN1 file."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"MGN1":
        raise ValueError(f"{path}: bad MGN1 magic {buf[:4]!r}")
    c, metric, norm = struct.unpack_from("<IBB", buf, 4)
    off = 10
    ids = []
    for _ in range(c):
        (n,) = struct.unpack_from("<I", buf, off)
        ids.append(buf[off + 4 : off + 4 + n].decode("utf-8"))
        off += 4 + n
    if off + c * c * 4 != len(buf):
        raise ValueError(f"{path}: MGN1 length does not match its header")
    d = np.frombuffer(buf, dtype="<f4", count=c * c, offset=off).reshape(c, c)
    return metric, norm, ids, d.astype(np.float32)


def write_emb1(path, m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype="<f4")
    with open(path, "wb") as f:
        f.write(b"EMB1" + struct.pack("<II", *m.shape) + m.tobytes())


def write_lbl1(path, labels: np.ndarray, num_classes: int) -> None:
    lab = np.ascontiguousarray(labels, dtype="<u4")
    with open(path, "wb") as f:
        f.write(b"LBL1" + struct.pack("<II", lab.size, num_classes) + lab.tobytes())


def forward_head(weight, bias, feats, eps: float = 1e-5) -> np.ndarray:
    """x @ W + b, parameterless layer norm, L2 normalize; float64 math."""
    h = feats.astype(np.float64) @ weight.astype(np.float64) + bias.astype(np.float64)
    t = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + eps)
    return (t / np.linalg.norm(t, axis=1, keepdims=True)).astype(np.float32)


def cosine_margins(text: np.ndarray) -> np.ndarray:
    """Analytic cosine margins (1 - cos) / 2 between L2-normalized class rows."""
    unit = text.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    d = (1.0 - unit @ unit.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def lr_schedule(t: int, lr0: float, warmup: int, total: int) -> float:
    """Linear warmup to lr0, then per-iteration decay to lr0 / 100 at the end."""
    if t < warmup:
        return lr0 * (t + 1) / warmup
    span = total - warmup
    gamma = 0.01 ** (1.0 / span) if span > 0 else 1.0
    return lr0 * gamma ** (t - warmup)


def _first_hit_ranks(score: np.ndarray, qlab: np.ndarray, glab: np.ndarray) -> np.ndarray:
    """0-based rank of the best same-class item under (score desc, index asc)."""
    same = qlab[:, None] == glab[None, :]
    has_hit = same.any(axis=1)
    best = np.where(same, score, -np.inf).max(axis=1, keepdims=True)
    at_best = score == best
    j_star = np.argmax(same & at_best, axis=1)
    before = np.arange(score.shape[1])[None, :] < j_star[:, None]
    ranks = (score > best).sum(axis=1) + (at_best & before).sum(axis=1)
    return np.where(has_hit, ranks, np.iinfo(np.int64).max)


def recall_at_k(query_e, qlab, gallery_e, glab, ks, binary: bool) -> list[float]:
    """Recall@K for float (cosine, higher first) or binary (Hamming, lower first)."""
    qlab = np.asarray(qlab, dtype=np.int64)
    glab = np.asarray(glab, dtype=np.int64)
    if binary:
        # sign codes as +-1: Hamming = (D - q.g) / 2, exact in float64
        g = np.where(gallery_e > 0, 1.0, -1.0)
    else:
        g = gallery_e.astype(np.float64)
    dim = gallery_e.shape[1]
    ranks = []
    for lo in range(0, query_e.shape[0], QUERY_CHUNK):
        q = query_e[lo : lo + QUERY_CHUNK]
        if binary:
            score = -(dim - np.where(q > 0, 1.0, -1.0) @ g.T) / 2.0
        else:
            score = q.astype(np.float64) @ g.T
        ranks.append(_first_hit_ranks(score, qlab[lo : lo + QUERY_CHUNK], glab))
    ranks = np.concatenate(ranks)
    return [float(np.count_nonzero(ranks < k)) / ranks.size for k in ks]
