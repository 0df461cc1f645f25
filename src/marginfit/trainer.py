"""Embedding-head training: linear map, centring, L2 normalize.

The head and the proxy bank are trained jointly with classical SGD momentum
(v = momentum * v + g; p = p - lr * v), linear learning-rate warmup and
per-iteration exponential decay. Proxies are kept unit-norm by projecting
(row-wise renormalization) after every step. Runs are bit-reproducible
given the three seeds (sampler, head init, proxy init) at a fixed BLAS
thread count, which ``MF_THREADS`` sets before numpy is imported.

Precision: training runs in float32, one ``_Step`` call per iteration.
W, b and P are views of one float32 master buffer, which one momentum step
over a velocity and a gradient buffer of its layout updates in place; the
head is computed once per iteration and its intermediates feed the head
backward, and the loss runs in buffers allocated once per run; the
adaptive kind's slope rows are written into one of them each iteration
from the margin array, which stays the run's only C x C array. Only
the loss's B-length reductions (the softmax sums and the log) are
float64. ``embed`` and ``eval`` (``forward_head``) run the same float32
head, and retry in float64 only a block that float32 cannot normalize.
The finite-difference gradient checks run in float64.

Training objective, per iteration, for every loss kind:

    mean_i loss(x_i, P, y_i) + QUANT_WEIGHT * mean_c ||p_c - s(p_c) / sqrt(D)||^2

The first term is the configured loss of ``losses.compute_loss``. The second
is the proxy quantization term: it pulls each unit-norm proxy toward its
own sign code, ``s(p) = +1`` where a coordinate is strictly positive and -1
otherwise, the rule ``evaluation.sign_bits`` applies to embeddings. The code
is held constant in the gradient (it is piecewise constant in ``p``), so the
term adds ``(2 * QUANT_WEIGHT / C) * (p - s(p) / sqrt(D))`` to the proxy
gradient before the momentum step. Embeddings gather around their class
proxies, so proxies near the corners of the hypercube make sign-binarized
embeddings keep the class structure for Hamming ranking. Only its gradient
is computed (``quantization_gradient``); ``loss`` streams the first term.

Checkpoint file ``CKP1``: magic | EMB1 block weight (F x D) | EMB1 block
bias (1 x D) | EMB1 block proxies (C x D) | u64 iteration. One parser
reads it through ``data_io.read_container``, which names the file in every
error. It checks the bias and proxies shapes, then streams each proxies
block through its NaN/Inf check and ``losses.UnitNormRows``, so both
readers raise the first fault in file order. ``load_checkpoint`` holds
every block; ``load_head`` (``embed``, ``eval``) holds only W and b.
``losses.margin_array`` decides which loss kinds take margins.

Train config file: UTF-8 ``key = value`` lines. Blank lines and lines
starting with ``#`` are skipped; unknown keys are errors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_io import (
    ZERO_NORM_THRESHOLD,
    FeatureBundle,
    as_matrix,
    block_rows,
    read_container,
    read_matrix_block,
    read_matrix_header,
    read_rows,
    write_matrix_block,
)
from .errors import ConfigError, DimMismatch, DivergenceError, FormatError, NonFiniteData, ZeroNorm
from .losses import LossConfig, ProxyBank, UnitNormRows, _forward_backward, _slope_rows, margin_array
from .sampler import BalancedSampler, SamplerConfig

MAGIC_CHECKPOINT = b"CKP1"
# Weight of the proxy quantization term. Over data seeds 1-10 of the
# criterion-5 fixture (D=32), weights 0.5 / 1 / 2 / 4 / 10 give mean
# float-vs-binary Recall@1 gaps of 15.4 / 11.8 / 10.9 / 11.3 / 18.6 points
# (23.1 without the term), and the criterion-6 Spearman correlation falls
# from 0.38 at weight 2 to 0.31 at 4 and 0.23 at 10.
QUANT_WEIGHT = 2.0
# Batches the ``train`` loop draws per sampler call; a block shares the
# sampler's array work. On a 2-vCPU host a batch costs 44-51 us alone, 14-16
# in a block of 16 and 12-14 in one of 64, whose temporaries are 4x larger.
BATCH_BLOCK = 16


@dataclass
class EmbeddingHead:
    weight: np.ndarray  # (F, D) float32
    bias: np.ndarray  # (D,) float32

    def __post_init__(self):
        self.weight = as_matrix(self.weight, "weight")
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        if self.bias.shape != (self.weight.shape[1],):
            raise DimMismatch(
                f"bias shape {self.bias.shape} does not match weight {self.weight.shape}"
            )


@dataclass(frozen=True)
class TrainConfig:
    embed_dim: int
    lr0: float = 0.01
    momentum: float = 0.9
    warmup_iters: int = 3000
    decay_gamma: float | None = None  # default: lr shrinks 100x over the post-warmup span
    total_iters: int = 500_000
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    proxy_init_seed: int = 1
    head_init_seed: int = 2

    def __post_init__(self):
        if self.embed_dim < 2:
            raise ConfigError("embed_dim must be at least 2 (centring needs it)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (np.isfinite(self.lr0) and self.lr0 >= 0):
            raise ConfigError(f"lr0 must be finite and non-negative, got {self.lr0}")
        if self.warmup_iters < 0 or self.total_iters < 0:
            raise ConfigError("iteration counts must be non-negative")
        if self.warmup_iters > self.total_iters:
            raise ConfigError("warmup_iters must not exceed total_iters")
        if self.decay_gamma is not None and not 0.0 < self.decay_gamma <= 1.0:
            raise ConfigError(f"decay_gamma must be in (0, 1], got {self.decay_gamma}")

    @property
    def resolved_decay_gamma(self) -> float:
        if self.decay_gamma is not None:
            return self.decay_gamma
        span = self.total_iters - self.warmup_iters
        if span <= 0:
            return 1.0
        return float(0.01 ** (1.0 / span))


@dataclass
class Checkpoint:
    head: EmbeddingHead
    proxies: ProxyBank
    iteration: int


def forward_head(head: EmbeddingHead, features: np.ndarray) -> np.ndarray:
    """features @ W + b, centred, L2 normalized; rows come out unit-norm.

    A parameterless layer norm before the L2 step would change nothing: its
    division by the row's standard deviation cancels in the normalization.

    Runs the training step's float32 ``_head_core`` on the block as given.
    Only a block it cannot normalize (a zero row while the centred bias, its
    output, is zero, or a huge row whose norm overflows float32) is run again
    in float64, which decides: the huge row embeds, the zero row raises
    ZeroNorm. Returns float32.
    """
    features = as_matrix(features, "features")
    if features.shape[1] != head.weight.shape[0]:
        raise DimMismatch(
            f"features have {features.shape[1]} columns, head expects {head.weight.shape[0]}"
        )
    try:
        return _head_core(features, head.weight, head.bias)[2]
    except ZeroNorm:
        pass
    _, _, out = _head_core(
        features.astype(np.float64), head.weight.astype(np.float64), head.bias.astype(np.float64)
    )
    return out.astype(np.float32)


def _head_core(feats, w, b):
    """Returns (centred t, row norms of t, unit output) in the operands' dtype.

    ZeroNorm names the first row whose norm is below ZERO_NORM_THRESHOLD or
    not finite (a huge feature can overflow float32); no numpy warning escapes.
    """
    # ufuncs called directly: the same float operations as t.mean and
    # np.linalg.norm without their Python wrappers, which dominate a small batch
    with np.errstate(over="ignore", invalid="ignore"):
        t = feats @ w
        t += b
        t -= np.add.reduce(t, axis=1, keepdims=True) / t.shape[1]
        tn = np.sqrt(np.add.reduce(t * t, axis=1, keepdims=True))
    ok = np.isfinite(tn) & (tn >= ZERO_NORM_THRESHOLD)
    if not np.logical_and.reduce(ok, axis=None):
        bad = int(np.argmin(ok))
        raise ZeroNorm(f"row {bad} has norm {tn[bad, 0]:.3e} after centring", row=bad)
    return t, tn, t / tn


def _head_backward(feats, t, tn, grad_out, grad_w=None, grad_b=None):
    """Gradients in W and b from one ``_head_core`` call's t and row norms.

    ``grad_out`` is the loss gradient at the unit-norm output t / ||t||.
    The L2 normalization kills its radial component; the centring
    t = h - mean(h) subtracts the row mean of the gradient.
    """
    radial = np.add.reduce(grad_out * t, axis=1, keepdims=True) / (tn * tn)
    grad_h = (grad_out - radial * t) / tn
    grad_h -= np.add.reduce(grad_h, axis=1, keepdims=True) / grad_h.shape[1]
    return np.matmul(feats.T, grad_h, out=grad_w), np.add.reduce(grad_h, axis=0, out=grad_b)


def quantization_gradient(proxies: np.ndarray, out=None) -> np.ndarray:
    """The gradient in p of QUANT_WEIGHT * mean_c ||p_c - s(p_c)/sqrt(D)||^2.

    ``s`` maps strictly positive entries to +1 and the rest, zeros included,
    to -1, as ``evaluation.sign_bits`` does. The gradient has the dtype of
    ``proxies`` and goes to ``out`` when given.
    """
    num_classes, dim = proxies.shape
    unit = 1.0 / math.sqrt(dim)  # a Python float keeps float32 math in float32
    # Branch-free code: 2u where p > 0, else 0, then shifted by -u (exact).
    diff = np.greater(proxies, 0.0, out=out if out is not None else np.empty_like(proxies))
    diff *= 2.0 * unit
    diff -= unit
    np.subtract(proxies, diff, out=diff)
    diff *= 2.0 * QUANT_WEIGHT / num_classes
    return diff


def lr_at(cfg: TrainConfig, t: int) -> float:
    """Linear warmup to lr0, then exponential decay per iteration."""
    if t < cfg.warmup_iters:
        return cfg.lr0 * (t + 1) / cfg.warmup_iters
    return cfg.lr0 * cfg.resolved_decay_gamma ** (t - cfg.warmup_iters)


def _momentum_step(param, grad, velocity, lr: float, momentum: float) -> None:
    """Classical momentum, in place: v <- momentum * v + g; p <- p - lr * v.

    ``grad`` is overwritten (it holds lr * v on return).
    """
    velocity *= momentum
    velocity += grad
    np.multiply(velocity, lr, out=grad)
    param -= grad


def _renormalize_rows(m) -> None:
    """Scale each row of ``m`` to unit norm in place; ZeroNorm on a degenerate row.

    The squares are summed in float64 and the norm rounded to m's dtype,
    so a row already unit-norm at that precision divides by exactly 1.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", m, m, dtype=np.float64))
    if np.logical_or.reduce(norms < ZERO_NORM_THRESHOLD):
        bad = int(np.argmin(norms))
        raise ZeroNorm(f"proxy row {bad} has norm {norms[bad]:.3e}")
    m /= norms.astype(m.dtype)[:, None]


def init(
    cfg: TrainConfig, feature_dim: int, num_classes: int, class_ids: list[str] | None = None
) -> tuple[EmbeddingHead, ProxyBank]:
    """Random head and proxies.

    Weight ~ uniform(-1/sqrt(F), 1/sqrt(F)), bias zero; proxy rows are
    standard normal draws rounded to float32, then L2-normalized in float64.
    DimMismatch when ``feature_dim`` is 0.
    """
    if feature_dim < 1:
        raise DimMismatch("features have no columns; the head needs at least one")
    head_rng = np.random.Generator(np.random.Philox(key=cfg.head_init_seed % (1 << 64)))
    bound = 1.0 / np.sqrt(feature_dim)
    weight = head_rng.uniform(-bound, bound, size=(feature_dim, cfg.embed_dim)).astype(np.float32)
    head = EmbeddingHead(weight, np.zeros(cfg.embed_dim, dtype=np.float32))

    proxy_rng = np.random.Generator(np.random.Philox(key=cfg.proxy_init_seed % (1 << 64)))
    draws = proxy_rng.standard_normal((num_classes, cfg.embed_dim))
    draws = draws.astype(np.float32).astype(np.float64)
    proxies = (draws / np.linalg.norm(draws, axis=1, keepdims=True)).astype(np.float32)
    return head, ProxyBank(proxies, class_ids)


def _views(flat, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one per shape, in order."""
    ends = np.cumsum([math.prod(s) for s in shapes])
    return [flat[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]


class _Step:
    """Training iterations in float32, over one master buffer updated in place.

    It owns theta = [W | b | P] (its views become the head's and the bank's
    arrays), one velocity (zero at the start) and one gradient buffer of
    theta's layout, the loss's slope (tau, or a (B, C) buffer that
    ``_slope_rows`` fills with each batch's label rows of the adaptive kind's
    margins, which it only reads) and every other buffer an iteration needs.
    ``step(t, rows, labels)`` runs iteration t on the batch of ``features``
    rows ``rows``; it holds no batch state, so a step can run from any t.
    """

    def __init__(self, head, bank, cfg: TrainConfig, margins, features):
        self.cfg, self.features = cfg, features
        shapes = [head.weight.shape, head.bias.shape, bank.proxies.shape]
        self.theta = np.empty(sum(math.prod(s) for s in shapes), np.float32)
        self.w, self.b, self.p = _views(self.theta, shapes)
        self.w[...], self.b[...], self.p[...] = head.weight, head.bias, bank.proxies
        head.weight, head.bias, bank.proxies = self.w, self.b, self.p  # init's not held twice
        self.velocity, self.grad = np.zeros_like(self.theta), np.empty_like(self.theta)
        self.grad_w, self.grad_b, self.grad_q = _views(self.grad, shapes)
        self.tau, self.margin, self.margins = cfg.loss.tau, cfg.loss.effective_margin, margins
        self.logits = np.empty((cfg.sampler.batch_size, self.p.shape[0]), np.float32)
        self.offsets = np.arange(cfg.sampler.batch_size) * self.p.shape[0]
        self.slope = self.tau if margins is None else np.empty_like(self.logits)
        self.grad_x = np.empty((cfg.sampler.batch_size, self.p.shape[1]), np.float32)
        self.grad_p = np.empty_like(self.p)

    def gradients(self, feats, labels):
        """Per-sample float64 losses and the mean loss's gradients in W, b (in ``grad``) and P."""
        pos = self.offsets + labels  # losses._positives, its offsets built once
        t, tn, emb = _head_core(feats, self.w, self.b)
        if self.margins is not None:
            _slope_rows(self.margins, labels, pos, self.tau, np.float32, out=self.slope)
        losses, grad_x, grad_p = _forward_backward(
            emb, self.p, pos, self.tau, self.margin, self.slope, self.logits, self.grad_x, self.grad_p
        )
        grad_w, grad_b = _head_backward(feats, t, tn, grad_x, self.grad_w, self.grad_b)
        return losses, grad_w, grad_b, grad_p

    def __call__(self, t: int, rows, labels) -> tuple[float, float]:
        """Run iteration t (the batch, momentum, proxy renorm); returns (lr, mean loss)."""
        try:
            losses, _, _, grad_p = self.gradients(self.features.take(rows, axis=0), labels)
        except ZeroNorm as exc:  # name the bundle row, not its place in the batch
            raise ZeroNorm(
                f"feature row {rows[exc.row]} cannot be normalized by the head"
                f" at iteration {t}: batch {exc}"
            ) from None
        mean_loss = float(np.add.reduce(losses) / losses.shape[0])
        if not math.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss {mean_loss} at iteration {t}")
        lr = lr_at(self.cfg, t)
        quantization_gradient(self.p, out=self.grad_q)
        self.grad_q += grad_p
        _momentum_step(self.theta, self.grad, self.velocity, lr, self.cfg.momentum)
        _renormalize_rows(self.p)
        return lr, mean_loss


def train(
    bundle: FeatureBundle,
    cfg: TrainConfig,
    margin_matrix=None,
    on_iteration=None,
    on_warning=None,
) -> Checkpoint:
    """Run ``_Step`` for iterations 0 .. cfg.total_iters - 1, iteration t on batch t.

    The loop draws the batches BATCH_BLOCK at a time, the last block cut short.

    ``margin_matrix`` is required exactly when the loss kind is adaptive. A
    MarginMatrix is permuted to ``bundle.class_ids``, and a raw array is
    checked as ``MarginMatrix(margin_matrix, bundle.class_ids)``
    (``losses.margin_array``); that rule is checked first. A feature row
    with NaN or Inf is NonFiniteData, and the sampler refuses a bundle it
    cannot draw from.
    ``on_warning(message)``, if given, receives before the first iteration
    the sampler's warnings (classes with fewer than k rows), then one per
    all-zero feature row (the first 20).
    ``on_iteration(t, lr, mean_loss)``, if given, fires every iteration; it
    is the one stream of the training loss.
    """
    dmat = margin_array(cfg.loss.kind, margin_matrix, bundle.class_ids)
    scan = block_rows(4 * bundle.feature_dim)  # rows per block: no N x F mask is held
    for i in range(0, len(bundle.features), scan):
        finite = np.isfinite(bundle.features[i : i + scan]).all(axis=1)
        if not finite.all():
            raise NonFiniteData(f"feature row {i + int(np.argmin(finite))} contains NaN or Inf")
    sampler = BalancedSampler(bundle, cfg.sampler)
    head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
    step = _Step(head, bank, cfg, dmat, bundle.features)
    if on_warning is not None:
        for warning in sampler.warnings:
            on_warning(warning)
        for i in np.flatnonzero(~bundle.features.any(axis=1))[:20]:
            on_warning(f"feature row {i} is all zeros")

    for t0 in range(0, cfg.total_iters, BATCH_BLOCK):
        block = sampler.batches(t0, min(BATCH_BLOCK, cfg.total_iters - t0))
        for t, rows, labels in zip(range(t0, cfg.total_iters), block.sample_indices, block.labels):
            lr, mean_loss = step(t, rows, labels)
            if on_iteration is not None:
                on_iteration(t, lr, mean_loss)

    # the bank's invariant check (unit-norm rows) runs once, on the result
    return Checkpoint(head, ProxyBank(bank.proxies, bank.class_ids), cfg.total_iters)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_CHECKPOINT)
        write_matrix_block(f, ckpt.head.weight)
        write_matrix_block(f, ckpt.head.bias.reshape(1, -1))
        write_matrix_block(f, ckpt.proxies.proxies)
        f.write(struct.pack("<Q", ckpt.iteration))


def load_checkpoint(path) -> Checkpoint:
    head, proxies, iteration = _read_checkpoint(path, keep_proxies=True)
    return Checkpoint(head, ProxyBank(proxies), iteration)


def load_head(path) -> EmbeddingHead:
    """The CKP1's head; the file is refused as ``load_checkpoint`` refuses it, no proxy held."""
    return _read_checkpoint(path, keep_proxies=False)[0]


def _read_checkpoint(path, keep_proxies: bool) -> tuple[EmbeddingHead, np.ndarray, int]:
    """The CKP1 parser: (head, the proxies if kept or else a zero-width array, iteration)."""
    drop = None if keep_proxies else lambda rows: np.empty((len(rows), 0), np.float32)
    with read_container(path, MAGIC_CHECKPOINT) as read:
        weight = read_matrix_block(read, "weight")
        bias = read_matrix_block(read, "bias")
        if bias.shape[0] != 1:
            raise FormatError(f"bias block must have one row, got {bias.shape}")
        shape = read_matrix_header(read, "proxies")
        if shape[1] != weight.shape[1]:
            raise FormatError(f"proxies block must be {weight.shape[1]} wide, got {shape}")
        proxies = read_rows(read, *shape, "proxies", drop, UnitNormRows())
        (iteration,) = struct.unpack("<Q", read(8, "iteration"))
    return EmbeddingHead(weight, bias[0]), proxies, iteration


# key -> (value type, config object, field); the dataclasses own the defaults
_CONFIG_KEYS = {
    "embed_dim": (int, "train", "embed_dim"),
    "lr0": (float, "train", "lr0"),
    "momentum": (float, "train", "momentum"),
    "warmup_iters": (int, "train", "warmup_iters"),
    "decay_gamma": (float, "train", "decay_gamma"),
    "total_iters": (int, "train", "total_iters"),
    "loss_kind": (str, "loss", "kind"),
    "sigma": (float, "loss", "sigma"),
    "margin": (float, "loss", "margin"),
    "temperature_mode": (str, "loss", "temperature_mode"),
    "batch_size": (int, "sampler", "batch_size"),
    "k": (int, "sampler", "k"),
    "seed": (int, "sampler", "seed"),
    "proxy_init_seed": (int, "train", "proxy_init_seed"),
    "head_init_seed": (int, "train", "head_init_seed"),
}


def parse_train_config(text: str) -> TrainConfig:
    """Parse flat ``key = value`` lines into a TrainConfig."""
    values: dict[str, dict[str, object]] = {"train": {}, "loss": {}, "sampler": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        kind, target, name = _CONFIG_KEYS[key]
        if name in values[target]:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[target][name] = kind(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key!r}") from None

    if "embed_dim" not in values["train"]:
        raise ConfigError("config must set embed_dim")
    return TrainConfig(
        **values["train"],
        loss=LossConfig(**values["loss"]),
        sampler=SamplerConfig(**values["sampler"]),
    )


def load_train_config(path) -> TrainConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_train_config(text)
