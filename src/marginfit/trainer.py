"""Embedding-head training: linear map, centring, L2 normalize.

The head and the proxy bank are trained jointly with classical SGD momentum
(v = momentum * v + g; p = p - lr * v), linear learning-rate warmup and
per-iteration exponential decay. Proxies are kept unit-norm by projecting
(row-wise renormalization) after every step. Runs are bit-reproducible
given the three seeds (sampler, head init, proxy init) at a fixed BLAS
thread count, which ``MF_THREADS`` sets before numpy is imported.

Precision: the training step runs in float32. W, b, P and their velocities
are float32 master arrays updated in place, the head is computed once per
iteration and its intermediates feed the head backward, and the loss runs
in buffers allocated once per run. Only the loss's B-length reductions
(the softmax sums and the log) are float64. The finite-difference
gradient checks, ``embed`` and ``eval`` (``forward_head``) run in float64.

Training objective, per iteration, for every loss kind:

    mean_i loss(x_i, P, y_i) + QUANT_WEIGHT * mean_c ||p_c - s(p_c) / sqrt(D)||^2

The first term is the configured loss of ``losses.compute_loss``. The second
is the proxy quantization term: it pulls each unit-norm proxy toward its
own sign code, ``s(p) = +1`` where a coordinate is strictly positive and -1
otherwise, the rule ``evaluation.sign_codes`` applies to embeddings. The code
is held constant in the gradient (it is piecewise constant in ``p``), so the
term adds ``(2 * QUANT_WEIGHT / C) * (p - s(p) / sqrt(D))`` to the proxy
gradient before the momentum step. Embeddings gather around their class
proxies, so proxies near the corners of the hypercube make sign-binarized
embeddings keep the class structure for Hamming ranking. The streamed
``loss`` value reports only the first term.

Checkpoint file ``CKP1``: magic | EMB1 block weight (F x D) | EMB1 block
bias (1 x D) | EMB1 block proxies (C x D) | u64 iteration. It is read
through ``data_io.read_container``, which names the file in every format
error. ``losses.margin_array`` decides which loss kinds take margins.

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
    matrix_to_bytes,
    read_container,
    read_matrix_block,
    validate_bundle,
)
from .errors import ConfigError, DimMismatch, DivergenceError, FormatError, ZeroNorm
from .losses import LossConfig, ProxyBank, _forward_backward, _slope_rows, margin_array
from .sampler import BalancedSampler, SamplerConfig

MAGIC_CHECKPOINT = b"CKP1"
# Weight of the proxy quantization term. Over data seeds 1-10 of the
# criterion-5 fixture (D=32), weights 0.5 / 1 / 2 / 4 / 10 give mean
# float-vs-binary Recall@1 gaps of 15.4 / 11.8 / 10.9 / 11.3 / 18.6 points
# (23.1 without the term), and the criterion-6 Spearman correlation falls
# from 0.38 at weight 2 to 0.31 at 4 and 0.23 at 10.
QUANT_WEIGHT = 2.0


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

    Runs in float64, as ``embed`` and ``eval`` need it, and returns float32.
    """
    features = as_matrix(features, "features")
    if features.shape[1] != head.weight.shape[0]:
        raise DimMismatch(
            f"features have {features.shape[1]} columns, head expects {head.weight.shape[0]}"
        )
    _, _, out = _head_core(
        features.astype(np.float64), head.weight.astype(np.float64), head.bias.astype(np.float64)
    )
    return out.astype(np.float32)


def _head_core(feats, w, b):
    """Returns (centred t, row norms of t, unit output) in the operands' dtype."""
    t = feats @ w
    t += b
    t -= t.mean(axis=1, keepdims=True)
    tn = np.linalg.norm(t, axis=1, keepdims=True)
    if np.any(tn < ZERO_NORM_THRESHOLD):
        bad = int(np.argmin(tn))
        raise ZeroNorm(f"row {bad} collapsed to zero after centring")
    return t, tn, t / tn


def _head_backward(feats, t, tn, grad_out, grad_w=None):
    """Gradients in W and b from one ``_head_core`` call's t and row norms.

    ``grad_out`` is the loss gradient at the unit-norm output t / ||t||.
    The L2 normalization kills its radial component; the centring
    t = h - mean(h) subtracts the row mean of the gradient.
    """
    radial = np.sum(grad_out * t, axis=1, keepdims=True) / (tn * tn)
    grad_h = (grad_out - radial * t) / tn
    grad_h -= grad_h.mean(axis=1, keepdims=True)
    return np.matmul(feats.T, grad_h, out=grad_w), grad_h.sum(axis=0)


def quantization_penalty(proxies: np.ndarray, out=None) -> tuple[float, np.ndarray]:
    """QUANT_WEIGHT * mean_c ||p_c - s(p_c)/sqrt(D)||^2 and its gradient in p.

    ``s`` maps strictly positive entries to +1 and the rest, zeros included,
    to -1, as ``evaluation.sign_codes`` does. The gradient has the dtype of
    ``proxies`` and goes to ``out`` when given.
    """
    num_classes, dim = proxies.shape
    unit = 1.0 / math.sqrt(dim)  # a Python float keeps float32 math in float32
    # Branch-free code: 2u where p > 0, else 0, then shifted by -u (exact).
    diff = np.greater(proxies, 0.0, out=out if out is not None else np.empty_like(proxies))
    diff *= 2.0 * unit
    diff -= unit
    np.subtract(proxies, diff, out=diff)
    value = QUANT_WEIGHT * float(np.vdot(diff, diff)) / num_classes
    diff *= 2.0 * QUANT_WEIGHT / num_classes
    return value, diff


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
    if np.any(norms < ZERO_NORM_THRESHOLD):
        bad = int(np.argmin(norms))
        raise ZeroNorm(f"proxy row {bad} has norm {norms[bad]:.3e}")
    m /= norms.astype(m.dtype)[:, None]


def init(
    cfg: TrainConfig, feature_dim: int, num_classes: int, class_ids: list[str] | None = None
) -> tuple[EmbeddingHead, ProxyBank, dict[str, np.ndarray]]:
    """Random head and proxies plus zeroed velocity buffers.

    Weight ~ uniform(-1/sqrt(F), 1/sqrt(F)), bias zero; proxy rows are
    standard normal draws rounded to float32, then L2-normalized in float64.
    """
    head_rng = np.random.Generator(np.random.Philox(key=cfg.head_init_seed % (1 << 64)))
    bound = 1.0 / np.sqrt(feature_dim)
    weight = head_rng.uniform(-bound, bound, size=(feature_dim, cfg.embed_dim)).astype(np.float32)
    head = EmbeddingHead(weight, np.zeros(cfg.embed_dim, dtype=np.float32))

    proxy_rng = np.random.Generator(np.random.Philox(key=cfg.proxy_init_seed % (1 << 64)))
    draws = proxy_rng.standard_normal((num_classes, cfg.embed_dim))
    draws = draws.astype(np.float32).astype(np.float64)
    proxies = (draws / np.linalg.norm(draws, axis=1, keepdims=True)).astype(np.float32)
    bank = ProxyBank(proxies, class_ids)

    velocities = {
        "weight": np.zeros_like(head.weight),
        "bias": np.zeros_like(head.bias),
        "proxies": np.zeros_like(bank.proxies),
    }
    return head, bank, velocities


class _Step:
    """The float32 training step over master arrays it updates in place.

    W, b and P are the head's and the bank's own arrays. Every (B, C) and
    (C, D) intermediate, and the (F, D) weight gradient, lives in a buffer
    allocated once here.
    """

    def __init__(self, head, bank, velocities, cfg: TrainConfig, margins, batch_size: int):
        self.w, self.b, self.p = head.weight, head.bias, bank.proxies
        self.vel = velocities
        self.momentum = cfg.momentum
        self.tau, self.margin = cfg.loss.tau, cfg.loss.effective_margin
        self.margins = None if margins is None else np.asarray(margins, dtype=np.float32)
        self.logits = np.empty((batch_size, self.p.shape[0]), np.float32)
        self.slope = None if margins is None else np.empty_like(self.logits)
        self.grad_x = np.empty((batch_size, self.p.shape[1]), np.float32)
        self.grad_w = np.empty_like(self.w)
        self.grad_p = np.empty_like(self.p)
        self.quant = np.empty_like(self.p)

    def gradients(self, feats, labels):
        """Per-sample float64 losses and the gradients of the mean loss in W, b and P."""
        t, tn, emb = _head_core(feats, self.w, self.b)
        slope = None
        if self.margins is not None:
            slope = _slope_rows(self.margins, labels, out=self.slope)
        losses, grad_x, grad_p = _forward_backward(
            emb, self.p, labels, self.tau, self.margin, slope, self.logits, self.grad_x, self.grad_p
        )
        grad_w, grad_b = _head_backward(feats, t, tn, grad_x, self.grad_w)
        return losses, grad_w, grad_b, grad_p

    def update(self, grad_w, grad_b, grad_p, lr: float) -> None:
        """Momentum step on W, b and P, then renormalize P's rows.

        P's gradient gains the quantization term first.
        """
        _, grad_q = quantization_penalty(self.p, out=self.quant)
        grad_q += grad_p
        _momentum_step(self.w, grad_w, self.vel["weight"], lr, self.momentum)
        _momentum_step(self.b, grad_b, self.vel["bias"], lr, self.momentum)
        _momentum_step(self.p, grad_q, self.vel["proxies"], lr, self.momentum)
        _renormalize_rows(self.p)


def train(
    bundle: FeatureBundle,
    cfg: TrainConfig,
    margin_matrix=None,
    on_iteration=None,
    on_warning=None,
) -> Checkpoint:
    """Run the sample/forward/loss/backward/step loop for cfg.total_iters.

    ``margin_matrix`` is required exactly when the loss kind is adaptive
    (``losses.margin_array``).
    ``on_warning(message)``, if given, receives each ``validate_bundle``
    warning before the first iteration.
    ``on_iteration(t, lr, mean_loss)``, if given, fires every iteration; it
    is the one stream of the training loss.
    """
    for warning in validate_bundle(bundle, cfg.sampler.k):
        if on_warning is not None:
            on_warning(warning)
    dmat = margin_array(cfg.loss.kind, margin_matrix, bundle.num_classes)

    head, bank, vel = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
    sampler = BalancedSampler(bundle, cfg.sampler)
    step = _Step(head, bank, vel, cfg, dmat, cfg.sampler.batch_size)

    for t in range(cfg.total_iters):
        batch = sampler.next_batch()
        feats = bundle.features[batch.sample_indices]
        losses, grad_w, grad_b, grad_p = step.gradients(feats, batch.labels)
        mean_loss = float(losses.mean())
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss {mean_loss} at iteration {t}")
        lr = lr_at(cfg, t)
        step.update(grad_w, grad_b, grad_p, lr)
        if on_iteration is not None:
            on_iteration(t, lr, mean_loss)

    # the bank's invariant check (unit-norm rows) runs once, on the result
    return Checkpoint(head, ProxyBank(bank.proxies, bank.class_ids), cfg.total_iters)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_CHECKPOINT)
        f.write(matrix_to_bytes(ckpt.head.weight))
        f.write(matrix_to_bytes(ckpt.head.bias.reshape(1, -1)))
        f.write(matrix_to_bytes(ckpt.proxies.proxies))
        f.write(struct.pack("<Q", ckpt.iteration))


def load_checkpoint(path) -> Checkpoint:
    with read_container(path, MAGIC_CHECKPOINT) as read:
        weight = read_matrix_block(read, "weight")
        bias = read_matrix_block(read, "bias")
        proxies = read_matrix_block(read, "proxies")
        (iteration,) = struct.unpack("<Q", read(8, "iteration"))
        if bias.shape[0] != 1:
            raise FormatError(f"bias block must have one row, got {bias.shape}")
    head = EmbeddingHead(weight, bias[0])
    return Checkpoint(head, ProxyBank(proxies), iteration)


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
    return parse_train_config(Path(path).read_text(encoding="utf-8"))
