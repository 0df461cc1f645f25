"""Proxy-based softmax losses with temperature, constant and adaptive margins.

Three loss kinds share one implementation: the plain temperature-scaled
softmax over cosine logits, the constant-margin variant (positive logit
shifted down by ``margin``), and the adaptive variant where every negative
logit ``c`` is inflated toward 1 as ``c + (1 - c) * d`` using a per-class-pair
margin ``d`` in [0, 1]. Setting ``d = 0`` everywhere recovers the
constant-margin loss, and ``margin = 0`` on top recovers the plain softmax.

``compute_loss`` is the one entry point for all three kinds. One
dtype-generic forward, ``_forward``, serves ``compute_loss`` (float64),
the training step (float32, in buffers it allocates once; see
``marginfit.trainer``) and the finite-difference gradient check, which
evaluates stacks of perturbed parameters in a single float64 broadcast
call. Its B-length reductions always run in float64. Public outputs are
float32. Gradients are with respect to the mean loss over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import as_matrix, checked_class_ids
from .errors import (
    ConfigError,
    DimMismatch,
    InvalidLabel,
    InvariantViolation,
    MarginShapeMismatch,
)

KIND_NORM_SOFTMAX = "norm_softmax"
KIND_LMCL = "lmcl"
KIND_ADAPTIVE = "adaptive"
LOSS_KINDS = (KIND_NORM_SOFTMAX, KIND_LMCL, KIND_ADAPTIVE)

MODE_MULTIPLY = "multiply"
MODE_DIVIDE = "divide"
TEMPERATURE_MODES = (MODE_MULTIPLY, MODE_DIVIDE)


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters.

    ``temperature_mode`` selects how the temperature scales cosine logits:
    "multiply" computes sigma * cos (the default; sharpens the softmax and
    boosts gradients), "divide" computes cos / sigma.
    """

    kind: str = KIND_ADAPTIVE
    sigma: float = 20.0
    margin: float = 0.4
    temperature_mode: str = MODE_MULTIPLY

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.temperature_mode not in TEMPERATURE_MODES:
            raise ConfigError(
                f"unknown temperature_mode {self.temperature_mode!r}, "
                f"expected one of {TEMPERATURE_MODES}"
            )
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 <= self.margin < 1.0:
            raise ConfigError(f"margin must be in [0, 1), got {self.margin}")

    @property
    def tau(self) -> float:
        """Multiplier applied to logits: sigma or 1/sigma."""
        return self.sigma if self.temperature_mode == MODE_MULTIPLY else 1.0 / self.sigma

    @property
    def effective_margin(self) -> float:
        """Margin actually applied; the plain softmax kind forces 0."""
        return 0.0 if self.kind == KIND_NORM_SOFTMAX else self.margin


@dataclass
class ProxyBank:
    """One learnable unit-norm vector per class."""

    proxies: np.ndarray
    class_ids: list[str] | None = None

    def __post_init__(self):
        self.proxies = as_matrix(self.proxies, "proxies")
        self.class_ids = checked_class_ids(self.class_ids, self.proxies.shape[0], "proxy bank")
        norms = np.linalg.norm(self.proxies.astype(np.float64), axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-5):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise InvariantViolation(f"proxy row {worst} has norm {norms[worst]:.8f}, expected 1")

    @property
    def num_classes(self) -> int:
        return self.proxies.shape[0]

    @property
    def dim(self) -> int:
        return self.proxies.shape[1]


@dataclass
class LossOutput:
    mean_loss: float
    per_sample_loss: np.ndarray  # (B,) float32
    grad_embeddings: np.ndarray  # (B, D) float32, d(mean_loss)/dX
    grad_proxies: np.ndarray  # (C, D) float32, d(mean_loss)/dP


def margin_array(kind: str, margins, num_classes: int) -> np.ndarray | None:
    """The C x C array of ``margins`` (a MarginMatrix or array), or None.

    Only the adaptive kind takes margins, and it requires them (ConfigError).
    """
    if kind != KIND_ADAPTIVE:
        if margins is not None:
            raise ConfigError(f"loss kind {kind!r} does not take a margin matrix")
        return None
    if margins is None:
        raise ConfigError("adaptive loss kind requires a margin matrix")
    d = np.asarray(getattr(margins, "d", margins))
    if d.shape != (num_classes, num_classes):
        raise MarginShapeMismatch(
            f"margin matrix must be {num_classes}x{num_classes}, got {d.shape}"
        )
    return d


def _slope_rows(d, labels: np.ndarray, out=None) -> np.ndarray:
    """The (B, C) slope of the adaptive transform: 1 - d[y_i, :], 1 at the positive.

    A negative cosine ``c`` becomes ``c + (1 - c) * d = 1 - (1 - c) * slope``,
    and the backward pass multiplies by the same slope. Only the B label rows
    are gathered, into ``out`` or a new float64 array, and transformed in
    place, so no C x C copy is made.
    """
    if out is None:
        out = np.asarray(d[labels], dtype=np.float64)
    else:
        # the training step's labels come from a validated bundle; "clip"
        # writes straight into ``out`` where the default mode buffers a copy
        np.take(d, labels, axis=0, out=out, mode="clip")
    np.subtract(1.0, out, out=out)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _forward(x, p, labels, tau, margin, slope, out=None):
    """Per-sample losses plus the intermediates the backward pass reuses.

    dtype-generic: the (..., B, C) work runs in the dtype of ``x`` and ``p``,
    in ``out`` when given, and the B-length reductions run in float64. ``x``
    is (..., B, D) and ``p`` is (..., C, D); the leading dimensions
    broadcast, so one call evaluates a stack of perturbed parameters.
    ``slope`` is ``_slope_rows`` output, or None for the constant-margin /
    plain kinds. Returns ``(e, ty, others, losses)``: ``e`` is the workspace
    holding exp(u - max u) with the positive entries zeroed, ``ty`` the
    shifted positive logit and ``others`` the sum of ``e``, all float64
    except ``e``.
    """
    rows = np.arange(labels.shape[0])
    u = np.matmul(x, np.swapaxes(p, -1, -2), out=out)
    np.clip(u, -1.0, 1.0, out=u)
    positive = u[..., rows, labels] - margin
    if slope is not None:
        np.subtract(1.0, u, out=u)
        u *= slope
        np.subtract(1.0, u, out=u)
    u[..., rows, labels] = positive
    u *= tau
    u -= u.max(axis=-1)[..., None]
    ty = u[..., rows, labels].astype(np.float64)
    e = np.exp(u, out=u)
    e[..., rows, labels] = 0.0
    others = e.sum(axis=-1, dtype=np.float64)
    # Stable -log softmax(target): exact even when the target dominates and
    # the competing terms are many orders of magnitude smaller.
    losses = np.log1p(np.expm1(ty) + others) - ty
    return e, ty, others, losses


def _forward_backward(x, p, labels, tau, margin, slope, out=None, grad_x=None, grad_p=None):
    """Per-sample float64 losses and the gradients of the mean loss in x and p.

    Runs in the dtype of ``x`` and ``p``; ``out`` (B, C), ``grad_x`` (B, D)
    and ``grad_p`` (C, D) are optional buffers of that dtype.
    """
    batch = labels.shape[0]
    e, ty, others, losses = _forward(x, p, labels, tau, margin, slope, out)
    # dl/du = softmax - onehot, times tau / B for the mean loss. The positive
    # entry, softmax - 1 = -others / sumexp, keeps its precision when the
    # target dominates.
    scale = (tau / batch) / (others + np.exp(ty))
    e *= scale.astype(e.dtype)[:, None]
    e[np.arange(batch), labels] = -others * scale
    # Chain through the logit transform; the cosine clamp is treated as identity.
    if slope is not None:
        e *= slope
    grad_x = np.matmul(e, p, out=grad_x)
    grad_p = np.matmul(e.T, x, out=grad_p)
    return losses, grad_x, grad_p


def _check_inputs(x: np.ndarray, bank: ProxyBank, labels) -> tuple[np.ndarray, np.ndarray]:
    x = as_matrix(x, "embeddings")
    if x.shape[1] != bank.dim:
        raise DimMismatch(f"embedding dim {x.shape[1]} != proxy dim {bank.dim}")
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != x.shape[0]:
        raise DimMismatch(f"expected {x.shape[0]} labels, got shape {lab.shape}")
    if lab.size and (not np.issubdtype(lab.dtype, np.integer)):
        raise InvalidLabel(f"labels must be integers, got dtype {lab.dtype}")
    if lab.size and (lab.min() < 0 or lab.max() >= bank.num_classes):
        raise InvalidLabel(
            f"labels must lie in [0, {bank.num_classes}), got range "
            f"[{lab.min()}, {lab.max()}]"
        )
    return x, lab.astype(np.int64)


def compute_loss(
    x: np.ndarray, bank: ProxyBank, labels, cfg: LossConfig, margins=None
) -> LossOutput:
    """Loss of kind ``cfg.kind`` and its gradients; only the adaptive kind takes ``margins``.

    ``margins`` is a C x C matrix of values in [0, 1] with zero diagonal
    (a MarginMatrix or a raw array). For sample i with label y, each negative
    cosine c against class z becomes c + (1 - c) * margins[y, z].
    """
    x, lab = _check_inputs(x, bank, labels)
    d = margin_array(cfg.kind, margins, bank.num_classes)
    slope = None if d is None else _slope_rows(d, lab)
    losses, grad_x, grad_p = _forward_backward(
        x.astype(np.float64), bank.proxies.astype(np.float64), lab, cfg.tau, cfg.effective_margin, slope
    )
    per_sample = losses.astype(np.float32)
    return LossOutput(
        mean_loss=float(np.mean(per_sample.astype(np.float64))),
        per_sample_loss=per_sample,
        grad_embeddings=grad_x.astype(np.float32),
        grad_proxies=grad_p.astype(np.float32),
    )


def _random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _random_margin_matrix(rng: np.random.Generator, classes: int) -> np.ndarray:
    d = rng.uniform(0.0, 1.0, size=(classes, classes))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(|a|, |n|, 1), maximized."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def loss_backward_check(
    cfg: LossConfig,
    seed: int,
    batch: int = 8,
    dim: int = 16,
    classes: int = 10,
    step: float = 1e-3,
) -> float:
    """Compare analytic gradients against central finite differences.

    Builds a random instance (unit-norm embeddings and proxies, random labels,
    random valid margin matrix for the adaptive kind), computes both gradient
    routes in float64, and returns the max relative error across embedding and
    proxy gradients.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x = _random_unit_rows(rng, batch, dim)
    p = _random_unit_rows(rng, classes, dim)
    labels = rng.integers(0, classes, size=batch)
    tau = cfg.tau
    margin = cfg.effective_margin
    if cfg.kind == KIND_ADAPTIVE:
        slope = _slope_rows(_random_margin_matrix(rng, classes), labels)
    else:
        slope = None

    _, grad_x, grad_p = _forward_backward(x, p, labels, tau, margin, slope)

    def perturbed(base, sign):
        n = base.size
        stack = np.repeat(base[None], n, axis=0)
        flat_i, flat_j = np.divmod(np.arange(n), base.shape[1])
        stack[np.arange(n), flat_i, flat_j] += sign * step
        return stack

    def mean_loss(xs, ps):
        return _forward(xs, ps, labels, tau, margin, slope)[3].mean(-1)

    fd_x = (
        mean_loss(perturbed(x, +1), p[None]) - mean_loss(perturbed(x, -1), p[None])
    ).reshape(x.shape) / (2 * step)
    fd_p = (
        mean_loss(x[None], perturbed(p, +1)) - mean_loss(x[None], perturbed(p, -1))
    ).reshape(p.shape) / (2 * step)

    return max(max_relative_error(grad_x, fd_x), max_relative_error(grad_p, fd_p))
