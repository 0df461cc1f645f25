"""Proxy-based softmax losses with temperature, constant and adaptive margins.

Three loss kinds share one implementation: the plain temperature-scaled
softmax over cosine logits, the constant-margin variant (positive logit
shifted down by ``margin``), and the adaptive variant where every negative
logit ``c`` is inflated toward 1 as ``c + (1 - c) * d`` using a per-class-pair
margin ``d`` in [0, 1]. Setting ``d = 0`` everywhere recovers the
constant-margin loss, and ``margin = 0`` on top recovers the plain softmax.

Up to a per-row shift the softmax ignores, every kind's logits are
``slope * (cos - 1)`` less ``tau * margin`` at the positive; the kinds
differ only in the slope, the scalar ``tau`` or the adaptive kind's label
rows of ``tau * (1 - d)`` (``_slope_rows``; each training step has it
write them into a (B, C) buffer, so no C x C slope table is built). So one
branch-free, dtype-generic kernel, ``_forward``, serves ``compute_loss``
(float64), the training step (float32, in buffers it allocates once; it
calls ``_forward_backward``, not ``compute_loss``) and the finite-difference
check, which evaluates stacks of perturbed parameters in one float64
broadcast call. Its B-length reductions run in float64. Public outputs
are float32; gradients are of the mean loss over the batch.

A margin matrix enters only through ``margin_array``, which checks a raw
array as a ``MarginMatrix`` and permutes a matrix to the caller's ids once.
``UnitNormRows``, the ``ProxyBank`` rule, refuses the first proxy row off
norm 1, also block by block as a checkpoint's proxies are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import as_matrix, checked_class_ids
from .errors import ConfigError, DimMismatch, InvalidLabel, InvariantViolation, UnknownClass
from .margins import MarginMatrix

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


class UnitNormRows:
    """The proxies' rule: every row's L2 norm is within 1e-5 of 1.

    ``rule(rows)`` takes the rows of an array, all at once or block by block
    in order, and raises InvariantViolation at the first row whose float64
    norm breaks the rule (a NaN norm does), naming its row in the array.
    """

    def __init__(self):
        self.rows = 0  # rows seen

    def __call__(self, rows: np.ndarray) -> None:
        some = rows if rows.shape[1] else rows[:1]  # zero-width rows all have norm 0
        norms = np.sqrt(np.einsum("ij,ij->i", some, some, dtype=np.float64))
        off = ~(np.abs(norms - 1.0) <= 1e-5)
        if off.any():
            i = int(np.argmax(off))
            raise InvariantViolation(f"proxy row {self.rows + i} has norm {norms[i]:.8f}, expected 1")
        self.rows += len(rows)


@dataclass
class ProxyBank:
    """One learnable unit-norm vector per class."""

    proxies: np.ndarray
    class_ids: list[str] | None = None

    def __post_init__(self):
        self.proxies = as_matrix(self.proxies, "proxies")
        UnitNormRows()(self.proxies)  # before C default ids are built
        self.class_ids = checked_class_ids(self.class_ids, self.proxies.shape[0], "proxy bank")

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


def margin_array(kind: str, margins, class_ids: list[str]) -> np.ndarray | None:
    """The C x C array of ``margins`` in the order of ``class_ids``, or None.

    Only the adaptive kind takes margins, and it requires them (ConfigError).
    A raw array is checked as ``MarginMatrix(margins, class_ids)``. A
    MarginMatrix is permuted to ``class_ids`` once and not checked again
    (UnknownClass names missing and extra ids); one in that order is returned.
    """
    if kind != KIND_ADAPTIVE:
        if margins is not None:
            raise ConfigError(f"loss kind {kind!r} does not take a margin matrix")
        return None
    if margins is None:
        raise ConfigError("adaptive loss kind requires a margin matrix")
    if not isinstance(margins, MarginMatrix):
        margins = MarginMatrix(margins, class_ids)
    if list(class_ids) == margins.class_ids:
        return margins.d
    row = {cid: i for i, cid in enumerate(margins.class_ids)}
    missing = sorted(set(class_ids) - row.keys())
    extra = sorted(row.keys() - set(class_ids))
    if missing or extra:
        raise UnknownClass(
            f"margin matrix ids differ from the class ids: missing {missing[:5]}, "
            f"extra {extra[:5]}"
        )
    perm = np.array([row[cid] for cid in class_ids])
    return margins.d[np.ix_(perm, perm)]


def _positives(labels, num_classes) -> np.ndarray:
    """Flat indices of the positive entries (i, labels[i]) of a (B, C) array."""
    return np.arange(len(labels)) * num_classes + labels


def _slope_rows(d, rows, pos, tau, dtype, out=None) -> np.ndarray:
    """The logit slope at ``rows``, in ``dtype``: tau * (1 - d[rows]), tau at (i, rows[i]).

    Row i serves label rows[i], which must lie in [0, C): a negative cosine
    ``c`` gets the logit ``tau * (c + (1 - c) * d) - tau = slope * (c - 1)``,
    the positive slope tau, and the backward pass multiplies by the same
    slope. ``pos`` is ``_positives(rows, C)``. ``out``, a (len(rows), C)
    array of ``dtype``, receives the rows when given; ``d`` is only read.
    """
    # "clip" lets take write into out without a buffered copy
    slope = np.asarray(d).take(rows, axis=0, out=out, mode="clip").astype(dtype, copy=False)
    np.subtract(1.0, slope, out=slope)
    slope *= tau
    slope.reshape(-1)[pos] = tau
    return slope


def _forward(x, p, pos, tau, margin, slope, out=None):
    """Per-sample losses plus the intermediates the backward pass reuses.

    dtype-generic: the (..., B, C) work runs in the dtype of ``x`` and ``p``,
    in ``out`` when given, and the B-length reductions run in float64. ``x``
    is (..., B, D) and ``p`` is (..., C, D); the leading dimensions
    broadcast, so one call evaluates a stack of perturbed parameters.
    The logits are ``slope * (cos - 1)`` less ``tau * margin`` at the
    positives, ``pos = _positives(labels, C)`` in each flattened (B, C)
    slice; ``slope`` is tau, or ``_slope_rows`` for the adaptive kind.
    Returns ``(e, ty, others, losses)``: ``e`` is the workspace holding
    exp(u - max u) with the positive entries zeroed, ``ty`` the shifted
    positive logit and ``others`` the sum of ``e``, all float64 except ``e``.
    """
    # At B x C = 75 x 50 numpy's Python wrappers cost more than the work, so
    # clip is the method and max and sum are ufunc reductions: same operations
    u = np.matmul(x, p.swapaxes(-1, -2), out=out)
    flat = u.reshape(u.shape[:-2] + (-1,))
    at = (slice(None),) * (u.ndim - 2) + (pos,)  # [..., pos] costs 4x as much
    u.clip(-1.0, 1.0, out=u)
    u -= 1.0
    u *= slope
    flat[at] -= tau * margin
    u -= np.maximum.reduce(u, axis=-1, keepdims=True)
    ty = flat[at].astype(np.float64)
    e = np.exp(u, out=u)
    flat[at] = 0.0
    others = np.add.reduce(e, axis=-1, dtype=np.float64)
    # Stable -log softmax(target): exact even when the target dominates and
    # the competing terms are many orders of magnitude smaller.
    losses = np.log1p(np.expm1(ty) + others) - ty
    return e, ty, others, losses


def _forward_backward(x, p, pos, tau, margin, slope, out=None, grad_x=None, grad_p=None):
    """Per-sample float64 losses and the gradients of the mean loss in x and p.

    Runs in the dtype of ``x`` and ``p``; ``out`` (B, C), ``grad_x`` (B, D)
    and ``grad_p`` (C, D) are optional buffers of that dtype.
    """
    e, ty, others, losses = _forward(x, p, pos, tau, margin, slope, out)
    # dl/du = softmax - onehot, divided by B for the mean loss. The positive
    # entry, softmax - 1 = -others / sumexp, keeps its precision when the
    # target dominates.
    scale = (1.0 / pos.shape[0]) / (others + np.exp(ty))
    e *= scale.astype(e.dtype)[:, None]
    e.reshape(-1)[pos] = -others * scale
    # Chain through the logit slope; the cosine clamp is treated as identity.
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

    ``margins`` is a MarginMatrix or a raw C x C array checked as one, aligned
    to ``bank.class_ids`` by ``margin_array``. For sample i with label y, each
    negative cosine c against class z becomes c + (1 - c) * margins[y, z].
    """
    x, lab = _check_inputs(x, bank, labels)
    d = margin_array(cfg.kind, margins, bank.class_ids)
    pos = _positives(lab, bank.num_classes)
    slope = cfg.tau if d is None else _slope_rows(d, lab, pos, cfg.tau, np.float64)
    losses, grad_x, grad_p = _forward_backward(
        x.astype(np.float64), bank.proxies.astype(np.float64), pos, cfg.tau, cfg.effective_margin, slope
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


def loss_backward_check(cfg: LossConfig, seed: int) -> float:
    """Compare analytic gradients against central finite differences.

    Builds a random instance (8 unit-norm embeddings and 10 proxies in 16
    dimensions, random labels, random valid margin matrix for the adaptive
    kind), computes both gradient routes in float64 with a 1e-3 central
    step, and returns the max relative error across embedding and proxy
    gradients.
    """
    batch, dim, classes, step = 8, 16, 10, 1e-3
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x = _random_unit_rows(rng, batch, dim)
    p = _random_unit_rows(rng, classes, dim)
    labels = rng.integers(0, classes, size=batch)
    tau, margin, slope, pos = cfg.tau, cfg.effective_margin, cfg.tau, _positives(labels, classes)
    if cfg.kind == KIND_ADAPTIVE:
        slope = _slope_rows(_random_margin_matrix(rng, classes), labels, pos, tau, np.float64)

    _, grad_x, grad_p = _forward_backward(x, p, pos, tau, margin, slope)

    def perturbed(base, sign):
        n = base.size
        stack = np.repeat(base[None], n, axis=0)
        flat_i, flat_j = np.divmod(np.arange(n), base.shape[1])
        stack[np.arange(n), flat_i, flat_j] += sign * step
        return stack

    def mean_loss(xs, ps):
        return _forward(xs, ps, pos, tau, margin, slope)[3].mean(-1)

    fd_x = (
        mean_loss(perturbed(x, +1), p[None]) - mean_loss(perturbed(x, -1), p[None])
    ).reshape(x.shape) / (2 * step)
    fd_p = (
        mean_loss(x[None], perturbed(p, +1)) - mean_loss(x[None], perturbed(p, -1))
    ).reshape(p.shape) / (2 * step)

    return max(max_relative_error(grad_x, fd_x), max_relative_error(grad_p, fd_p))
