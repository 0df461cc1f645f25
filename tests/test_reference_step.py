"""The float32 training step against a slow float64 reference loop.

``reference_train`` is the earlier float64 training loop written out as
self-contained numpy: every iteration it recomputes the head, runs the loss
forward and backward on fresh float64 arrays, adds the proxy quantization
gradient, takes the momentum step in float64 and stores the parameters
back as float32, then renormalizes the proxies. It shares only the
initialization, the sampler and the learning-rate schedule with
``marginfit.trainer``. Over 50 steps the float32 step must track it within
``ATOL`` on W, b, P and every per-iteration loss.
"""

import numpy as np
import pytest

from marginfit.losses import KIND_ADAPTIVE, KIND_LMCL, KIND_NORM_SOFTMAX, LossConfig
from marginfit.sampler import BalancedSampler, SamplerConfig
from marginfit.synthetic import clustered_features
from marginfit.trainer import QUANT_WEIGHT, TrainConfig, init, lr_at, train

STEPS = 50
ATOL = 1e-5
# The reference head is the layer norm (population variance, this epsilon)
# followed by L2 normalization; the program drops the layer norm's scale,
# which cancels in the normalization.
LN_EPS = 1e-5


def reference_head(feats, w, b, eps):
    h = feats @ w + b
    mu = h.mean(axis=1, keepdims=True)
    s = np.sqrt(np.mean((h - mu) ** 2, axis=1, keepdims=True) + eps)
    t = (h - mu) / s
    tn = np.linalg.norm(t, axis=1, keepdims=True)
    return t, s, tn, t / tn


def reference_loss(x, p, labels, cfg, d):
    """Per-sample losses and gradients of the mean loss in x and p."""
    batch = x.shape[0]
    rows = np.arange(batch)
    tau, margin = cfg.tau, cfg.effective_margin
    cos = np.clip(x @ p.T, -1.0, 1.0)
    logits = cos.copy() if d is None else cos + (1.0 - cos) * d[labels]
    logits[rows, labels] = cos[rows, labels] - margin
    u = tau * logits
    e = np.exp(u - u.max(axis=1, keepdims=True))
    prob = e / e.sum(axis=1, keepdims=True)
    losses = -np.log(prob[rows, labels])
    dl_du = prob
    dl_du[rows, labels] -= 1.0
    slope = np.ones_like(cos) if d is None else 1.0 - d[labels]
    slope[rows, labels] = 1.0
    dl_dcos = dl_du * slope * (tau / batch)
    return losses, dl_dcos @ p, dl_dcos.T @ x


def reference_head_backward(feats, t, s, tn, grad_out):
    o = t / tn
    grad_t = (grad_out - np.sum(grad_out * o, axis=1, keepdims=True) * o) / tn
    gm = grad_t.mean(axis=1, keepdims=True)
    gt = np.mean(grad_t * t, axis=1, keepdims=True)
    grad_h = (grad_t - gm - t * gt) / s
    return feats.T @ grad_h, grad_h.sum(axis=0)


def reference_quant_grad(p):
    classes, dim = p.shape
    code = np.where(p > 0.0, 1.0, -1.0) / np.sqrt(dim)
    return (2.0 * QUANT_WEIGHT / classes) * (p - code)


def reference_train(bundle, cfg, d=None, steps=STEPS):
    head, bank = init(cfg, bundle.feature_dim, bundle.num_classes)
    params = [head.weight, head.bias, bank.proxies]
    velocities = [np.zeros_like(a) for a in params]
    block = BalancedSampler(bundle, cfg.sampler).batches(0, steps)
    d = None if d is None else d.astype(np.float64)
    curve = []
    for t, rows, labels in zip(range(steps), block.sample_indices, block.labels):
        feats = bundle.features[rows].astype(np.float64)
        w, b, p = (a.astype(np.float64) for a in params)
        ht, hs, htn, emb = reference_head(feats, w, b, LN_EPS)
        losses, grad_x, grad_p = reference_loss(emb, p, labels, cfg.loss, d)
        curve.append(float(losses.mean()))
        grad_w, grad_b = reference_head_backward(feats, ht, hs, htn, grad_x)
        grads = [grad_w, grad_b, grad_p + reference_quant_grad(p)]
        lr = lr_at(cfg, t)
        for i, g in enumerate(grads):
            v = cfg.momentum * velocities[i].astype(np.float64) + g
            params[i] = (params[i].astype(np.float64) - lr * v).astype(np.float32)
            velocities[i] = v.astype(np.float32)
        p = params[2].astype(np.float64)
        params[2] = (p / np.linalg.norm(p, axis=1, keepdims=True)).astype(np.float32)
    return params, curve


def random_margins(classes, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, 1.0, (classes, classes))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d.astype(np.float32)


# (classes, F, cluster std, train per class, D, batch size, k): the two
# benchmark workload shapes, train-small (the criterion-5 shape) and
# train-manyclass, where the (B, C) loss work dominates. The data is
# clustered, as in the benchmark. On random-label data (no class
# structure) the loss stays near 10-20 and the trajectory is chaotic: a
# 1e-7 relative gradient difference in the first step grows past 1e-5 in
# the loss within 20 steps, for any change of rounding.
SHAPES = {
    "small": (50, 64, 0.15, 40, 32, 75, 5),
    "manyclass": (1000, 512, 0.065, 10, 128, 150, 5),
}


@pytest.mark.parametrize("kind", [KIND_NORM_SOFTMAX, KIND_LMCL, KIND_ADAPTIVE])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_float32_step_tracks_float64_reference(kind, shape):
    classes, feature_dim, std, per_class, embed_dim, batch_size, k = SHAPES[shape]
    bundle = clustered_features(
        classes, feature_dim, std, per_class, query_per_class=1, gallery_per_class=1, seed=7
    ).train
    d = random_margins(classes, seed=1) if kind == KIND_ADAPTIVE else None
    cfg = TrainConfig(
        embed_dim=embed_dim,
        lr0=0.05,
        momentum=0.9,
        warmup_iters=5,
        total_iters=STEPS,
        loss=LossConfig(kind=kind, sigma=20.0, margin=0.4),
        sampler=SamplerConfig(batch_size=batch_size, k=k, seed=3),
        proxy_init_seed=4,
        head_init_seed=5,
    )
    curve = []
    ckpt = train(bundle, cfg, d, on_iteration=lambda t, lr, loss: curve.append(loss))
    (w, b, p), ref_curve = reference_train(bundle, cfg, d)

    np.testing.assert_allclose(curve, ref_curve, rtol=0, atol=ATOL)
    np.testing.assert_allclose(ckpt.head.weight, w, rtol=0, atol=ATOL)
    np.testing.assert_allclose(ckpt.head.bias, b, rtol=0, atol=ATOL)
    np.testing.assert_allclose(ckpt.proxies.proxies, p, rtol=0, atol=ATOL)
    # the parameters moved well beyond the tolerance, so the check has teeth
    head0, bank0 = init(cfg, feature_dim, classes)
    assert np.max(np.abs(w - head0.weight)) > 100 * ATOL
    assert np.max(np.abs(p - bank0.proxies)) > 100 * ATOL
