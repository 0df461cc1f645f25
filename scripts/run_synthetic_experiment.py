#!/usr/bin/env python3
"""Desk-scale comparison of the three losses on synthetic clustered data.

Trains plain softmax, constant-margin, and adaptive-margin heads on the same
fixed-seed data, reports float and binarized Recall@K for each, and measures
how much of the text-modality structure each run's proxies absorbed
(Spearman correlation between proxy distances and the margin matrix).
"""

import argparse
import time

# marginfit first: it sets the BLAS thread count from MF_THREADS, which
# works only before numpy is loaded
import marginfit  # noqa: F401
import numpy as np
from scipy.stats import spearmanr

from marginfit.evaluation import compare_float_binary
from marginfit.losses import KIND_ADAPTIVE, KIND_LMCL, KIND_NORM_SOFTMAX, LossConfig
from marginfit.margins import build_margin_matrix
from marginfit.sampler import SamplerConfig
from marginfit.synthetic import clustered_features, hierarchical_text_embeddings
from marginfit.trainer import Checkpoint, TrainConfig, init, train


def proxy_margin_spearman(ckpt, margins):
    proxies = ckpt.proxies.proxies.astype(np.float64)
    iu = np.triu_indices(proxies.shape[0], 1)
    proxy_dist = (1.0 - proxies @ proxies.T)[iu]
    return spearmanr(proxy_dist, margins.d.astype(np.float64)[iu]).statistic


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", type=int, default=50)
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--embed-dim", type=int, default=32)
    ap.add_argument("--lr0", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--ks", default="1,5,10")
    args = ap.parse_args()
    ks = [int(k) for k in args.ks.split(",")]

    data = clustered_features(num_classes=args.classes, seed=args.seed)
    text = hierarchical_text_embeddings(num_classes=args.classes, seed=8)
    margins = build_margin_matrix(text)

    def config(kind):
        return TrainConfig(
            embed_dim=args.embed_dim,
            lr0=args.lr0,
            momentum=0.9,
            warmup_iters=100,
            decay_gamma=1.0,
            total_iters=args.iters,
            loss=LossConfig(kind=kind, sigma=20.0, margin=0.4),
            sampler=SamplerConfig(batch_size=75, k=5, seed=3),
            proxy_init_seed=4,
            head_init_seed=5,
        )

    head0, bank0 = init(config(KIND_NORM_SOFTMAX), data.train.feature_dim, data.train.num_classes)
    base_float, base_binary = compare_float_binary(
        Checkpoint(head0, bank0, 0), data.split, ks
    )
    print(f"untrained head: float R@1 {base_float.recall[0]:.3f}, "
          f"binary R@1 {base_binary.recall[0]:.3f}")
    print()
    header = "loss          " + "".join(f"  R@{k:<4d}" for k in ks)
    print(header + "  binR@1   spearman   seconds")

    for kind in (KIND_NORM_SOFTMAX, KIND_LMCL, KIND_ADAPTIVE):
        t0 = time.time()
        ckpt = train(data.train, config(kind), margins if kind == KIND_ADAPTIVE else None)
        seconds = time.time() - t0
        fl, bi = compare_float_binary(ckpt, data.split, ks)
        rho = proxy_margin_spearman(ckpt, margins)
        cells = "".join(f"  {r:6.3f}" for r in fl.recall)
        print(f"{kind:<14}{cells}  {bi.recall[0]:6.3f}   {rho:8.3f}   {seconds:7.1f}")


if __name__ == "__main__":
    main()
