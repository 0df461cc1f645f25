"""Criterion 8's binarization gap at data seeds 1-10, and criterion 6's Spearman rho.

Usage (from the repository root, no options):

    PYTHONPATH=src python scripts/criterion8_seeds.py

Trains the criterion-5/8 fixture (C=50, F=64, D=32, adaptive loss, 2000
iterations; see ``tests/test_acceptance.py``) once per data seed 1-10 and
prints a markdown table of float Recall@1, binary Recall@1 and their gap
in points. The acceptance test runs seed 7 with a 10-point bound. Then it
trains criterion 6's fixture with the adaptive and the plain softmax loss
and prints the Spearman correlation of pairwise proxy distances with the
margin matrix (criterion 6 needs adaptive > 0.3 and adaptive > plain).
Every run is fixed-seed, so the output reproduces exactly.
"""

from __future__ import annotations

# marginfit first: it sets the BLAS thread count from MF_THREADS, which
# works only before numpy is loaded
import marginfit  # noqa: F401
import numpy as np
from scipy.stats import spearmanr

from marginfit.evaluation import compare_float_binary
from marginfit.losses import KIND_ADAPTIVE, KIND_NORM_SOFTMAX, LossConfig
from marginfit.margins import build_margin_matrix
from marginfit.sampler import SamplerConfig
from marginfit.synthetic import (
    clustered_features,
    equidistant_text_embeddings,
    hierarchical_text_embeddings,
)
from marginfit.trainer import TrainConfig, train

DATA_SEEDS = range(1, 11)
GAP_BOUND = 0.10


def criterion8_gap(data_seed: int) -> tuple[float, float]:
    """(float, binary) Recall@1 of the criterion-5/8 fixture at one data seed."""
    data = clustered_features(
        num_classes=50,
        feature_dim=64,
        cluster_std=0.15,
        train_per_class=40,
        query_per_class=10,
        gallery_per_class=10,
        seed=data_seed,
    )
    margins = build_margin_matrix(equidistant_text_embeddings(seed=8))
    cfg = TrainConfig(
        embed_dim=32,
        lr0=0.05,
        momentum=0.9,
        warmup_iters=100,
        total_iters=2000,
        loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4),
        sampler=SamplerConfig(batch_size=75, k=5, seed=3),
        proxy_init_seed=4,
        head_init_seed=5,
    )
    ckpt = train(data.train, cfg, margins)
    float_report, binary_report = compare_float_binary(ckpt, data.split, ks=[1])
    return float_report.recall[0], binary_report.recall[0]


def criterion6_rho(kind: str) -> float:
    data = clustered_features(seed=3)
    margins = build_margin_matrix(hierarchical_text_embeddings(num_groups=5, seed=8))
    cfg = TrainConfig(
        embed_dim=32,
        lr0=0.1,
        momentum=0.9,
        warmup_iters=100,
        decay_gamma=1.0,
        total_iters=2000,
        loss=LossConfig(kind=kind, sigma=20.0, margin=0.4),
        sampler=SamplerConfig(batch_size=75, k=5, seed=3),
        proxy_init_seed=4,
        head_init_seed=5,
    )
    ckpt = train(data.train, cfg, margins if kind == KIND_ADAPTIVE else None)
    proxies = ckpt.proxies.proxies.astype(np.float64)
    iu = np.triu_indices(data.train.num_classes, 1)
    return spearmanr((1.0 - proxies @ proxies.T)[iu], margins.d.astype(np.float64)[iu]).statistic


def main() -> None:
    print("| data seed | float R@1 | binary R@1 | gap (pts) |")
    print("| --- | --- | --- | --- |")
    gaps = []
    for seed in DATA_SEEDS:
        float_r1, binary_r1 = criterion8_gap(seed)
        gaps.append(abs(float_r1 - binary_r1))
        print(f"| {seed} | {float_r1:.3f} | {binary_r1:.3f} | {100 * gaps[-1]:.1f} |")
    print(
        f"\nmean gap {100 * np.mean(gaps):.1f} pts, max {100 * max(gaps):.1f}, "
        f"seeds over {100 * GAP_BOUND:.0f} pts: {sum(g > GAP_BOUND for g in gaps)}"
    )
    print(
        f"criterion-6 Spearman rho: adaptive {criterion6_rho(KIND_ADAPTIVE):.3f}, "
        f"norm_softmax {criterion6_rho(KIND_NORM_SOFTMAX):.3f}"
    )


if __name__ == "__main__":
    main()
